#!/usr/bin/env python3
"""Time the CLI's pipeline on the bundled nondeterministic models across
depths and variants.

Each configuration runs ``tadet.cli.run_pipeline`` once for every variant
(``std``, ``new``, ``otf``): the stripped unfolding, built as a DAG in one
walk, then the variant's determinizer on that DAG.  On the quick rows, in
both plans, the run also checks the output against the raw unfolding
(``check_equiv=True``, the CLI's --check-equiv).  Prints markdown tables
of location counts, wall times and check times.  The deep depths run only
with --full.

--json PATH also writes, for each configuration, the location count, the
wall time and the solver call counts (``is_satisfiable``,
``feasible_systems``, ``close``) of every stage of every variant's report
to PATH, each keyed ``<variant>/<stage>``; a quick row also has ``check``,
the check-equiv stage's wall time, solver call counts and verdict, keyed
``<variant>/check-equiv``:

    python3 scripts/benchmark.py --full --json BENCH_27.json

--compare OLD NEW reads two such files and runs nothing: for each
configuration in both it prints each stage's time in NEW over its time in
OLD, checks included, and it exits 1 if a stage that both files have
differs in its location count or a configuration shares no stage:

    python3 scripts/benchmark.py --compare BENCH_25.json BENCH_27.json
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tadet.cli import DETERMINIZERS, run_pipeline  # noqa: E402
from tadet.corpus import NAMED_MODELS  # noqa: E402

QUICK = {
    "nondet-silent-a": [2, 5],
    "nondet-silent-b": [2, 5],
    "nondet-plain-c": [2, 5, 10],
    "nondet-silent-d": [2, 5],
}
FULL = {
    "nondet-silent-a": [2, 5, 9],
    "nondet-silent-b": [2, 5, 9],
    "nondet-plain-c": [2, 5, 10, 25, 50],
    "nondet-silent-d": [2, 5, 10, 14],
}


def run_configuration(make, k: int, check: bool = False) -> dict:
    """Every variant's pipeline on one configuration: each construction
    stage's locations, seconds and solver call counts, keyed
    ``<variant>/<stage>``; with ``check``, also each variant's check-equiv
    stage under ``check``."""
    conf: dict = {"locations": {}, "seconds": {}, "counters": {}}
    checks = {}
    for variant in DETERMINIZERS:
        result = run_pipeline(make(), k, variant, check_equiv=check)
        for stage in result.report["stages"]:
            key = f"{variant}/{stage['name']}"
            seconds = round(stage["millis"] / 1000, 6)
            if stage["name"] == "check-equiv":
                checks[key] = {"seconds": seconds, "counters": stage["calls"],
                               "equal": result.counterexample is None}
                continue
            conf["locations"][key] = stage["locations"]
            conf["seconds"][key] = seconds
            conf["counters"][key] = stage["calls"]
    if checks:
        conf["check"] = checks
    return conf


def stage_seconds(conf: dict) -> dict:
    """A configuration's stage times, its checks' included."""
    return {**conf["seconds"], **{key: c["seconds"] for key, c in conf.get("check", {}).items()}}


def compare(old_path: Path, new_path: Path) -> int:
    """Print the stage time ratios NEW / OLD per configuration; 1 if a
    stage in both differs in its location count, or a configuration in
    both has no stage in both, else 0."""
    def configurations(path: Path) -> dict:
        record = json.loads(path.read_text(encoding="utf-8"))
        return {(c["model"], c["k"]): c for c in record["configurations"]}

    old, new = configurations(old_path), configurations(new_path)
    common = [key for key in new if key in old]
    stages = list(dict.fromkeys(s for key in common for s in stage_seconds(new[key])))
    print(f"\n## Stage time, {new_path.name} / {old_path.name}\n")
    print("| model | k | " + " | ".join(stages) + " |")
    print("|---|---|" + "---|" * len(stages))
    differ = []
    for key in common:
        before, after = stage_seconds(old[key]), stage_seconds(new[key])
        cells = [f"{after[s] / before[s]:.2f}" if s in after and before.get(s) else "-" for s in stages]
        print(f"| {key[0]} | {key[1]} | " + " | ".join(cells) + " |")
        was, now = old[key]["locations"], new[key]["locations"]
        shared = was.keys() & now.keys()
        moved = {s: (was[s], now[s]) for s in shared if was[s] != now[s]}
        if moved or not shared:
            differ.append(f"{key[0]} k={key[1]}: {moved or 'no stage in both'}")
    for key in old.keys() - new.keys():
        print(f"only in {old_path.name}: {key[0]} k={key[1]}")
    for key in new.keys() - old.keys():
        print(f"only in {new_path.name}: {key[0]} k={key[1]}")
    for line in differ:
        print(f"locations differ, {line}")
    return 1 if differ else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--full", action="store_true", help="include the deep depths")
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="also write locations, stage times and solver counters to PATH")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                    help="compare two files written by --json instead of running")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    plan = FULL if args.full else QUICK

    configurations = []
    for name, ks in plan.items():
        for k in ks:
            check = k in QUICK.get(name, ())
            configurations.append({"model": name, "k": k,
                                   **run_configuration(NAMED_MODELS[name], k, check)})
            print(f"done {name} k={k}", file=sys.stderr)

    if args.json:
        record = {
            "plan": "full" if args.full else "quick",
            "environment": {"python": platform.python_version(), "machine": platform.machine(),
                            "cpus": os.cpu_count()},
            "configurations": configurations,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    # the DAG is the same for every variant; the first variant's run gives it
    variants = list(DETERMINIZERS)
    columns = [f"{variants[0]}/stripped-unfolding"] + [f"{v}/determinize-{v}" for v in variants]
    for title, field, cell in (("Locations", "locations", str),
                               ("Runtimes (ms)", "seconds", lambda t: f"{t * 1000:.2f}")):
        print(f"\n## {title}\n")
        print("| model | k | stripped unfolding | " + " | ".join(f"{v} det" for v in variants) + " |")
        print("|---|---|" + "---|" * len(columns))
        for c in configurations:
            print(f"| {c['model']} | {c['k']} | " + " | ".join(cell(c[field][s]) for s in columns) + " |")
    print("\n## check-equiv (ms)\n")
    print("| model | k | " + " | ".join(variants) + " |")
    print("|---|---|" + "---|" * len(variants))
    for c in configurations:
        if "check" in c:
            cells = (f"{c['check'][f'{v}/check-equiv']['seconds'] * 1000:.2f}" for v in variants)
            print(f"| {c['model']} | {c['k']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
