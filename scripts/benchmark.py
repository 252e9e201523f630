#!/usr/bin/env python3
"""Time the CLI's pipeline on the bundled nondeterministic models across
depths and variants.

Each configuration runs ``tadet.cli.run_pipeline`` once for every variant
(``std``, ``new``, ``otf``): the stripped unfolding, built as a DAG in one
walk, then the variant's determinizer on that DAG.  Prints two markdown
tables, location counts and wall times.  The deep depths run only with
--full.

--json PATH also writes, for each configuration, the location count, the
wall time and the solver call counts (``is_satisfiable``,
``feasible_systems``, ``close``) of every stage of every variant's report
to PATH, each keyed ``<variant>/<stage>``:

    python3 scripts/benchmark.py --full --json BENCH_25.json

--compare OLD NEW reads two such files and runs nothing: for each
configuration in both it prints each stage's time in NEW over its time in
OLD, and it exits 1 if any location count differs:

    python3 scripts/benchmark.py --compare BENCH_23.json BENCH_25.json
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


def run_configuration(make, k: int) -> dict:
    """Every variant's pipeline on one configuration: each report stage's
    locations, seconds and solver call counts, keyed ``<variant>/<stage>``."""
    conf: dict = {"locations": {}, "seconds": {}, "counters": {}}
    for variant in DETERMINIZERS:
        for stage in run_pipeline(make(), k, variant).report["stages"]:
            key = f"{variant}/{stage['name']}"
            conf["locations"][key] = stage["locations"]
            conf["seconds"][key] = round(stage["millis"] / 1000, 6)
            conf["counters"][key] = stage["calls"]
    return conf


def compare(old_path: Path, new_path: Path) -> int:
    """Print the stage time ratios NEW / OLD per configuration; 1 if any
    location count differs, else 0."""
    def configurations(path: Path) -> dict:
        record = json.loads(path.read_text(encoding="utf-8"))
        return {(c["model"], c["k"]): c for c in record["configurations"]}

    old, new = configurations(old_path), configurations(new_path)
    common = [key for key in new if key in old]
    stages = list(dict.fromkeys(s for key in common for s in new[key]["seconds"]))
    print(f"\n## Stage time, {new_path.name} / {old_path.name}\n")
    print("| model | k | " + " | ".join(stages) + " |")
    print("|---|---|" + "---|" * len(stages))
    differ = []
    for key in common:
        before, after = old[key]["seconds"], new[key]["seconds"]
        cells = [f"{after[s] / before[s]:.2f}" if s in after and before.get(s) else "-" for s in stages]
        print(f"| {key[0]} | {key[1]} | " + " | ".join(cells) + " |")
        if old[key]["locations"] != new[key]["locations"]:
            differ.append(f"{key[0]} k={key[1]}: {old[key]['locations']} -> {new[key]['locations']}")
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
            configurations.append({"model": name, "k": k, **run_configuration(NAMED_MODELS[name], k)})
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
