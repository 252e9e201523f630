#!/usr/bin/env python3
"""Replay the bundled nondeterministic models across depths and variants.

Prints two markdown tables: location counts of the unfolding and of each
determinization variant, and wall times.  The deep depths run only with
--full.  Every variant runs on every configuration; the subset
construction's count is of the DAG that it builds, which shares each
(level, members, entry zone) location.

--json PATH also writes, for each configuration, the location counts, the
wall time of each stage and the solver counters of each stage to PATH.  The
counters come from a second pass under layerbench/tracing.py's tracer, so
the timed pass runs untraced:

    python3 scripts/benchmark.py --full --json BENCH_16.json

--compare OLD NEW reads two such files and runs nothing: for each
configuration in both it prints each stage's time in NEW over its time in
OLD, and it exits 1 if any location count differs:

    python3 scripts/benchmark.py --compare BENCH_16.json BENCH_17.json
"""

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "layerbench"))

from tadet.corpus import NAMED_MODELS  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

# the modules that the tracer wraps; stages call through them, so a traced
# pass sees every call
lib = SimpleNamespace(**{m: importlib.import_module(f"tadet.{m}") for m in (
    "unfold", "silent", "determinize", "equivalence", "solver", "modelio")})

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
COUNTERS = ("solver.is_satisfiable.calls", "solver.feasible_systems.calls", "solver.close.calls")


def run_configuration(make, k: int, stage) -> dict:
    """Every stage of one configuration, each run as ``stage(name, fn,
    *args)``; returns the location counts."""
    tree = stage("unfold", lib.unfold.unfold, make(), k)
    renamed = stage("rename_clocks", lib.unfold.rename_clocks, tree)
    removed = stage("remove_all_silent", lib.silent.remove_all_silent, renamed)
    new = stage("new", lib.determinize.determinize_guard_oriented, removed)
    std = stage("std", lib.determinize.determinize_standard, removed)
    otf = stage("otf", lib.determinize.pipeline_on_the_fly, make(), k)
    return {
        "unfolded": removed.location_count(),
        "std": std.location_count(),
        "new": new.location_count(),
        "otf": otf.location_count(),
    }


def timed_stage(seconds: dict):
    def stage(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds[name] = time.perf_counter() - t0
        return out
    return stage


def traced_stage(tracer: Tracer, counters: dict):
    def stage(name, fn, *args):
        out = fn(*args)
        summary = summarize(*tracer.take(), lambda a, b: b - a)
        counters[name] = {c: summary.get(c, 0) for c in COUNTERS}
        return out
    return stage


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
        make = NAMED_MODELS[name]
        for k in ks:
            seconds: dict[str, float] = {}
            locations = run_configuration(make, k, timed_stage(seconds))
            configurations.append({"model": name, "k": k, "locations": locations, "seconds": seconds})
            print(f"done {name} k={k}", file=sys.stderr)

    if args.json:
        tracer = Tracer(time.perf_counter)
        for conf in configurations:
            counters: dict[str, dict] = {}
            tracer.install(lib)
            try:
                run_configuration(NAMED_MODELS[conf["model"]], conf["k"], traced_stage(tracer, counters))
            finally:
                tracer.uninstall()
            conf["counters"] = counters
            print(f"traced {conf['model']} k={conf['k']}", file=sys.stderr)
        record = {
            "plan": "full" if args.full else "quick",
            "environment": {"python": platform.python_version(), "machine": platform.machine(),
                            "cpus": os.cpu_count()},
            "configurations": configurations,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("\n## Locations\n")
    print("| model | k | unfolded | std det | new det | on-the-fly |")
    print("|---|---|---|---|---|---|")
    for c in configurations:
        n = c["locations"]
        print(f"| {c['model']} | {c['k']} | {n['unfolded']} | {n['std']} | {n['new']} | {n['otf']} |")

    print("\n## Runtimes (s)\n")
    print("| model | k | unfold+remove | std det | new det | on-the-fly |")
    print("|---|---|---|---|---|---|")
    for c in configurations:
        s = c["seconds"]
        staged = s["unfold"] + s["rename_clocks"] + s["remove_all_silent"]
        print(f"| {c['model']} | {c['k']} | {staged:.2f} | {s['std']:.2f} "
              f"| {s['new']:.2f} | {s['otf']:.2f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
