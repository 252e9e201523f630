#!/usr/bin/env python3
"""Replay the bundled nondeterministic models across depths and variants.

Prints two markdown tables: location counts of the unfolding and of each
determinization variant, and wall times.  The deep depths run only with
--full.  The subset construction is not run on nondet-plain-c at k=50: its
output there grows about fivefold every five levels (4,093 locations at
k=20, 20,477 at k=25), so it would not end; that cell is marked "-".
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tadet.corpus import NAMED_MODELS
from tadet.determinize import (
    determinize_guard_oriented,
    determinize_standard,
    pipeline_on_the_fly,
)
from tadet.silent import remove_all_silent
from tadet.unfold import rename_clocks, unfold

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
    "nondet-silent-d": [2, 5, 10],
}
# the subset construction's output outgrows memory and time here
SKIP_STD = {("nondet-plain-c", 50)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true", help="include the deep depths")
    args = ap.parse_args()
    plan = FULL if args.full else QUICK

    rows = []
    for name, ks in plan.items():
        make = NAMED_MODELS[name]
        for k in ks:
            t0 = time.perf_counter()
            removed = remove_all_silent(rename_clocks(unfold(make(), k)))
            t_removed = time.perf_counter() - t0

            t0 = time.perf_counter()
            new = determinize_guard_oriented(removed)
            t_new = time.perf_counter() - t0

            if (name, k) in SKIP_STD:
                std_locs, t_std = "-", "-"
            else:
                t0 = time.perf_counter()
                std_locs = determinize_standard(removed).location_count()
                t_std = f"{time.perf_counter() - t0:.2f}"

            t0 = time.perf_counter()
            otf = pipeline_on_the_fly(make(), k)
            t_otf = time.perf_counter() - t0

            rows.append((
                name, k, removed.location_count(),
                std_locs, new.location_count(), otf.location_count(),
                t_std, f"{t_new:.2f}", f"{t_otf:.2f}", f"{t_removed:.2f}",
            ))
            print(f"done {name} k={k}", file=sys.stderr)

    print("\n## Locations\n")
    print("| model | k | unfolded | std det | new det | on-the-fly |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r[0]} | {r[1]} | {r[2]} | {r[3]} | {r[4]} | {r[5]} |")

    print("\n## Runtimes (s)\n")
    print("| model | k | unfold+remove | std det | new det | on-the-fly |")
    print("|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r[0]} | {r[1]} | {r[9]} | {r[6]} | {r[7]} | {r[8]} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
