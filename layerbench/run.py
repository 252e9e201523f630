#!/usr/bin/env python3
"""Layered benchmark of the tadet pipeline and its verifier.

Measure one workload (closed loop, one caller, one process, no threads):

    python3 layerbench/run.py --workload silent-deep --seed 1 --seconds 20 --trace 0

Set-up is timed several times (fresh import each time) and reported as its
median.  Then whole rounds of the workload's operations run until --seconds
have passed; each operation's time is its median over rounds.  Every time is
in reference seconds (see speed.py).  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  --save DIR also writes that object, with
the unscaled times, to a result file in DIR.

Compare two directories of result files (parent and change):

    python3 layerbench/run.py --compare layerbench/results/parent layerbench/results/change
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

SETUP_REPEATS = 21


def _setup(workload, inputs, probe):
    """Import tadet and set up; returns the modules, the tadet automata and
    the clock readings around it."""
    t0 = probe.clock()
    lib = workloads.import_tadet(ROOT / "src")
    automata = workloads.setup(lib, workload, inputs)
    return lib, automata, (t0, probe.clock())


def _round(lib, workload, automata, samples, probe, note=""):
    tally = workloads.run_round(lib, workload, automata, samples, probe.clock)
    print(f"round{note}: unscaled pipeline_s={tally.pipeline_s:.3f} verify_s={tally.verify_s:.3f} "
          f"failed={tally.failed}/{tally.attempted}", file=sys.stderr)
    return tally


def _consistent(tallies) -> bool:
    """Every round produced the same outputs and replayed the same traces."""
    firsts = {(t.locations, t.transitions, t.guard_atoms, t.replayed) for t in tallies}
    return len(firsts) == 1 and tallies[0].replayed > 0


def _sum_of_medians(rounds, part: int, seconds) -> float:
    """Sum over operations of each one's median time across rounds, so a
    slow spell during one round moves the sum little.  ``part`` 0 is
    construction and emission, 1 the verifier calls."""
    per_op: dict[int, list[float]] = {}
    for t in rounds:
        for i, stamps in t.stamps.items():
            per_op.setdefault(i, []).append(seconds(stamps[part], stamps[part + 1]))
    return sum(statistics.median(v) for v in per_op.values())


def measure(workload, seed: int, seconds: float, probe: SpeedProbe):
    """Untraced rounds; returns them and ``metrics(seconds)``, the end-to-end
    metrics with intervals measured by ``seconds(start, end)``."""
    inputs = workloads.read_inputs(workload, ROOT / "models")
    setups = []
    for _ in range(SETUP_REPEATS):
        lib, automata, interval = _setup(workload, inputs, probe)
        setups.append(interval)
    workloads.add_corpus_references(lib, workload, inputs, automata)
    samples = workloads.Samples(inputs.references, seed)
    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(_round(lib, workload, automata, samples, probe, f" {len(rounds) + 1}"))
    first = rounds[0]

    def metrics(seconds):
        return {
            "setup_s": statistics.median(seconds(a, b) for a, b in setups),
            "pipeline_s": _sum_of_medians(rounds, 0, seconds),
            "verify_s": _sum_of_medians(rounds, 1, seconds),
            "output_locations": first.locations,
            "output_transitions": first.transitions,
            "output_guard_atoms": first.guard_atoms,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    return rounds, metrics


def _layer_metrics(tally, spans: dict) -> dict:
    m = dict(spans)
    otf, new = tally.location_share()
    m["determinize.on_the_fly.location_share"] = otf / new
    m["solver.is_satisfiable.true_share"] = spans["solver.is_satisfiable.true"] / spans["solver.is_satisfiable.calls"]
    m["solver.close.per_query"] = spans["solver.close.calls"] / (
        spans["solver.is_satisfiable.calls"] + spans["solver.difference_witness.calls"])
    return m


def _pipeline_seconds(tally, seconds) -> float:
    return sum(seconds(a, b) for a, b, _ in tally.stamps.values())


def measure_traced(workload, seed: int, seconds: float, probe: SpeedProbe):
    """Pairs of rounds, one untraced and one traced, until ``seconds`` have
    passed; returns every round and ``metrics(seconds)``, the per-layer
    metrics.  The overhead is the median over pairs of traced minus
    untraced ``pipeline_s``."""
    inputs = workloads.read_inputs(workload, ROOT / "models")
    tracer = Tracer(probe.clock)
    lib, automata, _ = _setup(workload, inputs, probe)
    tracer.install(lib)
    automata = workloads.setup(lib, workload, inputs)
    at_setup = tracer.take()
    tracer.uninstall()
    workloads.add_corpus_references(lib, workload, inputs, automata)
    samples = workloads.Samples(inputs.references, seed)
    start = time.perf_counter()
    pairs = []
    while not pairs or time.perf_counter() - start < seconds:
        base = _round(lib, workload, automata, samples, probe, f" {len(pairs) + 1}, untraced")
        tracer.install(lib)
        traced = _round(lib, workload, automata, samples, probe, f" {len(pairs) + 1}, traced")
        tracer.uninstall()
        pairs.append((base, traced, tracer.take()))

    def metrics(seconds):
        per_round = [_layer_metrics(t, summarize(*taken, seconds)) for _, t, taken in pairs]
        out = {name: statistics.median(r.get(name, 0) for r in per_round) for name in per_round[0]}
        out["modelio.parse_model.s"] = summarize(*at_setup, seconds)["modelio.parse_model.s"]
        out["bench.trace_overhead_s"] = statistics.median(
            _pipeline_seconds(t, seconds) - _pipeline_seconds(b, seconds) for b, t, _ in pairs)
        return out

    return [r for b, t, _ in pairs for r in (b, t)], metrics


def run(args, bench) -> int:
    if not (ROOT / "src" / "tadet").is_dir() or not (ROOT / "models").is_dir():
        print(f"tadet sources or models not found under {ROOT}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    with probe:
        if args.trace:
            tallies, metrics = measure_traced(workload, args.seed, args.seconds, probe)
            declared = bench["per_layer"]
        else:
            tallies, metrics = measure(workload, args.seed, args.seconds, probe)
            declared = bench["end_to_end"]
    values = metrics(probe.seconds)  # scaled once every kernel sample is in
    unscaled = metrics(lambda a, b: b - a)
    print(f"{len(probe.stamps)} kernel samples, mean {probe.prefix[-1] / len(probe.stamps) * 1000:.3f} ms",
          file=sys.stderr)
    result = {
        "correct": all(t.failed == 0 for t in tallies) and _consistent(tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    for name, v in result["metrics"].items():
        print(f"{name:42} {v['value']:>16.6g} {v['unit']}", file=sys.stderr)
    line = json.dumps(result)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result,
                  "unscaled": {m["name"]: unscaled[m["name"]] for m in declared if m["unit"] == "s"}}
        path = args.save / f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(line)
    return 0


# ---------------------------------------------------------------------------
# compare mode


def _load(directory: Path) -> dict:
    """(workload, trace) -> seed -> result, with each unscaled time added to
    the metrics as ``<name>.unscaled``."""
    out: dict = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        result = rec["result"]
        for name, value in rec.get("unscaled", {}).items():
            result["metrics"][f"{name}.unscaled"] = {"value": value, "unit": "s"}
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = result
    return out


def _quartiles(values: list) -> str:
    """``median [q1, q3]``."""
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent_dir: Path, change_dir: Path, bench) -> int:
    """Per workload and metric: both sides' median and quartiles, the change
    of the median, and the share of seed pairs the change won (ties count
    for neither side)."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    parent, change = _load(parent_dir), _load(change_dir)
    for key in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            continue
        p = [parent[key][s] for s in seeds]
        c = [change[key][s] for s in seeds]
        shares = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in (p, c)]
        print(f"\n## {key[0]}, trace {key[1]}: {len(seeds)} seed pairs; "
              f"failed share parent {shares[0]:.4f}, change {shares[1]:.4f}")
        print(f"{'metric':42} {'unit':6} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
              f"{'median':>8} {'won':>6}")
        for name, meta in p[0]["metrics"].items():
            if not all(name in r["metrics"] for r in c):
                continue
            pv = [r["metrics"][name]["value"] for r in p]
            cv = [r["metrics"][name]["value"] for r in c]
            sign = 1 if better[name.removesuffix(".unscaled")] == "higher" else -1
            won = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
            base = statistics.median(pv)
            moved = (statistics.median(cv) - base) / base if base else float("nan")
            print(f"{name:42} {meta['unit']:6} {_quartiles(pv):>36} {_quartiles(cv):>36} "
                  f"{moved:>+8.1%} {won:>3}/{len(seeds)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, help="also write the result to a file in this directory")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                    help="compare two directories of result files instead of measuring")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
