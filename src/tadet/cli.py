"""Command-line pipeline driver.

Reads a model (JSON, or UPPAAL XML by extension), builds its stripped
unfolding to the requested depth as a DAG in one walk, optionally drops
the nodes that reach no accepting one, and determinizes the DAG with the
chosen variant (``std``, ``new`` or ``otf``).  It emits the result as JSON
or DOT, and writes a JSON report with each stage's sizes and timing.

Exit codes: 0 ok, 1 usage, 2 parse, 3 precondition, 4 resource limit,
5 equivalence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .core import (
    ResourceLimitError,
    StructuralError,
    TimedAutomaton,
    UnsupportedInputError,
)
from .determinize import (
    determinize_guard_oriented,
    determinize_on_the_fly,
    determinize_standard,
)
from .equivalence import language_equal
from .modelio import ParseError, UnsupportedXmlError, export_dot, parse_model, \
    import_uppaal_xml, serialize_model
from .silent import stripped_unfolding
from .unfold import Tree, prune_nonaccepting, unfold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_NOT_EQUIVALENT = 5

# the last stage of the pipeline, by variant
DETERMINIZERS = {
    "std": determinize_standard,
    "new": determinize_guard_oriented,
    "otf": determinize_on_the_fly,
}


@dataclass
class PipelineResult:
    final: Tree
    report: dict
    counterexample: Optional[dict] = None


def _load(path: str) -> TimedAutomaton:
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".xml"):
        return import_uppaal_xml(text)
    return parse_model(text)


def run_pipeline(
    a: TimedAutomaton,
    depth: int,
    variant: str = "new",
    prune_leaves: bool = False,
    check_equiv: bool = False,
) -> PipelineResult:
    """Build the stripped unfolding, prune it if asked, determinize it; timed stages."""
    determinize = DETERMINIZERS[variant]
    stages: list[dict] = []
    report = {"variant": variant, "depth": depth, "stages": stages}

    def record(name: str, sized: Tree, t0: float) -> None:
        stages.append({
            "name": name,
            "locations": sized.location_count(),
            "transitions": sized.transition_count(),
            "millis": round((time.perf_counter() - t0) * 1000, 3),
        })

    t0 = time.perf_counter()
    dag = stripped_unfolding(a, depth)
    if prune_leaves:
        prune_nonaccepting(dag)
    record("stripped-unfolding", dag, t0)
    t0 = time.perf_counter()
    final = determinize(dag)
    record(f"determinize-{variant}", final, t0)

    counterexample = None
    if check_equiv:
        t0 = time.perf_counter()
        # the raw unfolding puts renaming, removal and pruning under test
        verdict = language_equal(unfold(a, depth), final)
        # sized by the output, so the last stage always describes it
        record("check-equiv", final, t0)
        if not verdict.equal:
            counterexample = {
                "word": list(verdict.word),
                "times": [str(t) for t in verdict.times],
                "direction": verdict.direction,
            }
    return PipelineResult(final, report, counterexample)


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"code": kind, "message": message}}), file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tadet",
        description="Determinize bounded timed automata with silent transitions.",
    )
    parser.add_argument("--input", required=True, help="model file (.json or .xml)")
    parser.add_argument("--depth", type=int, required=True, help="unfolding depth k >= 1")
    parser.add_argument("--variant", choices=DETERMINIZERS, default="new")
    parser.add_argument("--prune-leaves", action="store_true",
                        help="after silent-step removal, drop nodes reaching no accepting node")
    parser.add_argument("--emit", choices=("json", "dot"),
                        help="write the determinized automaton to stdout")
    parser.add_argument("--check-equiv", action="store_true",
                        help="verify input/output language equality")
    parser.add_argument("--report", metavar="FILE",
                        help="write the JSON pipeline report here")
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    if args.depth < 1:
        return _fail(EXIT_USAGE, "usage", "--depth must be at least 1")

    try:
        model = _load(args.input)
    except OSError as e:  # missing, a directory, unreadable
        return _fail(EXIT_USAGE, "usage", str(e))
    except UnicodeDecodeError as e:
        return _fail(EXIT_PARSE, "parse", f"input is not UTF-8: {e}")
    except (ParseError, UnsupportedXmlError) as e:
        return _fail(EXIT_PARSE, "parse", str(e))

    try:
        result = run_pipeline(
            model, args.depth, args.variant, args.prune_leaves, args.check_equiv
        )
    except (StructuralError, UnsupportedInputError) as e:
        return _fail(EXIT_PRECONDITION, "precondition", str(e))
    except ResourceLimitError as e:
        return _fail(EXIT_RESOURCE, "resource-limit", str(e))
    except RecursionError as e:
        # the merge behind new and otf recurses along the unfolding's depth
        return _fail(EXIT_RESOURCE, "resource-limit", f"stack depth: {e}")

    if args.report:
        try:
            Path(args.report).write_text(
                json.dumps(result.report, indent=2) + "\n", encoding="utf-8"
            )
        except OSError as e:  # e.g. under a missing directory
            return _fail(EXIT_USAGE, "usage", str(e))
    if args.emit:
        out = result.final.to_automaton()
        sys.stdout.write(serialize_model(out) if args.emit == "json" else export_dot(out))
    if result.counterexample is not None:
        return _fail(
            EXIT_NOT_EQUIVALENT, "not-equivalent", json.dumps(result.counterexample)
        )
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
