"""Command-line pipeline driver.

Reads a model (JSON, or UPPAAL XML by extension), unfolds it to the
requested depth, removes silent transitions, determinizes with the chosen
variant and emits the result as JSON or DOT together with a JSON report of
per-stage sizes and timings.

Exit codes: 0 ok, 1 usage, 2 parse, 3 precondition, 4 resource limit,
5 equivalence failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
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
    determinize_standard,
    pipeline_on_the_fly,
)
from .equivalence import language_equal
from .modelio import ParseError, UnsupportedXmlError, export_dot, parse_model, \
    import_uppaal_xml, serialize_model
from .silent import remove_all_silent
from .unfold import Tree, rename_clocks, unfold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_NOT_EQUIVALENT = 5

VARIANTS = ("std", "new", "otf")
_PRUNE_OTF_MESSAGE = "--prune-leaves cannot be combined with --variant otf"


@dataclass
class StageReport:
    name: str
    locations: int
    transitions: int
    millis: float


@dataclass
class PipelineReport:
    variant: str
    depth: int
    stages: list[StageReport] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "depth": self.depth,
            "stages": [
                {
                    "name": s.name,
                    "locations": s.locations,
                    "transitions": s.transitions,
                    "millis": round(s.millis, 3),
                }
                for s in self.stages
            ],
        }


@dataclass
class PipelineResult:
    final: Tree
    report: PipelineReport
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
    """Unfold, rename, remove silent steps and determinize; timed stages."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    if variant == "otf" and prune_leaves:
        raise ValueError(_PRUNE_OTF_MESSAGE)
    report = PipelineReport(variant=variant, depth=depth)

    def record(name: str, sized: Tree, t0: float) -> None:
        report.stages.append(StageReport(
            name, sized.location_count(), sized.transition_count(),
            (time.perf_counter() - t0) * 1000,
        ))

    def staged(name: str, f, *args):
        t0 = time.perf_counter()
        out = f(*args)
        record(name, out, t0)
        return out

    if variant == "otf":
        final = staged("on-the-fly", pipeline_on_the_fly, a, depth)
        tree = None
    else:
        tree = rename_clocks(staged("unfold", unfold, a, depth, prune_leaves))
        removed = staged("remove-silent", remove_all_silent, tree)
        if variant == "new":
            final = staged("determinize-new", determinize_guard_oriented, removed)
        else:
            final = staged("determinize-std", determinize_standard, removed)

    counterexample = None
    if check_equiv:
        t0 = time.perf_counter()
        # removal copies its input, so the staged tree is still the reference
        reference = tree if tree is not None else rename_clocks(unfold(a, depth))
        verdict = language_equal(reference, final)
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
    parser.add_argument("--variant", choices=VARIANTS, default="new")
    parser.add_argument("--prune-leaves", action="store_true",
                        help="drop non-accepting unfolding leaves "
                             "(std and new only; rejected with --variant otf)")
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
    if args.variant == "otf" and args.prune_leaves:
        return _fail(EXIT_USAGE, "usage", _PRUNE_OTF_MESSAGE)

    try:
        model = _load(args.input)
    except FileNotFoundError as e:
        return _fail(EXIT_USAGE, "usage", str(e))
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
        # the pipeline's stages recurse along the unfolding's depth
        return _fail(EXIT_RESOURCE, "resource-limit", f"stack depth: {e}")

    if args.report:
        Path(args.report).write_text(
            json.dumps(result.report.to_json(), indent=2) + "\n", encoding="utf-8"
        )
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
