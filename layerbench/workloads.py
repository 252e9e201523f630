"""The three workloads, their set-up and one operation of each.

An operation is one (model, depth, variant) configuration: the model is
taken through construction and JSON emission (timed as ``pipeline_s``),
then through the verifier calls it names (timed as ``verify_s``), then
through the benchmark's own checks (untimed).  All calls into tadet go
through module attributes, so the tracer's wrappers see them.
"""

from __future__ import annotations

import copy
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import oracle

MODULES = ("corpus", "unfold", "silent", "determinize", "equivalence", "solver", "modelio")


@dataclass(frozen=True)
class Mutation:
    """A copy of a model with one guard bound moved, and a trace that only
    the original accepts (derived by hand; see the README)."""

    transition: int
    atom: int
    const: int
    witness: tuple[tuple[str, str], ...]  # (time, action)

    def name(self, model: str) -> str:
        return f"{model}~t{self.transition}a{self.atom}={self.const}"


@dataclass(frozen=True)
class Op:
    model: str
    k: int
    variant: str  # "new", "otf" or "std"
    deterministic: bool = False  # check_deterministic(output) must hold
    equal: bool = False  # language_equal(renamed tree, output) must be equal
    grid: bool = False  # sample_traces on tree and output must agree
    sizes: Optional[tuple[int, int]] = None  # published (unfolded, determinized)
    mutant: Optional[Mutation] = None  # output vs the mutant's output: unequal

    @property
    def label(self) -> str:
        return f"{self.model} k={self.k} {self.variant}" + (" vs mutant" if self.mutant else "")


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    corpus: tuple[int, ...] = ()  # corpus.random_automaton seeds drawn in set-up


SILENT_A, SILENT_B = "nondet-silent-a", "nondet-silent-b"
PLAIN_C, SILENT_D = "nondet-plain-c", "nondet-silent-d"

# Fixed corpus window, so every run measures the same work: the cost of one
# random automaton ranges from 1 ms to 34 s (corpus seed 7), so a draw that
# changed with --seed would swing pipeline_s and verify_s many times over.
CORPUS = tuple(range(12, 32))

PAIRS = (
    (PLAIN_C, 4, Mutation(3, 0, 2, (("1/2", "alpha"), ("1", "alpha")))),
    (SILENT_A, 3, Mutation(0, 0, 2, (("1", "alpha"),))),
    ("sync-chain", 2, Mutation(2, 0, 5, (("7/2", "alpha"), ("11/2", "alpha")))),
    ("coffee-machine", 3, Mutation(4, 0, 2, (("0", "coin"), ("3/2", "beep"), ("5/2", "coffee")))),
)

WORKLOADS = {
    "silent-deep": Workload(ops=(
        Op(SILENT_A, 9, "new", deterministic=True, sizes=(1278, 1023)),
        Op(SILENT_A, 9, "otf", deterministic=True),
        Op(SILENT_A, 10, "new", deterministic=True),
        Op(SILENT_A, 5, "new", equal=True),
        Op(SILENT_A, 5, "otf", equal=True),
        Op(SILENT_A, 5, "std", deterministic=True, equal=True, grid=True),
    )),
    "merge-deep": Workload(ops=(
        Op(SILENT_B, 6, "new"),
        Op(SILENT_B, 6, "otf"),
        Op(PLAIN_C, 25, "new", sizes=(51, 38)),
        Op(PLAIN_C, 25, "otf"),
        Op(SILENT_B, 4, "new", deterministic=True, equal=True),
        Op(SILENT_B, 4, "otf", deterministic=True, equal=True),
        Op(PLAIN_C, 6, "new", deterministic=True, equal=True),
        Op(PLAIN_C, 5, "std", deterministic=True, equal=True, grid=True),
    )),
    "verify-sweep": Workload(
        ops=tuple(
            Op(f"random-{s}", 2 + s % 3, v, deterministic=True, equal=True, grid=s % 10 == 0)
            for s in CORPUS for v in ("new", "std", "otf")
        ) + (
            Op(PLAIN_C, 7, "new", deterministic=True, equal=True),
            Op(SILENT_D, 5, "new", deterministic=True, equal=True),
        ) + tuple(Op(m, k, "new", mutant=mut) for m, k, mut in PAIRS),
        corpus=CORPUS,
    ),
}


# ---------------------------------------------------------------------------
# set-up


def import_tadet(src: Path) -> SimpleNamespace:
    """Import tadet afresh (module code runs again) and return its modules."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "tadet" or n.startswith("tadet.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"tadet.{m}") for m in MODULES})


@dataclass
class Inputs:
    """The benchmark's own reading of the inputs, made once per run, untimed."""

    texts: dict[str, str]  # model name -> "ta/1" text, mutants included
    references: dict[str, oracle.Automaton]  # the same models, read by oracle


def read_inputs(workload: Workload, models_dir: Path) -> Inputs:
    """Read every bundled model and write the mutants' documents."""
    texts: dict[str, str] = {}
    docs: dict[str, dict] = {}
    for path in sorted(models_dir.glob("*.json")):
        texts[path.stem] = path.read_text(encoding="utf-8")
        docs[path.stem] = json.loads(texts[path.stem])
    for op in workload.ops:
        if op.mutant is not None:
            doc = copy.deepcopy(docs[op.model])
            doc["transitions"][op.mutant.transition]["guard"][op.mutant.atom]["const"] = op.mutant.const
            docs[op.mutant.name(op.model)] = doc
            texts[op.mutant.name(op.model)] = json.dumps(doc)
    return Inputs(texts, {name: oracle.read_model(doc) for name, doc in docs.items()})


def setup(lib, workload: Workload, inputs: Inputs) -> dict[str, object]:
    """Parse every model with tadet and draw the corpus automata: the timed
    set-up.  Returns tadet automata by model name."""
    automata = {name: lib.modelio.parse_model(text) for name, text in inputs.texts.items()}
    for s in workload.corpus:
        automata[f"random-{s}"] = lib.corpus.random_automaton(s)
    return automata


def add_corpus_references(lib, workload: Workload, inputs: Inputs, automata: dict) -> None:
    """Read the drawn corpus automata into ``inputs`` through their emitted
    JSON, as the outputs are read."""
    for s in workload.corpus:
        name = f"random-{s}"
        inputs.references[name] = oracle.read_model(json.loads(lib.modelio.serialize_model(automata[name])))


# ---------------------------------------------------------------------------
# one operation


@dataclass
class Tally:
    """What one round of operations produced."""

    locations: int = 0
    transitions: int = 0
    guard_atoms: int = 0
    replayed: int = 0  # sampled traces replayed on outputs
    attempted: int = 0
    failed: int = 0
    by_variant: dict = field(default_factory=dict)  # (model, k) -> {variant: locations}
    stamps: dict = field(default_factory=dict)  # op index -> (start, built, verified)

    @property
    def pipeline_s(self) -> float:
        """Unscaled seconds of construction and emission."""
        return sum(b - a for a, b, _ in self.stamps.values())

    @property
    def verify_s(self) -> float:
        """Unscaled seconds of the verifier calls."""
        return sum(c - b for _, b, c in self.stamps.values())

    def add_output(self, out: oracle.Automaton) -> None:
        self.locations += out.locations
        self.transitions += out.transitions
        self.guard_atoms += out.guard_atoms

    def location_share(self) -> tuple[int, int]:
        """(otf locations, new locations) over configurations that ran both."""
        both = [v for v in self.by_variant.values() if "otf" in v and "new" in v]
        return sum(v["otf"] for v in both), sum(v["new"] for v in both)


class Samples:
    """Accepted traces of each input, drawn once per (model, depth) from the seed."""

    def __init__(self, references: dict[str, oracle.Automaton], seed: int):
        self.references = references
        self.seed = seed
        self.cache: dict[tuple[str, int], list] = {}

    def get(self, model: str, k: int) -> list:
        key = (model, k)
        if key not in self.cache:
            rng = random.Random(f"{self.seed}/{model}/{k}")
            self.cache[key] = oracle.sample_traces(self.references[model], k, rng)
        return self.cache[key]


def _build(lib, automaton, k: int, variant: str):
    """Renamed tree (None for otf) and determinized output."""
    if variant == "otf":
        return None, lib.determinize.pipeline_on_the_fly(automaton, k)
    tree = lib.unfold.rename_clocks(lib.unfold.unfold(automaton, k))
    stripped = lib.silent.remove_all_silent(tree)
    if variant == "new":
        return tree, lib.determinize.determinize_guard_oriented(stripped)
    return tree, lib.determinize.determinize_standard(stripped)


def _replay_samples(out: oracle.Automaton, traces: list) -> int:
    for trace in traces:
        oracle.accepts_exactly(out, trace)
    return len(traces)


def run_op(lib, op: Op, automata: dict, samples: Samples, tally: Tally, clock) -> tuple[float, float, float]:
    """Run one operation; raise on any error or failed check.

    Returns the ``clock`` readings at its start, after construction and
    emission, and after the verifier calls."""
    model = automata[op.model]
    mutant = automata[op.mutant.name(op.model)] if op.mutant else None
    ref = None
    if op.variant == "otf" and (op.equal or op.grid):
        # The verifier's reference tree is not part of otf's pipeline: untimed.
        ref = lib.unfold.rename_clocks(lib.unfold.unfold(model, op.k))

    t0 = clock()
    tree, det = _build(lib, model, op.k, op.variant)
    text = lib.modelio.serialize_model(det.to_automaton())
    if mutant is not None:
        _, det_m = _build(lib, mutant, op.k, op.variant)
        text_m = lib.modelio.serialize_model(det_m.to_automaton())
    t1 = clock()
    verdicts = {}
    if op.deterministic:
        verdicts["check_deterministic"] = lib.determinize.check_deterministic(det)
    if op.equal or op.grid:
        if ref is None:
            ref = tree
        if op.equal:
            verdicts["language_equal"] = lib.equivalence.language_equal(ref, det).equal
        if op.grid:
            d = len(model.clocks) + 1
            verdicts["sample_traces"] = (
                lib.equivalence.sample_traces(ref, d) == lib.equivalence.sample_traces(det, d)
            )
    if mutant is not None:
        pair = lib.equivalence.language_equal(det, det_m)
    t2 = clock()

    for name, ok in verdicts.items():
        if not ok:
            raise oracle.OracleError(f"{name} gave the wrong verdict")
    out = oracle.read_model(json.loads(text))
    replayed = _replay_samples(out, samples.get(op.model, op.k))
    if op.sizes is not None:
        got = (len(tree.nodes), out.locations)
        if got != op.sizes:
            raise oracle.OracleError(f"sizes {got}, published {op.sizes}")
    if mutant is not None:
        out_m = oracle.read_model(json.loads(text_m))
        replayed += _replay_samples(out_m, samples.get(op.mutant.name(op.model), op.k))
        _check_pair(pair, out, out_m, op.mutant)
        tally.add_output(out_m)
    tally.add_output(out)
    tally.by_variant.setdefault((op.model, op.k), {})[op.variant] = out.locations
    tally.replayed += replayed
    return t0, t1, t2


def _check_pair(result, out: oracle.Automaton, out_m: oracle.Automaton, mut: Mutation) -> None:
    if result.equal:
        raise oracle.OracleError("known-unequal pair judged equal")
    ce = tuple((Fraction(t), a) for t, a in result.counterexample_trace().events)
    left, right = oracle.replay(out, ce), oracle.replay(out_m, ce)
    if left == right:
        raise oracle.OracleError(
            f"counterexample {oracle.format_trace(ce)} accepted by {'both' if left else 'neither'}"
        )
    if left != (result.direction == "left-only"):
        raise oracle.OracleError(f"counterexample side {result.direction} disagrees with replay")
    witness = tuple((Fraction(t), a) for t, a in mut.witness)
    if not oracle.replay(out, witness) or oracle.replay(out_m, witness):
        raise oracle.OracleError(f"witness {oracle.format_trace(witness)} not original-only")


def run_round(lib, workload: Workload, automata: dict, samples: Samples, clock) -> Tally:
    """Every operation once, timed with ``clock``."""
    tally = Tally()
    for i, op in enumerate(workload.ops):
        tally.attempted += 1
        try:
            tally.stamps[i] = run_op(lib, op, automata, samples, tally, clock)
        except Exception as e:  # an operation fails; the round goes on
            tally.failed += 1
            print(f"FAILED {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
    return tally
