"""Pipeline driver: exit codes, reports, artifact determinism."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tadet.cli import (
    EXIT_NOT_EQUIVALENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    run_pipeline,
)
from tadet import solver
from tadet.core import guard_atoms
from tadet.corpus import NAMED_MODELS, random_automaton
from tadet.determinize import (
    check_deterministic,
    determinize_guard_oriented,
    determinize_standard,
)
from tadet.equivalence import language_equal
from tadet.modelio import parse_model, serialize_model
from tadet.silent import remove_all_silent
from tadet.unfold import rename_clocks, unfold

from dags import path_count

coffee_machine = NAMED_MODELS["coffee-machine"]

MODELS = Path(__file__).resolve().parent.parent / "models"
COFFEE = str(MODELS / "coffee-machine.json")


def test_ok_run_with_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "--input", COFFEE, "--depth", "4", "--variant", "new",
        "--emit", "json", "--report", str(report),
    ])
    assert code == EXIT_OK
    emitted = parse_model(capsys.readouterr().out)
    doc = json.loads(report.read_text())
    assert doc["variant"] == "new" and doc["depth"] == 4
    final = doc["stages"][-1]
    assert final["locations"] == len(emitted.locations)
    assert final["transitions"] == len(emitted.transitions)


def test_artifacts_are_deterministic(capsys):
    main(["--input", COFFEE, "--depth", "3", "--emit", "json"])
    first = capsys.readouterr().out
    main(["--input", COFFEE, "--depth", "3", "--emit", "json"])
    assert capsys.readouterr().out == first


def test_check_equiv_passes_on_pipeline_output():
    assert main([
        "--input", COFFEE, "--depth", "3", "--variant", "std", "--check-equiv"
    ]) == EXIT_OK


def test_depth_zero_is_usage_error():
    assert main(["--input", COFFEE, "--depth", "0"]) == EXIT_USAGE


def test_prune_leaves_with_check_equiv_for_every_variant():
    # every variant determinizes the pruned stripped unfolding; the check
    # compares it with the raw unfolding
    for variant in ("std", "new", "otf"):
        assert main([
            "--input", COFFEE, "--depth", "3", "--variant", variant,
            "--prune-leaves", "--check-equiv",
        ]) == EXIT_OK
        # at depth 2 every leaf is a non-accepting coin.beep
        pruned = run_pipeline(coffee_machine(), 2, variant, prune_leaves=True)
        assert pruned.final.location_count() == 1


def test_prune_leaves_does_not_decide_support(tmp_path, capsys):
    # the non-accepting a.b branch reads the silent step's clock z inside a
    # disjunction, which removal does not support; pruning runs on the
    # stripped unfolding, after removal, so it cannot hide that branch
    def atom(clock, rel, const):
        return {"left": clock, "rel": rel, "const": const}

    doc = {
        "format": "ta/1",
        "clocks": ["x", "y", "z"],
        "locations": [{"id": f"q{i}", "accepting": i == 4} for i in range(5)],
        "initial": "q0",
        "transitions": [
            {"source": "q0", "target": "q1", "action": "a", "guard": [], "resets": ["x"]},
            {"source": "q1", "target": "q2", "action": "eps",
             "guard": [atom("x", ">=", 1)], "resets": ["z"]},
            {"source": "q2", "target": "q3", "action": "b",
             "guard": [{"any": [atom("z", "<", 1), atom("y", "<", 1)]}], "resets": []},
            {"source": "q0", "target": "q4", "action": "c", "guard": [], "resets": []},
        ],
    }
    path = tmp_path / "pruned.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--prune-leaves"]):
        assert main(["--input", str(path), "--depth", "2", *flags]) == EXIT_PRECONDITION
        assert json.loads(capsys.readouterr().err)["error"]["code"] == "precondition"


SWEEP = [(make(), k) for make in NAMED_MODELS.values() for k in range(1, 6)] + [
    (random_automaton(seed), k) for seed in range(100, 140) for k in (2, 3)]


def _staged(a, k):
    return remove_all_silent(rename_clocks(unfold(a, k)))


def test_new_on_the_dag_gives_the_staged_bytes():
    # the merge reads the stripped unfolding as it reads the staged tree;
    # otf on the DAG is pipeline_on_the_fly, which test_determinize pins
    for a, k in SWEEP:
        final = run_pipeline(a, k, "new").final
        assert serialize_model(final.to_automaton()) == serialize_model(
            determinize_guard_oriented(_staged(a, k)).to_automaton())


def _atoms(t):
    return sum(len(guard_atoms(tr.guard)) for tr in t.transitions)


def test_standard_on_the_dag_is_no_larger():
    # two tree copies that are one DAG node are one member, so a region's
    # guard may lose a repeated conjunct and a location may be shared more
    smaller = 0
    for a, k in SWEEP:
        final = run_pipeline(a, k, "std").final
        staged = determinize_standard(_staged(a, k))
        assert path_count(final) == path_count(staged)
        assert final.location_count() <= staged.location_count()
        assert _atoms(final) <= _atoms(staged)
        assert language_equal(unfold(a, k), final).equal
        assert check_deterministic(final)
        smaller += _atoms(final) < _atoms(staged)
    assert smaller > 0


def test_otf_runs_deep_on_the_dag(tmp_path):
    # the staged tree would have about 2.7e9 nodes at this depth
    report = tmp_path / "report.json"
    assert main([
        "--input", str(MODELS / "nondet-silent-a.json"), "--depth", "30",
        "--variant", "otf", "--report", str(report),
    ]) == EXIT_OK
    dag, final = json.loads(report.read_text())["stages"]
    assert dag["name"] == "stripped-unfolding"
    assert (dag["locations"], dag["transitions"]) == (931, 1365)
    assert final["locations"] == 467


def test_missing_input_is_usage_error(tmp_path):
    assert main(["--input", str(tmp_path / "nope.json"), "--depth", "2"]) == EXIT_USAGE


def test_input_directory_is_usage_error(tmp_path, capsys):
    assert main(["--input", str(tmp_path), "--depth", "2"]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "usage"


def test_non_utf8_input_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(Path(COFFEE).read_text(encoding="utf-8").replace("q0", "q\xe9").encode("latin-1"))
    assert main(["--input", str(bad), "--depth", "2"]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


def test_report_under_missing_directory_is_usage_error(tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    assert main(["--input", COFFEE, "--depth", "2", "--report", str(report)]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "usage"


def test_bad_json_is_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["--input", str(bad), "--depth", "2"]) == EXIT_PARSE


def test_silent_loop_is_precondition_error(tmp_path):
    doc = {
        "format": "ta/1",
        "clocks": ["x"],
        "locations": [{"id": "q0", "accepting": True}, {"id": "q1", "accepting": False}],
        "initial": "q0",
        "transitions": [
            {"source": "q0", "target": "q1", "action": "eps", "guard": [], "resets": ["x"]},
            {"source": "q1", "target": "q0", "action": "eps", "guard": [], "resets": ["x"]},
        ],
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--depth", "2"]) == EXIT_PRECONDITION


def test_location_invariant_is_parse_error(tmp_path, capsys):
    doc = json.loads(Path(COFFEE).read_text())
    doc["locations"][0]["invariant"] = [{"left": "x", "rel": "<=", "const": 1}]
    path = tmp_path / "invariant.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--depth", "2"]) == EXIT_PARSE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "parse"
    assert error["message"].startswith("$.locations[0].invariant:")


def test_silent_clock_in_future_disjunction_is_precondition_error(tmp_path, capsys):
    def atom(clock, rel, const):
        return {"left": clock, "rel": rel, "const": const}

    doc = {
        "format": "ta/1",
        "clocks": ["x", "z"],
        "locations": [{"id": f"q{i}", "accepting": i == 3} for i in range(4)],
        "initial": "q0",
        "transitions": [
            {"source": "q0", "target": "q1", "action": "a", "guard": [], "resets": ["x"]},
            {"source": "q1", "target": "q2", "action": "eps",
             "guard": [atom("x", ">=", 1)], "resets": ["z"]},
            {"source": "q2", "target": "q3", "action": "b",
             "guard": [atom("x", "<", 5), {"any": [atom("z", "<", 1), atom("z", ">", 3)]}],
             "resets": []},
        ],
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--depth", "2", "--check-equiv"]) == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "precondition"


# one accepting location with a self-loop a under x <= 1 that resets x
LOOP = {
    "format": "ta/1",
    "clocks": ["x"],
    "locations": [{"id": "q", "accepting": True}],
    "initial": "q",
    "transitions": [{"source": "q", "target": "q", "action": "a",
                     "guard": [{"left": "x", "rel": "<=", "const": 1}], "resets": ["x"]}],
}


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_deep_loop_builds_every_level(variant, tmp_path, capsys):
    # every stage of every variant runs from an explicit stack, so the
    # unfolding's depth is not bounded by Python's
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(LOOP))
    argv = ["--input", str(path), "--depth", "1100", "--variant", variant, "--emit", "json"]
    assert main(argv) == EXIT_OK
    assert len(parse_model(capsys.readouterr().out).locations) == 1101


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_stack_depth_is_resource_limit(variant, monkeypatch, capsys):
    # running out of stack is a resource limit, not a traceback
    import tadet.cli as cli

    def too_deep(tree):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(cli.DETERMINIZERS, variant, too_deep)
    assert main(["--input", COFFEE, "--depth", "2", "--variant", variant]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["code"] == "resource-limit" and "stack depth" in error["message"]


def test_deeply_nested_guard_is_parse_error(tmp_path, capsys):
    atom = json.dumps(LOOP["transitions"][0]["guard"][0])
    nested = '{"all": [' * 600 + atom + "]}" * 600
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(LOOP).replace(atom, nested))
    assert main(["--input", str(path), "--depth", "2"]) == EXIT_PARSE
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "parse"


def test_branch_limit_is_resource_limit(monkeypatch, capsys):
    # with no branch allowed, the first guard search already stops
    monkeypatch.setattr(solver, "DEFAULT_DNF_LIMIT", 0)
    assert main(["--input", COFFEE, "--depth", "3", "--variant", "std"]) == EXIT_RESOURCE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "resource-limit" and "branches" in error["message"]


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_report_has_check_equiv_stage(variant, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "--input", COFFEE, "--depth", "3", "--variant", variant,
        "--emit", "json", "--check-equiv", "--report", str(report),
    ])
    assert code == EXIT_OK
    emitted = parse_model(capsys.readouterr().out)
    stages = json.loads(report.read_text())["stages"]
    assert [s["name"] for s in stages] == [
        "stripped-unfolding", f"determinize-{variant}", "check-equiv"]
    # the check is sized by the output it verified, like the stage before it
    for s in stages[-2:]:
        assert (s["locations"], s["transitions"]) == (
            len(emitted.locations), len(emitted.transitions))
    assert stages[-1]["millis"] >= 0


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_check_equiv_unfolds_once(variant, monkeypatch):
    # every variant compares against the raw unfolding, which only the
    # check builds
    import tadet.cli as cli

    calls = []

    def counted(*args):
        calls.append(args)
        return unfold(*args)

    monkeypatch.setattr(cli, "unfold", counted)
    result = cli.run_pipeline(coffee_machine(), 3, variant, check_equiv=True)
    assert result.counterexample is None
    assert len(calls) == 1
    cli.run_pipeline(coffee_machine(), 3, variant)
    assert len(calls) == 1


def test_run_pipeline_counterexample_surfaces_as_exit_5(tmp_path, monkeypatch):
    # sabotage the acceptance flag of the determinized output via variant
    # mismatch: compare against a deeper reference by hand
    import tadet.cli as cli

    result = cli.run_pipeline(coffee_machine(), 3, "new", check_equiv=True)
    assert result.counterexample is None

    def broken_equal(a, b):
        class R:
            equal = False
            word = ("coin",)
            times = (1,)
            direction = "left-only"
        return R()

    monkeypatch.setattr(cli, "language_equal", broken_equal)
    path = tmp_path / "m.json"
    path.write_text(serialize_model(coffee_machine()))
    assert main(["--input", str(path), "--depth", "2", "--check-equiv"]) == EXIT_NOT_EQUIVALENT


def test_emit_dot_and_smt2(capsys):
    assert main(["--input", COFFEE, "--depth", "3", "--emit", "dot"]) == EXIT_OK
    assert "digraph" in capsys.readouterr().out
    # smt2 lost the word (a disjunction over all words): no longer offered
    assert main(["--input", COFFEE, "--depth", "3", "--emit", "smt2"]) == EXIT_USAGE


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_report_calls_match_the_tracer(variant, monkeypatch):
    # the solver's own counters agree with layerbench's tracer, which wraps
    # the same functions from outside, over every stage of one run.  The
    # tracer's source is executed in a fresh namespace, so nothing is
    # written next to it
    import importlib
    from types import SimpleNamespace

    import tadet.cli as cli

    path = Path(__file__).resolve().parent.parent / "layerbench" / "tracing.py"
    tracing: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing)
    tracer = tracing["Tracer"](lambda: 0.0)
    traced = []

    def stage(fn):
        def run(*args):
            tracer.take()
            out = fn(*args)
            counts = tracer.take()[1]
            traced.append({f: counts.get(f"solver.{f}.calls", 0)
                           for f in ("is_satisfiable", "feasible_systems", "close")})
            return out
        return run

    monkeypatch.setattr(cli, "stripped_unfolding", stage(cli.stripped_unfolding))
    monkeypatch.setitem(cli.DETERMINIZERS, variant, stage(cli.DETERMINIZERS[variant]))
    monkeypatch.setattr(cli, "language_equal", stage(cli.language_equal))
    lib = SimpleNamespace(**{m: importlib.import_module(f"tadet.{m}") for m in (
        "unfold", "silent", "determinize", "equivalence", "solver", "modelio")})
    tracer.install(lib)
    try:
        result = cli.run_pipeline(NAMED_MODELS["nondet-silent-b"](), 4, variant, check_equiv=True)
    finally:
        tracer.uninstall()
    assert result.counterexample is None
    stages = result.report["stages"]
    assert [s["name"] for s in stages] == [
        "stripped-unfolding", f"determinize-{variant}", "check-equiv"]
    assert [s["calls"] for s in stages] == traced
    assert any(n for s in stages for n in s["calls"].values())


def test_not_equivalent_payload_keeps_its_keys(tmp_path, monkeypatch, capsys):
    # exit 5 reports the separating word, its times and the direction
    import tadet.cli as cli

    def broken_equal(a, b):
        class R:
            equal = False
            word = ("coin",)
            times = (1,)
            direction = "left-only"
        return R()

    monkeypatch.setattr(cli, "language_equal", broken_equal)
    assert main(["--input", COFFEE, "--depth", "2", "--check-equiv"]) == EXIT_NOT_EQUIVALENT
    error = json.loads(capsys.readouterr().err)["error"]
    assert sorted(error) == ["code", "message"]
    assert error["code"] == "not-equivalent"
    assert json.loads(error["message"]) == {
        "word": ["coin"], "times": ["1"], "direction": "left-only"}


# both clocks of the diagonal are reset on the same edge, so it reads 0
DIAGONAL_RESET_TOGETHER = json.dumps({
    "format": "ta/1", "clocks": ["y", "z"],
    "locations": [{"id": "q0"}, {"id": "q1"}, {"id": "q2", "accepting": True}],
    "initial": "q0",
    "transitions": [
        {"source": "q0", "target": "q1", "action": "a", "resets": ["y", "z"]},
        {"source": "q1", "target": "q2", "action": "b",
         "guard": [{"left": "z", "rel": "<=", "const": 3, "right": "y"}]},
    ],
})


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_check_equiv_on_a_diagonal_reset_together(tmp_path, variant):
    path = tmp_path / "diagonal.json"
    path.write_text(DIAGONAL_RESET_TOGETHER)
    assert main([
        "--input", str(path), "--depth", "2", "--variant", variant, "--check-equiv"
    ]) == EXIT_OK


@st.composite
def _guard_nodes(draw, clocks, depth=2):
    """A "ta/1" guard node: an atom, diagonal or not, or a nested all/any."""
    if depth and draw(st.integers(0, 3)) == 0:
        parts = draw(st.lists(_guard_nodes(clocks, depth - 1), max_size=3))
        return {draw(st.sampled_from(["all", "any"])): parts}
    left = draw(st.sampled_from(clocks))
    atom = {"left": left, "rel": draw(st.sampled_from(["<", "<=", "=", ">=", ">"])),
            "const": draw(st.integers(0, 3))}
    others = [c for c in clocks if c != left]
    if others and draw(st.booleans()):
        atom["right"] = draw(st.sampled_from(others))
    return atom


@st.composite
def _ta_documents(draw):
    """A small "ta/1" document: 1-3 clocks, at most 4 locations and 5
    transitions, with diagonals, nested guards and eps edges."""
    clocks = ["x", "y", "z"][:draw(st.integers(1, 3))]
    ids = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    transitions = [{
        "source": draw(st.sampled_from(ids)),
        "target": draw(st.sampled_from(ids)),
        "action": draw(st.sampled_from(["a", "b", "eps"])),
        "guard": draw(st.lists(_guard_nodes(clocks), max_size=2)),
        "resets": draw(st.lists(st.sampled_from(clocks), max_size=2, unique=True)),
    } for _ in range(draw(st.integers(0, 5)))]
    return json.dumps({
        "format": "ta/1", "clocks": clocks,
        "locations": [{"id": q, "accepting": draw(st.booleans())} for q in ids],
        "initial": "q0", "transitions": transitions,
    })


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=_ta_documents(), depth=st.integers(1, 3),
       variant=st.sampled_from(["std", "new", "otf"]), check=st.booleans())
@example(text=DIAGONAL_RESET_TOGETHER, depth=2, variant="new", check=True)
def test_random_models_end_in_an_exit_code(text, depth, variant, check):
    # every input ends in a documented exit code; a failure is one JSON
    # error object on stderr, never a traceback
    argv = ["--depth", str(depth), "--variant", variant]
    if check and depth <= 2:
        argv.append("--check-equiv")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(text)
        with contextlib.redirect_stderr(err):
            code = main(["--input", str(path), *argv])
    assert code in range(6)
    if code:
        (line,) = err.getvalue().splitlines()
        assert sorted(json.loads(line)["error"]) == ["code", "message"]
