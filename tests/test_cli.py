"""Pipeline driver: exit codes, reports, artifact determinism."""

import json
from pathlib import Path

import pytest

from tadet.cli import (
    EXIT_NOT_EQUIVALENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    main,
    run_pipeline,
)
from tadet.corpus import coffee_machine
from tadet.modelio import parse_model, serialize_model
from tadet.unfold import unfold

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


def test_prune_leaves_with_otf_is_usage_error(capsys):
    # the on-the-fly pipeline unfolds without pruning, so the flag would be
    # ignored while --check-equiv built a pruned reference
    argv = ["--input", COFFEE, "--depth", "3", "--variant", "otf", "--prune-leaves"]
    assert main(argv) == EXIT_USAGE
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["code"] == "usage" and "--prune-leaves" in error["message"]
    with pytest.raises(ValueError):
        run_pipeline(coffee_machine(), 3, "otf", prune_leaves=True)
    assert main(argv[:-1]) == EXIT_OK


def test_missing_input_is_usage_error(tmp_path):
    assert main(["--input", str(tmp_path / "nope.json"), "--depth", "2"]) == EXIT_USAGE


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


def test_location_invariant_is_precondition_error(tmp_path, capsys):
    doc = json.loads(Path(COFFEE).read_text())
    doc["locations"][0]["invariant"] = [{"left": "x", "rel": "<=", "const": 1}]
    path = tmp_path / "invariant.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path), "--depth", "2"]) == EXIT_PRECONDITION
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "precondition"


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
    built = {"std": "determinize-std", "new": "determinize-new", "otf": "on-the-fly"}[variant]
    assert [s["name"] for s in stages][-2:] == [built, "check-equiv"]
    # the check is sized by the output it verified, like the stage before it
    for s in stages[-2:]:
        assert (s["locations"], s["transitions"]) == (
            len(emitted.locations), len(emitted.transitions))
    assert stages[-1]["millis"] >= 0


@pytest.mark.parametrize("variant", ["std", "new", "otf"])
def test_check_equiv_unfolds_once(variant, monkeypatch):
    # std and new compare against the tree they staged; only otf, which
    # stages no tree, builds the reference
    import tadet.cli as cli

    calls = []

    def counted(*args):
        calls.append(args)
        return unfold(*args)

    monkeypatch.setattr(cli, "unfold", counted)
    result = cli.run_pipeline(coffee_machine(), 3, variant, check_equiv=True)
    assert result.counterexample is None
    assert len(calls) == 1


def test_run_pipeline_counterexample_surfaces_as_exit_5(tmp_path, monkeypatch):
    # sabotage the acceptance flag of the determinized output via variant
    # mismatch: compare against a deeper reference by hand
    import tadet.cli as cli

    result = cli.run_pipeline(coffee_machine(), 3, "new", check_equiv=True)
    assert result.counterexample is None

    def broken_equal(a, b, k=None):
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
