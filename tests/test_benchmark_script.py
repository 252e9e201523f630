"""scripts/benchmark.py: its --json record of a quick run, and --compare."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "benchmark.py"


def record(otf_locations, otf_seconds):
    return {"configurations": [{
        "model": "m", "k": 2,
        "locations": {"unfolded": 8, "new": 7, "otf": otf_locations},
        "seconds": {"unfold": 0.5, "otf": otf_seconds},
    }]}


def compare(tmp_path, old, new):
    paths = []
    for name, rec in (("old.json", old), ("new.json", new)):
        (tmp_path / name).write_text(json.dumps(rec), encoding="utf-8")
        paths.append(str(tmp_path / name))
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", *paths],
                          capture_output=True, text=True)


def test_compare_prints_stage_ratios(tmp_path):
    run = compare(tmp_path, record(5, 2.0), record(5, 1.0))
    assert run.returncode == 0
    assert "| m | 2 | 1.00 | 0.50 |" in run.stdout


def test_compare_fails_on_a_location_count(tmp_path):
    run = compare(tmp_path, record(5, 2.0), record(6, 1.0))
    assert run.returncode == 1
    assert "locations differ, m k=2" in run.stdout


def test_quick_plan_records_every_report_stage(tmp_path):
    # one pass per configuration: every variant's run_pipeline report, each
    # stage keyed <variant>/<stage>
    out = tmp_path / "quick.json"
    run = subprocess.run([sys.executable, "-B", str(SCRIPT), "--json", str(out)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    configurations = json.loads(out.read_text(encoding="utf-8"))["configurations"]
    assert configurations
    for conf in configurations:
        keys = [f"{v}/{s}" for v in ("std", "new", "otf")
                for s in ("stripped-unfolding", f"determinize-{v}")]
        for field in ("locations", "seconds", "counters"):
            assert sorted(conf[field]) == sorted(keys)
        for key in keys:
            assert type(conf["locations"][key]) is int
            assert type(conf["seconds"][key]) is float
            calls = conf["counters"][key]
            assert sorted(calls) == ["close", "feasible_systems", "is_satisfiable"]
            assert all(type(n) is int for n in calls.values())
    same = subprocess.run([sys.executable, "-B", str(SCRIPT), "--compare", str(out), str(out)],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stdout


def test_compare_reads_locations_on_shared_stages_only(tmp_path):
    # a stage that only NEW has is printed, not counted as a difference
    new = record(5, 1.0)
    new["configurations"][0]["locations"]["check"] = 3
    new["configurations"][0]["check"] = {"new/check-equiv": {"seconds": 0.25}}
    run = compare(tmp_path, record(5, 2.0), new)
    assert run.returncode == 0, run.stdout
    assert "| m | 2 | 1.00 | 0.50 | - |" in run.stdout


def test_compare_fails_where_no_stage_is_shared(tmp_path):
    # records of two routes with different stage names cannot be compared
    old = record(5, 2.0)
    old["configurations"][0]["locations"] = {"det": 7}
    run = compare(tmp_path, old, record(5, 1.0))
    assert run.returncode == 1
    assert "m k=2: no stage in both" in run.stdout


def test_a_checked_configuration_records_each_variants_check():
    spec = importlib.util.spec_from_file_location("benchmark", SCRIPT)
    benchmark = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchmark)
    conf = benchmark.run_configuration(benchmark.NAMED_MODELS["nondet-silent-a"], 2, check=True)
    assert sorted(conf["check"]) == [f"{v}/check-equiv" for v in ("new", "otf", "std")]
    for check in conf["check"].values():
        assert check["equal"] is True
        assert type(check["seconds"]) is float
        assert sorted(check["counters"]) == ["close", "feasible_systems", "is_satisfiable"]
    assert all(not key.endswith("check-equiv") for key in conf["seconds"])
