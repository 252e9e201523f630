"""scripts/benchmark.py: its --json record of a quick run, and --compare."""

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
