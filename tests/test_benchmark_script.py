"""scripts/benchmark.py --compare on two hand-written trajectory files."""

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
