"""The layered benchmark's traced runs: every workload ends correct."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_is_correct(workload):
    # a traced run wraps every name in layerbench/tracing.py and reads each
    # per-layer metric of its first traced round, so a wrapped name that a
    # workload no longer calls fails it.  One round; -B writes no bytecode
    # next to the benchmark's files
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "layerbench" / "run.py"),
         "--workload", workload, "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    missing = {m["name"] for m in BENCHMARK["per_layer"]} - set(result["metrics"])
    assert not missing
