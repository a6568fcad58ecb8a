"""Smoke test of the benchmark client: every name it calls in the library
still exists and answers as it expects.  The run writes only under the
gitignored ``perfbench/out/``."""

import json
import subprocess
import sys
from pathlib import Path


def test_all_workloads_run_correctly_for_one_second():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
