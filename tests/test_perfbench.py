"""Smoke test: the benchmark harness in ``perfbench/`` runs on this checkout.

The harness drives the CLI in-process on its committed configs and, when
tracing, wraps package functions by name, so renaming one of them or
rejecting a key of those configs breaks it.  Every workload runs, traced
and untraced.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["mc-l1l2", "mc-greedy", "audit"])
def test_harness_runs_and_checks_out(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0.1",
         "--trace", trace],
        capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
