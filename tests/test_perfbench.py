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
    if trace == "1":
        # The tracer rebinds functions by name in each module; the CLI looks
        # up each family's design and audit functions when it calls them, so
        # the spans it dispatches to must read time.
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        timed = {"mc-l1l2": ["design.design_l1l2.us"],
                 "mc-greedy": ["design.design_l0.us"],
                 "audit": ["design.design_l1l2.us", "design.design_l0.us",
                           "cli.build_controller.ms",
                           "design.audit_value_sandwich.ms",
                           "design.audit_contraction_l1l2.ms",
                           "design.audit_contraction_l0.us",
                           "design.audit_residual_l0.us"]}[workload]
        assert [name for name in timed if not metrics[name] > 0] == [], \
            metrics
