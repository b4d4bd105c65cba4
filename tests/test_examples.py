"""Smoke tests: the example scripts must run cleanly end to end.

The heavyweight scenarios (the Fig. 10 grid sweep inside
``beamforming_case_study.py``) are exercised by the benchmark suite
instead; these tests cover the examples a new user runs first.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "worked_example.py",
    "binary_deployment.py",
    "design_flow.py",
    "service_simulation.py",
    "plan_commit.py",
    "online_admission.py",
    "fault_tolerance.py",
    "custom_objectives.py",
]


def run_example(script: str) -> subprocess.CompletedProcess:
    # deprecations are errors here, so no example can teach one
    return subprocess.run(
        [
            sys.executable,
            "-W", "error::DeprecationWarning",
            str(EXAMPLES / script),
        ],
        capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = run_example(script)
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-1500:]}\n{result.stderr[-1500:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_quickstart_output_contract():
    result = run_example("quickstart.py")
    assert "execution layout" in result.stdout
    assert "bootstrap plan" in result.stdout
    assert "utilization 0.0%" in result.stdout  # released cleanly


def test_plan_commit_output_contract():
    result = run_example("plan_commit.py")
    assert "resources held: none" in result.stdout
    assert "replanned=True" in result.stdout      # the epoch-conflict demo
    assert "utilization 0.0%" in result.stdout    # released cleanly


def test_worked_example_shows_iterations():
    result = run_example("worked_example.py")
    assert "i = 0 (anchor):" in result.stdout
    assert "i = 1:" in result.stdout
    assert "final placement:" in result.stdout
