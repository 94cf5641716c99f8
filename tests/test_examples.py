"""Smoke-test the examples as subprocesses (they are user-facing docs).

``quickstart.py`` and ``cluster_scaling.py`` exercise both rails end to
end; the other examples are covered by their own unit-tested building
blocks and are too slow for the default test run.  The two scripts'
problem sizes are deliberately small (hand-coded in the scripts), so no
extra shrinking is needed here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"


def run_example(name: str, timeout: float = 600.0) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, (
        f"{name} failed (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
    )
    return proc.stdout


@pytest.mark.slow
def test_quickstart():
    out = run_example("quickstart.py")
    assert "plain Jacobi sweeps" in out
    assert "MLUP/s" in out


@pytest.mark.slow
def test_cluster_scaling():
    out = run_example("cluster_scaling.py")
    assert "distributed == single-domain reference" in out
    assert "pipelined 2PPN [weak]" in out


@pytest.mark.slow
def test_serving():
    out = run_example("serving.py")
    assert "cache hit: bit-identical result" in out
    assert "rank processes spawned" in out


@pytest.mark.slow
def test_engines():
    from repro.engine import available_engines

    out = run_example("engines.py")
    assert "bit-identical ✓" in out
    # The cross-engine demos need a second registered engine (numba).
    if len(available_engines()) > 1:
        assert "pure cache hit" in out
    else:
        assert "no second engine registered" in out


@pytest.mark.slow
def test_analysis():
    out = run_example("analysis.py")
    assert "paper default (4 stages, d_l=1, d_u=4): CERTIFIED" in out
    assert "drain deadlock: REJECTED" in out
    assert "witness interleaving" in out
    assert "validate='static' solve bit-identical to reference: True" in out
