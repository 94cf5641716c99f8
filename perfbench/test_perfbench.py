"""Self-test of the benchmark: every workload at minimal length.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about two minutes on a 2-core host).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Tuple

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
sys.path.insert(0, str(HERE))

from run import HOST_DEPENDENT  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> Tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5",
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else {})


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc, res = bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in
            SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    for name, unit in spec.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines()), name
    if not trace:
        for name, unit in HOST_DEPENDENT.items():
            assert any(line.split()[:2] == ["#", name] and f" {unit} " in line
                       for line in proc.stdout.splitlines()), name
    values = {k: v["value"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values()), values
    elif workload == "node-large":
        shares = [values[f"threads.{k}_share"]
                  for k in ("engine", "storage", "sync", "core")]
        assert sum(shares) == pytest.approx(1.0)
        assert values["sync.waits"] > 0 and values["analysis.calls"] > 0
    assert "failed_frac 0.0000" in proc.stdout


def test_a_wrong_field_fails_the_run() -> None:
    proc, res = bench("--workload", "node-small", "--trace", "0",
                      "--inject-wrong-field")
    assert proc.returncode != 0
    assert res["correct"] is False and res["failed"] == 1
    assert "failed_frac 0.0000" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, res = bench("--workload", "node-small", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert res == {}


def session_members(sid: int) -> list:
    """Raw command lines of the processes in session ``sid`` (``/proc``)."""
    out = []
    for pid in Path("/proc").iterdir():
        try:
            fields = (pid / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[3]) == sid:
                out.append((pid / "cmdline").read_bytes())
        except (OSError, ValueError, IndexError):
            continue
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_running() -> None:
    # procmpi starts multiprocessing's resource tracker, which would
    # otherwise outlive the run for a moment.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5",
         "--workload", "cluster-halo", "--trace", "0"], cwd=ROOT,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=600) == 0
    assert session_members(proc.pid) == []


def test_inputs_follow_the_seed() -> None:
    from workloads import NODE_SMALL, SERVE_ZIPF

    a, b = NODE_SMALL.problem(3), NODE_SMALL.problem(3)
    assert np.array_equal(a.field, b.field) and a.boundary == b.boundary
    assert not np.array_equal(a.field, NODE_SMALL.problem(4).field)
    assert SERVE_ZIPF.epoch_requests(3, 0) == SERVE_ZIPF.epoch_requests(3, 0)
    assert SERVE_ZIPF.epoch_requests(3, 0) != SERVE_ZIPF.epoch_requests(4, 0)
