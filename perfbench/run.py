"""Host wall-clock benchmark of ``repro``: four workloads, timed from outside.

Usage::

    python3 perfbench/run.py --workload node-large --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark drives the public API
(``repro.solve``, ``repro.Service``) on seeded inputs, checks every
result bit-for-bit against ``repro.kernels.reference_sweeps`` (itself
checked against the benchmark's own sweep), and prints one line per
metric followed by a JSON object as the last line of stdout.  With
``--trace 0`` the metrics are the gated end-to-end ones, preceded by
``#`` lines with the host-dependent rates and latencies; ``--trace 1``
wraps the layers' entry points with timing shims (see ``ledger.py``)
and prints the per-layer ledger instead, writing its spans to
``.perfbench_work/trace-<workload>-seed<seed>.json``.

The exit code is 0 only if every result was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import numpy as np  # noqa: E402

from floors import (  # noqa: E402
    BYTES_PER_LUP, COPY_BYTES, Sweeper, cache_sizes, copy_label,
    stream_copy_gbs)
from ledger import Recorder, install, layer_metrics  # noqa: E402
from procs import become_subreaper, stop_all  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Problem, ServeWorkload, SolverWorkload, rng_for,
    setup_problem)

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 5

#: A set-up probe that takes longer than this counts as failed.
SETUP_TIMEOUT_S = 30

#: Group size of :func:`median_of_mins`.
MIN_OF = 3

#: Gated end-to-end metrics.  Wall-clock rates and latencies on a shared
#: 2-vCPU host move by a quarter between runs minutes apart, as a
#: co-tenant takes one core or gives it back; the speed-up over a plain
#: sweep on as many cores cancels that, so it is the gated speed metric.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "speedup_vs_sweep": "x",
    "peak_rss_mb": "MB",
}

#: Printed with every untraced run, not gated: they follow the host.
HOST_DEPENDENT: Dict[str, str] = {
    "mlups": "MLUP/s",
    "jobs_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "floor_mlups": "MLUP/s",
}

PER_LAYER: Dict[str, str] = {
    "api.self_s": "s/req",
    "analysis.certify_s": "s/req",
    "analysis.calls": "count/req",
    "core.self_s": "s/req",
    "core.blocks": "count/req",
    "core.empty_block_frac": "frac",
    "storage.init_s": "s/req",
    "storage.gather_s": "s/req",
    "storage.gather_calls": "count/req",
    "storage.write_s": "s/req",
    "storage.extract_s": "s/req",
    "engine.apply_s": "s/req",
    "engine.self_s": "s/req",
    "engine.calls": "count/req",
    "engine.cells": "count/req",
    "engine.gbs_computed": "GB/s",
    "engine.frac_of_stream": "frac",
    "sync.wait_s": "s/req",
    "sync.waits": "count/req",
    "threads.stage_s": "s/req",
    "threads.engine_share": "frac",
    "threads.storage_share": "frac",
    "threads.sync_share": "frac",
    "threads.core_share": "frac",
    "dist.setup_s": "s/req",
    "dist.job_s": "s/req",
    "dist.teardown_s": "s/req",
    "dist.bytes_exchanged": "B/req",
    "dist.messages": "count/req",
    "dist.exchange_wait_s": "s/req",
    "serve.key_s": "s/req",
    "serve.cache.get_s": "s/req",
    "serve.cache.put_s": "s/req",
    "serve.cache.hit_ratio": "frac",
    "serve.cache.disk_hits": "count/req",
    "serve.pool.acquire_s": "s/req",
    "serve.backend_solves": "count/req",
    "serve.queue_wait_s": "s/req",
    "floor.sweep_mlups": "MLUP/s",
    "floor.stream_gbs": "GB/s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Outcome:
    """Counts, metric values and report notes of one run."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


@dataclass
class Injector:
    """Corrupts the first result it sees (for the benchmark's self-test)."""

    armed: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __call__(self, out: np.ndarray) -> np.ndarray:
        with self._lock:
            if not self.armed:
                return out
            self.armed = False
        bad = np.array(out, copy=True)
        bad.flat[0] += 1.0
        return bad


def median(xs: List[float]) -> float:
    return float(np.median(xs))


def median_of_mins(xs: List[float], k: int = MIN_OF) -> float:
    """Median over consecutive groups of ``k`` samples of each group's minimum.

    Throughput and ratios use this: a co-tenant stealing the CPU only
    ever adds time, so the fastest of a few neighbouring samples tracks
    the program, and the median over groups tracks the run.
    """
    groups = [min(xs[i:i + k]) for i in range(0, len(xs) - k + 1, k)]
    return median(groups) if groups else min(xs)


def percentile_ms(latencies: List[float], q: float) -> float:
    """``q``-th percentile in ms; failed requests count as infinitely slow."""
    return float(np.percentile(latencies, q)) * 1e3


def beyond(latencies: List[float], q: float) -> int:
    """Samples above the ``q``-th percentile."""
    cut = np.percentile(latencies, q)
    return sum(1 for x in latencies if x > cut)


def timed_loop(seconds: float, step: Callable[[int], None],
               min_steps: int = 1) -> None:
    """Call ``step(i)`` until ``seconds`` have passed and ``min_steps`` ran."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_steps or time.perf_counter() < deadline:
        step(i)
        i += 1


# ---------------------------------------------------------------------------
# Solver workloads
# ---------------------------------------------------------------------------

def measure_solver(wl: SolverWorkload, seed: int, seconds: float,
                   trace: bool, corrupt: Injector, out: Outcome) -> None:
    problem = wl.problem(seed)
    problem.compute_reference()
    grid = problem.grid()
    config = wl.config()
    floor = Sweeper(problem.field, problem.boundary, wl.floor_cores)
    lups = wl.cells * wl.levels
    # Warm-up: lazy imports and first-call set-up happen outside timing.
    out.count(problem.check(wl.solve(grid, problem, config).field))

    def solve_checked(program_trace: bool = False) -> Tuple[object, float, bool]:
        t0 = time.perf_counter()
        try:
            res = wl.solve(grid, problem, config, trace=program_trace)
        except Exception:  # noqa: BLE001 - a failed request, counted
            traceback.print_exc(file=sys.stderr)
            res = None
        wall = time.perf_counter() - t0
        ok = res is not None and problem.check(corrupt(res.field))
        out.count(ok)
        return res, wall, ok

    if not trace:
        walls: List[float] = []
        latencies: List[float] = []
        floor_walls: List[float] = []

        def step(i: int) -> None:
            _, wall, ok = solve_checked()
            walls.append(wall)
            latencies.append(wall if ok else math.inf)
            floor_walls.append(floor.run(wl.levels)[1])

        timed_loop(seconds, step)
        mlups = lups / median_of_mins(walls) / 1e6
        floor_mlups = floor.mlups(wl.levels, median_of_mins(floor_walls))
        out.metrics.update({
            "speedup_vs_sweep": mlups / floor_mlups,
            "mlups": mlups,
            "jobs_per_s": sum(map(math.isfinite, latencies)) / sum(walls),
            "latency_ms.p50": percentile_ms(latencies, 50),
            "latency_ms.tail": percentile_ms(latencies, wl.tail),
            "floor_mlups": floor_mlups,
        })
        out.notes.append(
            f"{len(walls)} timed solves of {wl.n}^3 x {wl.levels} levels, "
            f"each followed by the plain sweep on {wl.floor_cores} core(s); "
            f"latency_ms.tail = p{wl.tail} ({beyond(latencies, wl.tail)} "
            "solves beyond it)")
        return

    rec = Recorder()
    # Program tracing is on only where a layer's numbers exist nowhere
    # else: the ranks' exchange waits live in the procmpi children.
    program_trace = wl.solve_kwargs.get("backend") == "procmpi"
    plain: List[float] = []
    traced: List[float] = []
    counts = {"blocks": 0, "empty": 0, "bytes": 0, "messages": 0,
              "exchange_wait_s": 0.0}

    def step(i: int) -> None:
        if i % 2 == 0:
            plain.append(solve_checked()[1])
            return
        patches = install(rec)
        rec.request = i
        try:
            res, wall, _ = rec.request_span(i, solve_checked, program_trace)
        finally:
            patches.undo()
            rec.request = None
        traced.append(wall)
        if res is None:
            return
        counts["blocks"] += res.stats.block_ops
        counts["empty"] += res.stats.empty_block_ops
        counts["bytes"] += res.bytes_exchanged
        counts["messages"] += res.messages
        counts["exchange_wait_s"] += res.metrics.get("exchange_wait_s", 0.0)

    timed_loop(seconds, step, min_steps=2)
    n = len(traced)
    floor_s = min(floor.run(wl.levels)[1] for _ in range(MIN_OF))
    out.metrics.update(layer_metrics(rec, n))
    out.metrics.update({
        "core.blocks": counts["blocks"] / n,
        "core.empty_block_frac": counts["empty"] / max(counts["blocks"], 1),
        "dist.bytes_exchanged": counts["bytes"] / n,
        "dist.messages": counts["messages"] / n,
        "dist.exchange_wait_s": counts["exchange_wait_s"] / n,
        "serve.cache.hit_ratio": 0.0,
        "serve.cache.disk_hits": 0.0,
        "serve.backend_solves": 0.0,
        "serve.queue_wait_s": 0.0,
        "floor.sweep_mlups": floor.mlups(wl.levels, floor_s),
        "trace.overhead_frac": median(traced) / median(plain) - 1.0,
    })
    finish_trace(rec, wl.name, seed, out, n)


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------

def measure_serve(wl: ServeWorkload, seed: int, seconds: float, trace: bool,
                  corrupt: Injector, run_dir: Path, out: Outcome) -> None:
    svc = wl.service(run_dir / "cache")
    try:
        run_epochs(wl, svc, seed, seconds, trace, corrupt, out)
    finally:
        svc.close()


def service_counts(svc) -> Dict[str, int]:
    cache = svc.cache
    return {"hits": cache.hits, "misses": cache.misses,
            "disk_hits": cache.disk_hits,
            "backend_solves": svc.stats.backend_solves}


def run_epochs(wl: ServeWorkload, svc, seed: int, seconds: float,
               trace: bool, corrupt: Injector, out: Outcome) -> None:
    config = wl.config()
    # Warm-up: one job per backend (the procmpi session spawns here).
    warm_rng = rng_for(seed, 3)
    for b in range(len(wl.backends)):
        p = Problem.generate(warm_rng, wl.n, wl.levels)
        p.compute_reference()
        res = wl.submit(svc, p.grid(), p, config, b).result(timeout=60)
        out.count(p.check(res.field))
    svc.cache.clear(disk=True)

    rec = Recorder() if trace else None
    latencies: List[float] = []
    fp = wl.floor_problem(seed)
    floor = Sweeper(fp.field, fp.boundary, wl.floor_cores)
    floor_walls: List[float] = []
    epoch_walls: List[List[float]] = [[], []]  # untraced, traced
    jobs = [0, 0]
    epoch_rates: List[float] = []  # verified jobs / s, untraced epochs
    served = {"blocks": 0, "empty": 0, "bytes": 0, "messages": 0,
              "hits": 0, "misses": 0, "disk_hits": 0, "backend_solves": 0}
    epoch = 0
    while True:
        problems = wl.epoch_problems(seed, epoch)
        for p in problems:
            p.compute_reference()
        grids = [p.grid() for p in problems]
        requests = wl.epoch_requests(seed, epoch)
        floor_walls.extend(floor.run(wl.levels)[1] for _ in range(MIN_OF))
        svc.cache.clear(disk=True)
        tracing = trace and epoch % 2 == 1
        results: List[List[tuple]] = [[] for _ in requests]

        def job(k: int, b: int) -> tuple:
            fut = wl.submit(svc, grids[k], problems[k], config, b)
            res = fut.result(timeout=60)
            return fut, res, problems[k].check(corrupt(res.field))

        def client(c: int) -> None:
            for j, (k, b) in enumerate(requests[c]):
                t0 = time.perf_counter()
                try:
                    if tracing:
                        fut, res, ok = rec.request_span(
                            epoch * 100_000 + c * 1_000 + j, job, k, b)
                    else:
                        fut, res, ok = job(k, b)
                except Exception:  # noqa: BLE001 - a failed request, counted
                    traceback.print_exc(file=sys.stderr)
                    fut = res = None
                    ok = False
                results[c].append((time.perf_counter() - t0, ok, fut, res))

        if tracing:
            patches = install(rec)
            before = service_counts(svc)
        threads = [threading.Thread(target=client, args=(c,),
                                    name=f"perfbench-client-{c}")
                   for c in range(wl.clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        if tracing:
            patches.undo()
            for key, value in service_counts(svc).items():
                served[key] += value - before[key]
        epoch_walls[tracing].append(wall)
        if not tracing:
            epoch_rates.append(sum(ok for r in results for _, ok, _, _ in r)
                               / wall)
        for per_client in results:
            for lat, ok, fut, res in per_client:
                out.count(ok)
                jobs[tracing] += 1
                if not tracing:
                    latencies.append(lat if ok else math.inf)
                elif ok and not (fut.cache_hit or fut.coalesced):
                    served["blocks"] += res.stats.block_ops
                    served["empty"] += res.stats.empty_block_ops
                    served["bytes"] += res.bytes_exchanged
                    served["messages"] += res.messages
        epoch += 1
        if trace:
            if epoch_walls[0] and epoch_walls[1] and \
                    sum(epoch_walls[0]) + sum(epoch_walls[1]) >= seconds:
                break
        elif sum(epoch_walls[0]) >= seconds:
            break

    floor_mlups = floor.mlups(wl.levels, median_of_mins(floor_walls))
    if not trace:
        # Delivered updates: every verified job counts its cells x levels,
        # whether a backend computed it or the cache returned it.
        jobs_per_s = median(epoch_rates)
        mlups = jobs_per_s * wl.cells * wl.levels / 1e6
        out.metrics.update({
            "speedup_vs_sweep": mlups / floor_mlups,
            "mlups": mlups,
            "jobs_per_s": jobs_per_s,
            "latency_ms.p50": percentile_ms(latencies, 50),
            "latency_ms.tail": percentile_ms(latencies, wl.tail),
            "floor_mlups": floor_mlups,
        })
        out.notes.append(
            f"{epoch} epochs, {len(latencies)} jobs from {wl.clients} "
            f"closed-loop clients; each epoch preceded by the plain sweep "
            f"of {wl.floor_n}^3 x {wl.levels} levels on {wl.floor_cores} "
            "cores; "
            f"latency_ms.tail = p{wl.tail} ({beyond(latencies, wl.tail)} "
            "jobs beyond it)")
        return

    n = jobs[1]
    hits, misses = served["hits"], served["misses"]
    out.metrics.update(layer_metrics(rec, n))
    out.metrics.update({
        "core.blocks": served["blocks"] / n,
        "core.empty_block_frac": served["empty"] / max(served["blocks"], 1),
        "dist.bytes_exchanged": served["bytes"] / n,
        "dist.messages": served["messages"] / n,
        "dist.exchange_wait_s": 0.0,
        "serve.cache.hit_ratio": hits / max(hits + misses, 1),
        "serve.cache.disk_hits": served["disk_hits"] / n,
        "serve.backend_solves": served["backend_solves"] / n,
        "floor.sweep_mlups": floor_mlups,
        "trace.overhead_frac": (median(epoch_walls[1]) / median(epoch_walls[0])
                                - 1.0),
    })
    finish_trace(rec, wl.name, seed, out, n)


def finish_trace(rec: Recorder, name: str, seed: int, out: Outcome,
                 requests: int) -> None:
    gbs = stream_copy_gbs()
    label, llc = copy_label()
    out.metrics["floor.stream_gbs"] = gbs
    apply_gbs = out.metrics["engine.gbs_computed"]
    out.metrics["engine.frac_of_stream"] = apply_gbs / gbs
    path = WORK / f"trace-{name}-seed{seed}.json"
    kept, dropped = rec.write(path)
    out.notes.append(
        f"{requests} traced requests; {kept} spans kept ({dropped} dropped) "
        f"in {path.relative_to(ROOT)}")
    out.notes.append(
        f"floor.stream_gbs: {label} copy of two {COPY_BYTES >> 20} MiB "
        f"arrays (LLC {llc >> 20} MiB; caches {cache_summary()}); "
        f"engine.gbs_computed assumes {BYTES_PER_LUP} B/LUP (computed, "
        "not measured)")


def cache_summary() -> str:
    return ", ".join(f"{k} {v >> 10} KiB" for k, v in cache_sizes().items())


# ---------------------------------------------------------------------------
# Set-up time and memory
# ---------------------------------------------------------------------------

def measure_setup(wl, seed: int, run_dir: Path, out: Outcome) -> None:
    problem = setup_problem(wl, seed)
    problem.compute_reference()
    npz = run_dir / "setup-problem.npz"
    problem.save(npz)
    times: List[float] = []
    for i in range(SETUP_REPEATS):
        probe_dir = run_dir / f"setup-{i}"
        probe_dir.mkdir()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), wl.name,
                 str(npz), str(probe_dir)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out.count(False)
            continue
        ok = proc.returncode == 0
        if ok:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = bool(res["ok"])
            times.append(res["setup_s"])
        else:
            sys.stderr.write(proc.stderr)
        out.count(ok)
    out.metrics["setup_s"] = median(times) if times else math.nan
    out.notes.append(
        f"setup_s: median of {len(times)} fresh interpreters, "
        "import repro -> first verified result")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong-field", action="store_true",
                    help="corrupt one result (checks the benchmark's checks)")
    return ap.parse_args(argv)


def run(args: argparse.Namespace) -> Outcome:
    wl = WORKLOADS[args.workload]
    corrupt = Injector(armed=args.inject_wrong_field)
    out = Outcome()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if isinstance(wl, ServeWorkload):
            measure_serve(wl, args.seed, args.seconds, bool(args.trace),
                          corrupt, run_dir, out)
        else:
            measure_solver(wl, args.seed, args.seconds, bool(args.trace),
                           corrupt, out)
        if not args.trace:
            # Read before the set-up probes, whose interpreters are
            # children too.
            out.metrics["peak_rss_mb"] = peak_rss_mb()
            measure_setup(wl, args.seed, run_dir, out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return out


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    become_subreaper()
    try:
        out = run(args)
    finally:
        # Every process the run started ends before the result is printed.
        killed = stop_all()
    if killed:
        print(f"perfbench: killed {killed} process(es) that outlived the run",
              file=sys.stderr)
        out.count(False)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": out.metrics[name], "unit": unit}
               for name, unit in units.items()}
    correct = out.failed == 0
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{out.attempted} results checked, {out.failed} failed "
          f"(failed_frac {out.failed / max(out.attempted, 1):.4f})")
    for note in out.notes:
        print(f"# {note}")
    if not args.trace:
        for name, unit in HOST_DEPENDENT.items():
            print(f"# {name:<22} {out.metrics[name]:>14.6g} {unit} "
                  "(host-dependent, not gated)")
    for name, m in metrics.items():
        print(f"{name:<24} {m['value']:>14.6g} {m['unit']}")
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
