"""The unified solver front-end: one call, interchangeable backends.

Shared-memory pipelined temporal blocking and the distributed hybrid
scheme execute the *same* algorithm — the difference is where the data
lives and how ghost values travel.  :func:`solve` makes that an argument
instead of an import decision::

    res = repro.solve(grid, field, cfg)                           # shared
    res = repro.solve(grid, field, cfg, topology=(2, 2, 1),
                      backend="simmpi")                           # 4 ranks
    res = repro.solve(grid, field, cfg, topology=(1, 1, 2),
                      backend="procmpi")                          # 2 processes

All calls return a :class:`~repro.core.pipeline.SolveResult`; on a
``(1, 1, 1)`` topology the backends produce bit-identical fields
(the degenerate distributed run has an empty exchange plan and drives
the identical executor schedule), and on any topology ``simmpi`` and
``procmpi`` are bit-identical to each other (same per-rank body, same
exchange plan — only the transport differs).

Backends
--------
``"shared"``
    One process, ``n`` teams of ``t`` threads (simulated stages) —
    :func:`repro.core.pipeline.run_pipelined`.
``"threads"``
    One process, one **real OS thread per pipeline stage**, gated by
    condition-variable sync counters — :func:`repro.threads.run_threaded`.
    Bit-identical to ``"shared"``; the schedule is certified by
    :func:`repro.analysis.assert_legal` unconditionally before any
    thread starts (a true-threads executor cannot rely on runtime
    interleaving checks alone).
``"simmpi"``
    One thread-backed simulated-MPI rank per subdomain —
    :func:`repro.dist.solver.distributed_jacobi_pipelined`.
``"procmpi"``
    One OS process per subdomain (:mod:`repro.dist.procmpi`), fields
    and halo rings in :mod:`multiprocessing.shared_memory` blocks —
    real rank overlap without an MPI installation.  A real MPI
    deployment implements the same :class:`repro.dist.comm.Comm`
    protocol (see :class:`repro.dist.comm.MPI4PyComm`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core.parameters import PipelineConfig
from .core.pipeline import SolveResult, run_pipelined
from .grid.grid3d import Grid3D
from .kernels.stencils import StarStencil
from .obs.metrics import trace_metrics
from .obs.tracer import NULL_TRACER, Tracer

__all__ = ["BACKENDS", "solve", "submit", "map_jobs"]

#: Execution backends understood by :func:`solve`.
BACKENDS = ("shared", "threads", "simmpi", "procmpi")


def _check_topology(topology: Optional[Sequence[int]]) -> Tuple[int, int, int]:
    if topology is None:
        return (1, 1, 1)
    if len(topology) != 3:
        raise ValueError(
            f"topology must be a (Pz, Py, Px) triple, got {topology!r}")
    topo = tuple(int(p) for p in topology)
    if any(p < 1 for p in topo):
        raise ValueError(f"topology extents must be >= 1, got {topo}")
    return topo  # type: ignore[return-value]


def solve(
    grid: Grid3D,
    field: np.ndarray,
    config: PipelineConfig,
    topology: Optional[Sequence[int]] = None,
    backend: str = "shared",
    stencil: Optional[StarStencil] = None,
    engine: Optional[str] = None,
    validate: Union[bool, str] = True,
    trace: bool = False,
) -> SolveResult:
    """Advance ``field`` by ``config.total_updates`` levels on ``backend``.

    Parameters
    ----------
    grid, field, config:
        The problem and the pipelined temporal-blocking parameters, same
        as :func:`~repro.core.pipeline.run_pipelined`.
    topology:
        Process grid ``(Pz, Py, Px)``; defaults to ``(1, 1, 1)``.  The
        shared backend is single-process and rejects anything else.
    backend:
        ``"shared"``, ``"threads"``, ``"simmpi"`` or ``"procmpi"``
        (see module docstring).
    stencil:
        Optional radius-1 star stencil (defaults to the 7-point Jacobi).
    engine:
        Optional kernel-execution engine name (:mod:`repro.engine`);
        overrides ``config.engine``.  Engines are bit-identical, so
        this changes throughput, never the result — every backend
        dispatches the same engine registry per rank.  ``"auto"``
        resolves to the measured-best engine for this host, storage
        scheme and grid size from the perf database
        (:mod:`repro.perf.db`) — the static default when no
        measurements apply, so it is always safe.
    validate:
        ``True`` (default) keeps the runtime coverage checks of the
        executor.  ``"static"`` first certifies the schedule with the
        :mod:`repro.analysis` happens-before checker — raising
        :class:`~repro.analysis.StaticAnalysisError` with a witness on
        an illegal schedule — and then runs with the per-pass runtime
        checks switched off (the proof replaces the assertions).
        ``False`` skips both.
    trace:
        ``True`` records an observability trace (:mod:`repro.obs`):
        spans for every pass/block/engine-apply and halo-exchange
        phase, merged across ranks onto one timeline, returned as
        ``result.trace`` with the flat summary in ``result.metrics``.
        Tracing never changes the numbers — the result is bit-identical
        with tracing on or off — and when left off the instrumentation
        reduces to a guard-variable check.

    Returns
    -------
    SolveResult
        With the same field layout regardless of backend; communication
        counters are zero for the shared backend.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    if engine == "auto":
        # Resolve eagerly from the measured perf database: the static
        # default engine when this host has no applicable measurements.
        from .perf.db import resolve_auto_engine

        engine = resolve_auto_engine(config.storage, grid.shape)
    if engine is not None and engine != config.engine:
        config = replace(config, engine=engine)
    topo = _check_topology(topology)
    if validate not in (True, False, "static"):
        raise ValueError(
            f"validate must be True, False or 'static', got {validate!r}")
    runtime_validate = bool(validate) and validate != "static"
    if validate == "static" and backend != "threads":
        # Prove the schedule race/deadlock-free before touching the
        # field; the executor's runtime checks are then redundant.  The
        # threads backend certifies unconditionally, so it is not asked
        # twice.  A StarStencil carries no radius: it is radius 1 by
        # construction.
        from . import analysis

        analysis.assert_legal(config, grid.shape, topo,
                              radius=getattr(stencil, "radius", 1))
    if backend in ("shared", "threads") and topo != (1, 1, 1):
        raise ValueError(
            f"the {backend} backend is single-process; topology {topo} "
            "needs backend='simmpi' or 'procmpi'")
    tracer = Tracer(pid=0, label="driver") if trace else NULL_TRACER
    with tracer.span("solve", cat="solve", backend=backend,
                     topo=f"{topo[0]}x{topo[1]}x{topo[2]}"):
        if backend == "shared":
            result = run_pipelined(grid, field, config, stencil=stencil,
                                   validate=runtime_validate, tracer=tracer)
        elif backend == "threads":
            # run_threaded runs assert_legal itself, unconditionally —
            # real threads never launch on an uncertified schedule, no
            # matter what ``validate`` says.
            from .threads import run_threaded

            result = run_threaded(grid, field, config, stencil=stencil,
                                  validate=runtime_validate, tracer=tracer)
        else:
            # Imported lazily: ``import repro`` does not load the
            # distributed rail.
            from .dist.solver import distributed_jacobi_pipelined

            result = distributed_jacobi_pipelined(
                grid, field, topo, config, stencil=stencil,
                transport=backend, validate=runtime_validate, tracer=tracer)
    if trace:
        result.trace = tracer.finish()
        result.metrics = trace_metrics(result.trace)
    return result


def submit(grid: Grid3D, field: np.ndarray,
           config: Union[PipelineConfig, str],
           topology: Optional[Sequence[int]] = None,
           backend: str = "shared",
           stencil: Optional[StarStencil] = None,
           priority: int = 0,
           engine: Optional[str] = None):
    """Queue a solve on the process-wide service; returns a future.

    The asynchronous sibling of :func:`solve` — same arguments, plus a
    scheduling ``priority``, and ``config`` may be ``"auto"`` to let the
    service autotune the pipeline parameters.  Runs through
    :mod:`repro.serve`: persistent worker pools (warm procmpi ranks),
    duplicate coalescing, batching and the content-addressed result
    cache.  ``future.result()`` returns the identical
    :class:`~repro.core.pipeline.SolveResult` a direct ``solve`` call
    would have produced — bit-identical when served from cache.  Since
    engines of one semantics class are bit-identical, jobs differing
    only in ``engine`` share one cache entry (exactly like transports).
    """
    from .serve import submit as _submit

    if engine is not None and engine != "auto":
        if not isinstance(config, PipelineConfig):
            raise ValueError(
                "a concrete engine cannot be combined with config='auto'; "
                "the autotuner resolves the full configuration (pass "
                "engines=... to repro.autotune for an engine sweep, or "
                "engine='auto' for the measured-best engine)")
        if engine != config.engine:
            config = replace(config, engine=engine)
        engine = None
    return _submit(grid, field, config, topology=topology, backend=backend,
                   stencil=stencil, priority=priority, engine=engine)


def map_jobs(jobs: Iterable, timeout: Optional[float] = None,
             ) -> List[SolveResult]:
    """Run many :class:`~repro.serve.SolveJob`\\ s; results in order.

    Exported as ``repro.map``.  Fail-fast: waits for every job, then
    raises the first failure in submission order.
    """
    from .serve import map_jobs as _map_jobs

    return _map_jobs(jobs, timeout=timeout)
