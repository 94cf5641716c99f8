"""Distributed-memory solvers: multi-halo Jacobi and the hybrid scheme.

Two front-ends, both returning the unified
:class:`~repro.core.pipeline.SolveResult`:

* :func:`distributed_jacobi_sweeps` — the paper's Sect. 2.1 scheme in
  isolation: exchange ``h`` ghost layers, run ``h`` plain Jacobi updates
  where update ``s`` covers a region ``h − s`` layers larger than the
  core (the shrinking trapezoid), repeat.  Ground truth for the hybrid
  scheme and the cheapest way to see the ghost-cell expansion work.

* :func:`distributed_jacobi_pipelined` — the paper's headline hybrid:
  every rank drives the *shared-memory* pipelined executor
  (:class:`~repro.core.executor.PipelineExecutor`) over its trapezoid via
  the executor's ``active_fn`` hook, with ``h = n·t·T`` chosen so one
  executor pass consumes exactly one halo exchange.  Between passes the
  ranks run the 3-phase ghost-cell-expansion exchange of
  :mod:`repro.dist.exchange` over a :class:`~repro.dist.comm.Comm`.

Both front-ends run on either **transport**: ``"simmpi"`` executes one
thread per rank (:func:`repro.dist.simmpi.run_ranks`), ``"procmpi"`` one
OS process per rank (:func:`repro.dist.procmpi.run_procs`) with the
global field, the assembled result and the halo rings living in
:mod:`multiprocessing.shared_memory` blocks.  The per-rank algorithm is
*one* function shared by both transports (:func:`_sweeps_rank_body` /
:func:`_pipelined_rank_body`), so the transports cannot diverge — the
cross-backend differential battery in ``tests/test_backend_equivalence``
pins them bit-identical to each other.

Every ghost cell a rank updates is *also* updated by its owner from the
same inputs, so the redundant trapezoid work is bit-consistent across
ranks and the assembled field matches the single-domain solver to
floating-point accuracy — which ``tests/test_dist.py`` pins at 1e-13.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.executor import ExecutionStats, PipelineExecutor
from ..core.parameters import PipelineConfig
from ..core.pipeline import SolveResult
from ..engine import get_engine
from ..grid.grid3d import DirichletBoundary, Grid3D
from ..grid.region import Box
from ..kernels.jacobi import jacobi7
from ..kernels.stencils import StarStencil
from ..obs.tracer import NULL_TRACER, Tracer
from .comm import Comm
from .decomp import CartesianDecomposition
from .exchange import ExchangeEntry, exchange_plan
from .procmpi import ProcMPIError, ProcWorld
from .shm import ShmArrayHandle, ShmPool, attach_array
from .simmpi import run_ranks

__all__ = ["TRANSPORTS", "ProcSolverSession", "distributed_jacobi_sweeps",
           "distributed_jacobi_pipelined"]

Coord = Tuple[int, int, int]

#: Rank transports understood by the distributed front-ends.
TRANSPORTS = ("simmpi", "procmpi")


def _check_transport(transport: str) -> None:
    if transport not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {transport!r}; choose from {TRANSPORTS}")


def _shifted_boundary(boundary: DirichletBoundary, off: Coord) -> DirichletBoundary:
    """The global Dirichlet ring expressed in rank-local coordinates.

    Per-face constants translate unchanged (a stored face either *is* the
    matching global face or is never read); a spatially varying ``func``
    needs its coordinates shifted back to global.
    """
    if boundary.func is None:
        return DirichletBoundary(boundary.default, faces=dict(boundary.faces))
    oz, oy, ox = off

    def shifted(z: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
        return boundary.func(z + oz, y + oy, x + ox)

    return DirichletBoundary(boundary.default, faces=dict(boundary.faces),
                             func=shifted)


def _run_exchange(comm: Comm, plan: List[ExchangeEntry],
                  extract: Callable[[Box], np.ndarray],
                  inject: Callable[[Box, np.ndarray], None],
                  tracer: Tracer = NULL_TRACER) -> Tuple[int, int]:
    """One full 3-phase ghost exchange; returns (bytes_sent, messages).

    Within a phase all sends are issued before any receive — sends are
    buffered (copy-on-send), so this cannot deadlock regardless of rank
    interleaving.  Phases are ordered (dim 0, 1, 2) because later phases
    forward the ghost data received in earlier ones (Fig. 4).

    When traced, each non-empty phase becomes a span, every send bumps
    the ``exchange.bytes``/``exchange.messages`` counters, and each
    blocking receive gets an ``exchange.recv_wait`` span — the wait-time
    signal :func:`repro.obs.trace_metrics` aggregates per solve.
    """
    nbytes = 0
    messages = 0
    for dim in range(3):
        phase = [e for e in plan if e[0] == dim]
        if not phase:
            continue
        with tracer.span("exchange.phase", cat="dist", dim=dim,
                         entries=len(phase)):
            for (_, _, peer, send, _) in phase:
                vals = extract(send)
                comm.send(peer, vals)
                nbytes += vals.nbytes
                messages += 1
                tracer.count("exchange.bytes", vals.nbytes)
                tracer.count("exchange.messages")
            for (_, _, peer, _, recv) in phase:
                with tracer.span("exchange.recv_wait", cat="dist", peer=peer):
                    vals = comm.recv(peer)
                inject(recv, vals)
    return nbytes, messages


def _prepare(grid: Grid3D, field: np.ndarray, proc_grid: Sequence[int],
             halo: int) -> Tuple[CartesianDecomposition, List[List[ExchangeEntry]]]:
    """Decompose and pre-validate every rank's exchange plan (fail fast)."""
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
    decomp = CartesianDecomposition(grid.shape, proc_grid, halo)
    plans = [exchange_plan(decomp, decomp.geometry(r))
             for r in range(decomp.n_ranks)]
    return decomp, plans


def _pair_bytes(plans: List[List[ExchangeEntry]],
                dtype) -> dict:
    """Max message bytes per ordered rank pair (sizes the halo rings)."""
    itemsize = np.dtype(dtype).itemsize
    out: dict = {}
    for rank, plan in enumerate(plans):
        for (_, _, peer, send, _) in plan:
            key = (rank, peer)
            out[key] = max(out.get(key, 0), send.ncells * itemsize)
    return out


def _assemble(grid: Grid3D,
              pieces: List[Tuple[Box, np.ndarray]]) -> np.ndarray:
    """Stitch the rank cores back into one global interior array."""
    out = np.empty(grid.shape, dtype=grid.dtype)
    for core, vals in pieces:
        out[core.slices()] = vals
    return out


def _merge_stats(per_rank: Sequence[ExecutionStats]) -> ExecutionStats:
    """Aggregate executor counters across ranks."""
    stats = ExecutionStats()
    for rank_stats in per_rank:
        stats.block_ops += rank_stats.block_ops
        stats.empty_block_ops += rank_stats.empty_block_ops
        stats.updates += rank_stats.updates
        stats.cells_updated += rank_stats.cells_updated
        stats.max_counter_gap = max(stats.max_counter_gap,
                                    rank_stats.max_counter_gap)
    return stats


def _neg(off: Coord) -> Coord:
    return (-off[0], -off[1], -off[2])


# ---------------------------------------------------------------------------
# Per-rank algorithm bodies, shared by the thread and process transports.
# ---------------------------------------------------------------------------

def _sweeps_rank_body(comm: Comm, rank: int, boundary: DirichletBoundary,
                      dtype, decomp: CartesianDecomposition,
                      plan: List[ExchangeEntry], stored_field: np.ndarray,
                      supersteps: int, halo: int, stencil: StarStencil,
                      engine: str = "numpy",
                      ) -> Tuple[Box, np.ndarray, int, int]:
    """One rank of the multi-halo sweeps scheme.

    ``stored_field`` holds the rank's stored-box values (a view is fine;
    it is copied immediately).  Returns the global core box, its final
    values, and the traffic counters.  ``engine`` picks the
    kernel-execution engine for the trapezoid sweeps — resolved from
    the registry *inside* the rank, so both transports (threads and
    spawned processes) dispatch identically.
    """
    geo = decomp.geometry(rank)
    off = geo.stored.lo
    neg = _neg(off)
    lgrid = Grid3D(geo.stored.shape,
                   boundary=_shifted_boundary(boundary, off),
                   dtype=dtype)
    # Padded pair: local stored box + the one-cell Dirichlet ring.
    cur = lgrid.padded(np.ascontiguousarray(stored_field))
    nxt = cur.copy()
    core_l = geo.core.shift(neg)
    sweep = get_engine(engine)
    nbytes = messages = 0

    def extract(box: Box) -> np.ndarray:
        return cur[box.shift(neg).slices((1, 1, 1))].copy()

    def inject(box: Box, vals: np.ndarray) -> None:
        cur[box.shift(neg).slices((1, 1, 1))] = vals

    for _ in range(supersteps):
        b, m = _run_exchange(comm, plan, extract, inject)
        nbytes += b
        messages += m
        for s in range(1, halo + 1):
            region = core_l.grow(halo - s).intersect(lgrid.domain)
            sweep.apply_padded(stencil, cur, nxt, region.lo, region.hi)
            cur, nxt = nxt, cur
    return geo.core, cur[core_l.slices((1, 1, 1))].copy(), nbytes, messages


def _pipelined_rank_body(comm: Comm, rank: int, boundary: DirichletBoundary,
                         dtype, decomp: CartesianDecomposition,
                         plan: List[ExchangeEntry], stored_field: np.ndarray,
                         config: PipelineConfig, stencil: StarStencil,
                         order: str, validate: bool,
                         tracer: Tracer = NULL_TRACER,
                         ) -> Tuple[Box, np.ndarray, int, int, ExecutionStats]:
    """One rank of the hybrid scheme: pipelined executor + halo exchange."""
    h = config.updates_per_pass
    geo = decomp.geometry(rank)
    off = geo.stored.lo
    neg = _neg(off)
    lgrid = Grid3D(geo.stored.shape,
                   boundary=_shifted_boundary(boundary, off),
                   dtype=dtype)
    core_l = geo.core.shift(neg)

    def active_fn(level: int) -> Box:
        # Pass-local update u covers the core + (h - u) ghost layers:
        # the shrinking trapezoid; the executor clips to the stored box.
        u = (level - 1) % h + 1
        return core_l.grow(h - u)

    with tracer.span("rank", cat="dist", rank=rank):
        ex = PipelineExecutor(
            lgrid, np.ascontiguousarray(stored_field),
            config, stencil, order=order, active_fn=active_fn,
            validate=validate, tracer=tracer,
        )
        storage = ex.storage
        nbytes = messages = 0
        for p in range(config.passes):
            base = p * h

            def extract(box: Box, base: int = base) -> np.ndarray:
                return storage.extract_region(box.shift(neg), base)

            def inject(box: Box, vals: np.ndarray, base: int = base) -> None:
                storage.inject(box.shift(neg), base, vals)

            b, m = _run_exchange(comm, plan, extract, inject, tracer=tracer)
            nbytes += b
            messages += m
            ex.run_pass(p)
        final = config.passes * h
        core_vals = storage.extract_region(core_l, final)
    return geo.core, core_vals, nbytes, messages, ex.stats


# ---------------------------------------------------------------------------
# procmpi rank entry points: module-level (spawn-picklable) wrappers that
# resolve shared-memory fields, rebuild the geometry, and run the bodies.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ProcTask:
    """Picklable problem description shipped to every rank process.

    The rank rebuilds the (cheap, deterministic) decomposition and its
    exchange plan locally instead of shipping every rank's plan to every
    process; only the field data travels through shared memory.
    """

    shape: Coord
    dtype: str
    boundary: DirichletBoundary
    proc_grid: Coord
    halo: int
    stencil: StarStencil
    field_in: ShmArrayHandle
    field_out: ShmArrayHandle
    # sweeps parameters (the pipelined path carries its engine inside
    # ``config``, so the spawned ranks inherit it with no extra plumbing)
    supersteps: int = 0
    engine: str = "numpy"
    # pipelined parameters
    config: Optional[PipelineConfig] = None
    order: str = "round_robin"
    validate: bool = True
    #: Record an observability trace in the rank and ship it back with
    #: the results (defaulted, so pickled tasks stay compatible).
    trace: bool = False


def _proc_sweeps_entry(comm: Comm, rank: int, task: _ProcTask):
    decomp = CartesianDecomposition(task.shape, task.proc_grid, task.halo)
    plan = exchange_plan(decomp, decomp.geometry(rank))
    with attach_array(task.field_in) as fin, \
            attach_array(task.field_out) as fout:
        geo = decomp.geometry(rank)
        core, vals, nbytes, messages = _sweeps_rank_body(
            comm, rank, task.boundary, np.dtype(task.dtype), decomp, plan,
            fin[geo.stored.slices()], task.supersteps, task.halo,
            task.stencil, engine=task.engine)
        fout[core.slices()] = vals
    return core, nbytes, messages


def _proc_pipelined_entry(comm: Comm, rank: int, task: _ProcTask):
    decomp = CartesianDecomposition(task.shape, task.proc_grid, task.halo)
    plan = exchange_plan(decomp, decomp.geometry(rank))
    tracer = Tracer(pid=rank) if task.trace else NULL_TRACER
    with attach_array(task.field_in) as fin, \
            attach_array(task.field_out) as fout:
        geo = decomp.geometry(rank)
        core, vals, nbytes, messages, stats = _pipelined_rank_body(
            comm, rank, task.boundary, np.dtype(task.dtype), decomp, plan,
            fin[geo.stored.slices()], task.config, task.stencil,
            task.order, task.validate, tracer=tracer)
        fout[core.slices()] = vals
    # The trace rides the existing result queue back to the driver as a
    # plain picklable dataclass; timestamps stay rank-clock-local and
    # the driver re-bases them when absorbing (fork and spawn safe).
    return core, nbytes, messages, stats, (tracer.finish()
                                           if task.trace else None)


class ProcSolverSession:
    """Persistent procmpi setup, reused across shape-compatible solves.

    A cold procmpi solve pays (1) the rank-process spawns, (2) the
    shared-memory field blocks and (3) the per-pair halo rings *per
    call*.  This session hoists all three into construction time: it
    owns a :class:`~repro.dist.procmpi.ProcWorld` plus the input/output
    field segments, and :meth:`solve_pipelined` / :meth:`solve_sweeps`
    only copy the field in, dispatch one job to the warm ranks and read
    the assembled result back.  ``repro.serve``'s worker pools keep
    sessions alive across jobs; the one-shot front-ends below create and
    close one per call, so both paths execute identical code.

    A session is keyed by ``(shape, dtype, proc_grid, halo)`` — see
    :meth:`compatible`.  Boundary, stencil and pipeline config travel
    with each job, so one session serves any problem on that geometry.
    Failure is crash-only (inherited from :class:`ProcWorld`): a solve
    that fails closes the session — segments unlinked, ranks joined —
    re-raises the original error, and the owner spawns a fresh session
    for subsequent jobs.
    """

    def __init__(self, shape: Sequence[int], dtype, proc_grid: Sequence[int],
                 halo: int, start_method: Optional[str] = None,
                 timeout: Optional[float] = None,
                 decomp: Optional[CartesianDecomposition] = None,
                 plans: Optional[List[List[ExchangeEntry]]] = None) -> None:
        self.shape: Coord = tuple(int(s) for s in shape)  # type: ignore[assignment]
        self.dtype = np.dtype(dtype)
        self.halo = int(halo)
        # The one-shot front-ends have already built (and validated) the
        # decomposition and every rank's plan — accept them instead of
        # recomputing; cold constructions build their own.
        self.decomp = decomp if decomp is not None else \
            CartesianDecomposition(self.shape, proc_grid, self.halo)
        self.plans = plans if plans is not None else \
            [exchange_plan(self.decomp, self.decomp.geometry(r))
             for r in range(self.decomp.n_ranks)]
        self.solves = 0
        #: Stable identity within a pool (assigned by SessionPool; -1 =
        #: unpooled).  Straggler scores and quarantine decisions key on it.
        self.sid = -1
        #: Fault-injection knob: a limplock degradation factor (>= 1.0;
        #: 1.0 = healthy).  Every job's service time is stretched to
        #: ``slowdown ×`` its real duration — the degraded-but-alive
        #: failure mode the straggler detector exists to catch, injected
        #: deterministically for the differential battery.
        self.slowdown = 1.0
        self._pool = ShmPool()
        self._world: Optional[ProcWorld] = None
        try:
            self._fin_handle, self._fin = self._pool.create_array(
                self.shape, self.dtype)
            self._fout_handle, self._fout = self._pool.create_array(
                self.shape, self.dtype)
            kwargs = {} if timeout is None else {"timeout": timeout}
            self._world = ProcWorld(
                self.decomp.n_ranks, start_method=start_method,
                pair_bytes=_pair_bytes(self.plans, self.dtype), **kwargs)
        except BaseException:
            self.close()
            raise

    @property
    def proc_grid(self) -> Coord:
        return self.decomp.proc_grid

    @property
    def closed(self) -> bool:
        return self._world is None or self._world.closed

    def compatible(self, shape: Sequence[int], dtype,
                   proc_grid: Sequence[int], halo: int) -> bool:
        """Whether this session can serve the given problem geometry."""
        return (not self.closed
                and self.shape == tuple(int(s) for s in shape)
                and self.dtype == np.dtype(dtype)
                and self.proc_grid == tuple(int(p) for p in proc_grid)
                and self.halo == int(halo))

    def _run(self, entry, grid: Grid3D, field: np.ndarray,
             stencil: StarStencil, **task_kwargs):
        """One job against the warm world: seed, dispatch, read back."""
        if self.closed:
            raise ProcMPIError("this solver session is closed")
        if grid.shape != self.shape or np.dtype(grid.dtype) != self.dtype:
            raise ValueError(
                f"problem {grid.shape}/{np.dtype(grid.dtype)} does not fit "
                f"this session ({self.shape}/{self.dtype})")
        if field.shape != self.shape:
            raise ValueError(
                f"field shape {field.shape} != grid shape {self.shape}")
        self._fin[...] = field
        task = _ProcTask(shape=self.shape, dtype=self.dtype.str,
                         boundary=grid.boundary,
                         proc_grid=self.proc_grid, halo=self.halo,
                         stencil=stencil, field_in=self._fin_handle,
                         field_out=self._fout_handle, **task_kwargs)
        t0 = time.perf_counter()
        try:
            outs = self._world.run_job(entry, args=(task,))
        except BaseException:
            # Crash-only: the world is already down; release the field
            # segments too so a failed session never leaks /dev/shm.
            self.close()
            raise
        if self.slowdown > 1.0:
            # Injected limplock: pad the job to slowdown x its real
            # duration, emulating a uniformly degraded node.
            time.sleep((self.slowdown - 1.0) * (time.perf_counter() - t0))
        self.solves += 1
        return outs, np.array(self._fout, copy=True)

    def solve_pipelined(self, grid: Grid3D, field: np.ndarray,
                        config: PipelineConfig,
                        stencil: Optional[StarStencil] = None,
                        order: str = "round_robin",
                        validate: bool = True,
                        tracer: Tracer = NULL_TRACER) -> SolveResult:
        """The hybrid scheme on the warm ranks; ``h`` must match the session."""
        if config.updates_per_pass != self.halo:
            raise ValueError(
                f"config h={config.updates_per_pass} != session halo "
                f"{self.halo}")
        # Anchor for merging rank traces: the ranks' clock origins are
        # not comparable to ours under spawn, so their spans are slid
        # onto this dispatch timestamp when absorbed.
        dispatch = time.perf_counter()
        outs, assembled = self._run(
            _proc_pipelined_entry, grid, field, stencil or jacobi7(),
            config=config, order=order, validate=validate,
            trace=tracer.enabled)
        if tracer.enabled:
            for rank, o in enumerate(outs):
                if len(o) > 4 and o[4] is not None:
                    tracer.absorb(o[4], pid=rank + 1, at=dispatch,
                                  label=f"rank {rank} (proc)")
        return SolveResult(
            field=assembled,
            levels_advanced=config.total_updates,
            stats=_merge_stats([o[3] for o in outs]),
            config=config,
            backend="procmpi",
            topology=self.proc_grid,
            n_ranks=self.decomp.n_ranks,
            halo=self.halo,
            bytes_exchanged=sum(o[1] for o in outs),
            messages=sum(o[2] for o in outs),
        )

    def solve_sweeps(self, grid: Grid3D, field: np.ndarray,
                     supersteps: int,
                     stencil: Optional[StarStencil] = None,
                     engine: str = "numpy") -> SolveResult:
        """The multi-halo sweeps scheme on the warm ranks."""
        if supersteps < 1:
            raise ValueError("supersteps must be >= 1")
        outs, assembled = self._run(
            _proc_sweeps_entry, grid, field, stencil or jacobi7(),
            supersteps=supersteps, engine=engine)
        return SolveResult(
            field=assembled,
            levels_advanced=supersteps * self.halo,
            stats=None,
            config=None,
            backend="procmpi",
            topology=self.proc_grid,
            n_ranks=self.decomp.n_ranks,
            halo=self.halo,
            bytes_exchanged=sum(o[1] for o in outs),
            messages=sum(o[2] for o in outs),
        )

    def close(self) -> None:
        """Tear down the world and unlink the field segments (idempotent)."""
        world, self._world = self._world, None
        if world is not None:
            world.close()
        self._pool.cleanup()

    def __enter__(self) -> "ProcSolverSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Multi-halo Jacobi sweeps (Sect. 2.1 in isolation)
# ---------------------------------------------------------------------------

def distributed_jacobi_sweeps(
    grid: Grid3D,
    field: np.ndarray,
    proc_grid: Sequence[int],
    supersteps: int,
    halo: int,
    stencil: Optional[StarStencil] = None,
    transport: str = "simmpi",
    engine: str = "numpy",
) -> SolveResult:
    """``supersteps`` rounds of (h-layer exchange, then h trapezoid sweeps).

    Advances the field by ``supersteps * halo`` time levels, equal to that
    many plain Jacobi sweeps on the undecomposed domain.  ``transport``
    picks thread ranks (``"simmpi"``) or process ranks (``"procmpi"``);
    ``engine`` picks the kernel-execution engine (bit-identical across
    engines, so it moves throughput only).
    """
    if supersteps < 1:
        raise ValueError("supersteps must be >= 1")
    _check_transport(transport)
    st = stencil or jacobi7()
    decomp, plans = _prepare(grid, field, proc_grid, halo)

    if transport == "procmpi":
        # One-shot session: identical code path to the serve layer's
        # warm pools, paying the full setup for this single solve.
        with ProcSolverSession(grid.shape, grid.dtype, decomp.proc_grid,
                               halo, decomp=decomp, plans=plans) as session:
            return session.solve_sweeps(grid, field, supersteps, stencil=st,
                                        engine=engine)

    def rank_fn(comm: Comm, rank: int):
        geo = decomp.geometry(rank)
        return _sweeps_rank_body(comm, rank, grid.boundary, grid.dtype,
                                 decomp, plans[rank],
                                 field[geo.stored.slices()], supersteps,
                                 halo, st, engine=engine)

    outs = run_ranks(decomp.n_ranks, rank_fn)
    return SolveResult(
        field=_assemble(grid, [(core, vals) for core, vals, _, _ in outs]),
        levels_advanced=supersteps * halo,
        stats=None,
        config=None,
        backend="simmpi",
        topology=decomp.proc_grid,
        n_ranks=decomp.n_ranks,
        halo=halo,
        bytes_exchanged=sum(o[2] for o in outs),
        messages=sum(o[3] for o in outs),
    )


# ---------------------------------------------------------------------------
# Hybrid: pipelined temporal blocking per rank (Sect. 2.2)
# ---------------------------------------------------------------------------

def distributed_jacobi_pipelined(
    grid: Grid3D,
    field: np.ndarray,
    proc_grid: Sequence[int],
    config: PipelineConfig,
    stencil: Optional[StarStencil] = None,
    order: str = "round_robin",
    validate: bool = True,
    transport: str = "simmpi",
    tracer: Tracer = NULL_TRACER,
) -> SolveResult:
    """The paper's hybrid scheme: one pipelined executor per rank.

    The halo width is ``h = config.updates_per_pass`` (= ``n·t·T``) so a
    single executor pass exactly drains one exchange; ``config.passes``
    becomes the number of supersteps.  Requires the two-grid storage
    scheme: the compressed grid's shifted storage positions do not
    compose with ghost injection across ranks.  ``transport`` picks
    thread ranks (``"simmpi"``) or process ranks (``"procmpi"``).
    An enabled ``tracer`` (see :func:`repro.solve`'s ``trace=``) records
    per-rank spans and merges every rank onto its timeline.
    """
    if config.storage != "twogrid":
        raise ValueError(
            "distributed pipelining requires the 'twogrid' storage scheme; "
            f"the {config.storage!r} layout cannot absorb ghost injections"
        )
    _check_transport(transport)
    st = stencil or jacobi7()
    h = config.updates_per_pass
    decomp, plans = _prepare(grid, field, proc_grid, h)

    if transport == "procmpi":
        # One-shot session: identical code path to the serve layer's
        # warm pools, paying the full setup for this single solve.
        with ProcSolverSession(grid.shape, grid.dtype, decomp.proc_grid,
                               h, decomp=decomp, plans=plans) as session:
            return session.solve_pipelined(grid, field, config, stencil=st,
                                           order=order, validate=validate,
                                           tracer=tracer)

    def rank_fn(comm: Comm, rank: int):
        geo = decomp.geometry(rank)
        # One tracer per thread rank; finished into a picklable Trace
        # that rides the rank's result tuple, exactly like procmpi.
        rtracer = Tracer(pid=rank) if tracer.enabled else NULL_TRACER
        body = _pipelined_rank_body(comm, rank, grid.boundary, grid.dtype,
                                    decomp, plans[rank],
                                    field[geo.stored.slices()], config, st,
                                    order, validate, tracer=rtracer)
        return body + ((rtracer.finish() if tracer.enabled else None),)

    outs = run_ranks(decomp.n_ranks, rank_fn)
    if tracer.enabled:
        # Thread ranks share our clock, so each trace is absorbed at its
        # own start (zero shift) — the genuine stagger is preserved.
        for rank, o in enumerate(outs):
            if o[5] is not None:
                tracer.absorb(o[5], pid=rank + 1, at=o[5].start,
                              label=f"rank {rank} (thread)")
    return SolveResult(
        field=_assemble(grid, [(core, vals) for core, vals, *_ in outs]),
        levels_advanced=config.total_updates,
        stats=_merge_stats([o[4] for o in outs]),
        config=config,
        backend="simmpi",
        topology=decomp.proc_grid,
        n_ranks=decomp.n_ranks,
        halo=h,
        bytes_exchanged=sum(o[2] for o in outs),
        messages=sum(o[3] for o in outs),
    )
