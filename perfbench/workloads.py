"""The four workloads: seeded inputs, the requests they send, their checks.

Every input comes from the seed; ``repro`` receives only the generated
arrays.  ``repro`` is imported inside functions, never at module import,
so the set-up probe can time ``import repro`` from a fresh interpreter.

Sizes follow from a 2-core host with 2 MiB of L2 per core and a shared
300 MiB L3 (see ``BENCHMARK.json`` for why each workload exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from floors import Sweeper

#: Relative tolerance of the reference-versus-own-sweep check (float64,
#: at most 32 levels of a 6-term average).
ALLCLOSE_RTOL = 1e-12


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


@dataclass
class Problem:
    """One seeded input and its verified expected output."""

    field: np.ndarray
    boundary: float
    levels: int
    #: ``repro.kernels.reference_sweeps`` of the input.
    ref: Optional[np.ndarray] = None
    #: Whether ``ref`` agrees with the benchmark's own sweep.
    ref_ok: bool = False

    @classmethod
    def generate(cls, rng: np.random.Generator, n: int,
                 levels: int) -> "Problem":
        return cls(field=rng.random((n, n, n)),
                   boundary=float(rng.uniform(-1.0, 1.0)), levels=levels)

    def grid(self) -> Any:
        import repro

        return repro.Grid3D(self.field.shape,
                            boundary=repro.DirichletBoundary(self.boundary))

    def compute_reference(self) -> None:
        """Fill :attr:`ref`, cross-checked against the own plain sweep."""
        import repro

        self.ref = repro.reference_sweeps(self.grid(), self.field, self.levels)
        own, _ = Sweeper(self.field, self.boundary).run(self.levels)
        self.ref_ok = bool(np.allclose(self.ref, own, rtol=ALLCLOSE_RTOL,
                                       atol=ALLCLOSE_RTOL))

    def check(self, out: np.ndarray) -> bool:
        """Bit-for-bit equality with the reference (which must be sound)."""
        return self.ref_ok and bool(np.array_equal(out, self.ref))

    def save(self, path: Path) -> None:
        np.savez(path, field=self.field, boundary=self.boundary,
                 levels=self.levels, ref=self.ref, ref_ok=self.ref_ok)

    @classmethod
    def load(cls, path: Path) -> "Problem":
        with np.load(path) as z:
            return cls(field=z["field"], boundary=float(z["boundary"]),
                       levels=int(z["levels"]), ref=z["ref"],
                       ref_ok=bool(z["ref_ok"]))


def pipeline_config(teams: int, threads: int, T: int, passes: int,
                    storage: str = "twogrid") -> Any:
    import repro

    return repro.PipelineConfig(
        teams=teams, threads_per_team=threads, updates_per_thread=T,
        sync=repro.RelaxedSpec(1, 4), storage=storage, passes=passes)


# ---------------------------------------------------------------------------
# Solver workloads: one problem per run, solved again and again.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverWorkload:
    """``repro.solve`` on one seeded problem, closed loop, one client."""

    name: str
    n: int
    teams: int
    threads: int
    T: int
    passes: int
    storage: str
    solve_kwargs: Dict[str, Any]
    #: Percentile reported as the latency tail: the highest multiple of
    #: five that leaves at least ten solves beyond it in a run.
    tail: int
    #: Cores the solve computes on, and so the cores of its sweep floor.
    floor_cores: int

    @property
    def levels(self) -> int:
        return self.teams * self.threads * self.T * self.passes

    @property
    def cells(self) -> int:
        return self.n ** 3

    def problem(self, seed: int) -> Problem:
        return Problem.generate(rng_for(seed, 0), self.n, self.levels)

    def config(self) -> Any:
        return pipeline_config(self.teams, self.threads, self.T, self.passes,
                               self.storage)

    def solve(self, grid: Any, problem: Problem, config: Any,
              trace: bool = False) -> Any:
        import repro

        return repro.solve(grid, problem.field, config, trace=trace,
                           **self.solve_kwargs)

    def first_result(self, problem: Problem, workdir: Path) -> bool:
        """Set-up path: build everything and return whether it verified."""
        res = self.solve(problem.grid(), problem, self.config())
        return problem.check(res.field)


NODE_LARGE = SolverWorkload(
    name="node-large", n=104, teams=1, threads=2, T=4, passes=2,
    storage="twogrid",
    solve_kwargs={"backend": "threads", "validate": "static"},
    tail=75, floor_cores=2)

NODE_SMALL = SolverWorkload(
    name="node-small", n=48, teams=2, threads=2, T=2, passes=2,
    storage="compressed", solve_kwargs={"backend": "shared"},
    tail=90, floor_cores=1)

CLUSTER_HALO = SolverWorkload(
    name="cluster-halo", n=64, teams=2, threads=2, T=2, passes=4,
    storage="twogrid",
    solve_kwargs={"backend": "procmpi", "topology": (2, 1, 1)},
    tail=80, floor_cores=2)


# ---------------------------------------------------------------------------
# serve-zipf: two closed-loop clients against one Service.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServeWorkload:
    """Zipf-drawn keys from two closed-loop clients, one service worker.

    A run is a sequence of epochs.  Each epoch draws fresh problems (so
    fresh content keys) and a fresh request sequence, and starts from an
    empty cache: the traffic mix is the same in every epoch, however
    many epochs a run completes.
    """

    name: str = "serve-zipf"
    n: int = 32
    problems: int = 32
    backends: Tuple[Tuple[str, Tuple[int, int, int]], ...] = (
        ("shared", (1, 1, 1)), ("procmpi", (2, 1, 1)))
    lru_entries: int = 16
    clients: int = 2
    jobs_per_client: int = 80
    zipf_a: float = 1.1
    tail: int = 90
    floor_cores: int = 2
    #: Edge of the floor's grid.  A 32^3 sweep lasts a few milliseconds,
    #: too short to see the host take a core away; a 64^3 one tracks it.
    floor_n: int = 64
    T: int = 2
    threads: int = 2
    passes: int = 2

    @property
    def levels(self) -> int:
        return self.threads * self.T * self.passes

    @property
    def cells(self) -> int:
        return self.n ** 3

    def config(self) -> Any:
        return pipeline_config(1, self.threads, self.T, self.passes)

    def floor_problem(self, seed: int) -> Problem:
        return Problem.generate(rng_for(seed, 4), self.floor_n, self.levels)

    def epoch_problems(self, seed: int, epoch: int) -> List[Problem]:
        rng = rng_for(seed, 1, epoch)
        return [Problem.generate(rng, self.n, self.levels)
                for _ in range(self.problems)]

    def epoch_requests(self, seed: int, epoch: int) -> List[List[Tuple[int, int]]]:
        """Per client: (problem index, backend index) per request."""
        rng = rng_for(seed, 2, epoch)
        ranks = np.arange(1, self.problems + 1, dtype=float)
        p = ranks ** -self.zipf_a
        p /= p.sum()
        out = []
        for c in range(self.clients):
            draws = rng.choice(self.problems, size=self.jobs_per_client, p=p)
            out.append([(int(k), (j + c) % len(self.backends))
                        for j, k in enumerate(draws)])
        return out

    def service(self, cache_dir: Path) -> Any:
        import repro

        return repro.Service(workers=1, cache_entries=self.lru_entries,
                             cache_dir=cache_dir)

    def submit(self, svc: Any, grid: Any, problem: Problem, config: Any,
               backend: int) -> Any:
        name, topo = self.backends[backend]
        return svc.submit(grid, problem.field, config, topology=topo,
                          backend=name)

    def first_result(self, problem: Problem, workdir: Path) -> bool:
        """Set-up path: construct the service and verify a first result."""
        svc = self.service(workdir / "cache")
        try:
            fut = self.submit(svc, problem.grid(), problem, self.config(), 0)
            return problem.check(fut.result(timeout=60).field)
        finally:
            svc.close()


SERVE_ZIPF = ServeWorkload()

WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (NODE_LARGE, NODE_SMALL, CLUSTER_HALO, SERVE_ZIPF)}


def setup_problem(workload: Any, seed: int) -> Problem:
    """The input whose first result the set-up probe waits for."""
    if isinstance(workload, ServeWorkload):
        return workload.epoch_problems(seed, 0)[0]
    return workload.problem(seed)
