"""repro — reproduction of Wittmann, Hager & Wellein (2010),
"Multicore-aware parallel temporal blocking of stencil codes for shared
and distributed memory" (arXiv:0912.4506).

The package has two rails:

* a **functional rail** that executes the paper's pipelined
  temporal-blocking schemes on real NumPy arrays with machine-checked
  legality (``repro.core``, ``repro.dist``), and
* a **performance rail** that runs the identical schedules through a
  calibrated discrete-event machine model (``repro.machine``,
  ``repro.sim``, ``repro.models``) to regenerate the paper's figures.

Measurements of both rails are driven by the ``repro.perf`` harness
(``python -m repro.perf run|list|compare|report``): a declarative
scenario registry with ``quick``/``paper``/``stress`` suites, a
versioned JSON results store (``BENCH_<suite>.json``) and a regression
gate that fails CI on a >10 % slowdown of any deterministic metric.
See EXPERIMENTS.md for the figure-to-scenario map.

The front door to the functional rail is :func:`repro.solve`, which runs
the same configuration on either backend::

    import numpy as np
    from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
    from repro.kernels import reference_sweeps

    grid = Grid3D((32, 32, 32))
    field = np.random.default_rng(0).random(grid.shape)
    cfg = PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=2,
                         block_size=(8, 64, 64), sync=RelaxedSpec(1, 4))
    shared = solve(grid, field, cfg)                       # one process
    dist = solve(grid, field, cfg, topology=(2, 1, 1),
                 backend="simmpi")                         # two ranks
    ref = reference_sweeps(grid, field, cfg.total_updates)
    assert np.allclose(shared.field, ref)
    assert np.allclose(dist.field, ref)

The top level exports the solve path only: the problem (``Grid3D``,
``DirichletBoundary``, ``StarStencil``, ``jacobi7``), the parameters
(``PipelineConfig``, ``RelaxedSpec``, ``BarrierSpec``), the solvers
(``solve``, ``run_pipelined``, ``reference_sweeps``, ``SolveResult``),
the serving front door (``submit``, ``map``/``map_jobs``, ``Service``,
``SolveJob``) and the autotuner (``autotune``, ``TuneResult``).
Everything else is imported from the subpackage that defines it.

``import repro`` loads the grid, kernel, engine, core-execution, API and
tracer modules and nothing else: the distributed and threaded backends,
the serving layer, the static analyzer, the perf harness, the machine
model, the DES and the figure generators load on first use (pinned by
``tests/test_imports.py``).  ``Service``, ``SolveJob``, ``autotune``
and ``TuneResult`` resolve on first attribute access for that reason.
"""

import importlib

from .grid import DirichletBoundary, Grid3D
from .kernels import StarStencil, jacobi7, reference_sweeps
from .core import BarrierSpec, PipelineConfig, RelaxedSpec, SolveResult, run_pipelined
from .api import map_jobs, solve, submit

#: ``repro.map`` — the ergonomic name for :func:`map_jobs` (shadows the
#: builtin only inside this namespace; the wrapper itself imports the
#: serving layer lazily, at call time).
map = map_jobs

__version__ = "1.9.0"

#: Names whose defining modules are heavy, resolved on first access.
_LAZY = {
    "Service": "repro.serve",
    "SolveJob": "repro.serve",
    "TuneResult": "repro.core.autotune",
    "autotune": "repro.core.autotune",
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Grid3D",
    "DirichletBoundary",
    "StarStencil",
    "jacobi7",
    "PipelineConfig",
    "RelaxedSpec",
    "BarrierSpec",
    "solve",
    "run_pipelined",
    "reference_sweeps",
    "SolveResult",
    "submit",
    # "map" stays a module attribute but out of __all__: star-imports
    # must not shadow the builtin in the user's namespace.
    "map_jobs",
    "Service",
    "SolveJob",
    "autotune",
    "TuneResult",
    "__version__",
]
