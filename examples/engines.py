#!/usr/bin/env python
"""Execution engines: same schedule, interchangeable inner kernels.

The paper's point (Sect. 1.1/1.4) is that the temporal-blocking
*schedule* is independent of how the innermost stencil update is
executed — in-place compressed-grid updates and compiled loops only
move throughput closer to the hardware limit.  This walkthrough runs
one pipelined configuration through every engine registered in this
process and proves each result bit-identical to plain Jacobi sweeps.
Where a second engine is registered (``numba``/``numba-deep``, with
numba installed) it also shows the engine riding the configuration
through a distributed backend, and the serving layer treating an
engine change as a pure cache hit.

Run:  python examples/engines.py
"""

import time

import numpy as np

from repro import Grid3D, PipelineConfig, RelaxedSpec, solve
from repro.engine import available_engines, get_engine
from repro.grid import random_field
from repro.kernels import reference_sweeps
from repro.serve import Service


def main() -> None:
    engines = available_engines()
    print("registered engines:")
    for name in engines:
        print(f"  {name:10s} {get_engine(name).describe()}")

    # --- one schedule, every engine, identical bits ----------------------------
    grid = Grid3D((32, 32, 32))
    field = random_field(grid.shape, np.random.default_rng(5))
    cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=2,
                         block_size=(4, 64, 64), sync=RelaxedSpec(1, 4),
                         storage="compressed", passes=2)
    print(f"\nsolving {cfg.describe()} with every engine:")
    reference = reference_sweeps(grid, field, cfg.total_updates)
    for name in engines:
        t0 = time.perf_counter()
        res = solve(grid, field, cfg, engine=name)
        dt = time.perf_counter() - t0
        assert np.array_equal(res.field, reference)
        print(f"  {name:10s} {res.stats.cells_updated / dt / 1e6:8.1f} "
              f"Mcell/s  bit-identical ✓ (vs plain sweeps)")

    second = [name for name in engines if name != "numpy"]
    if not second:
        print("\nno second engine registered (install numba for "
              "'numba'/'numba-deep'); skipping the cross-engine demos")
        return
    other = second[-1]

    # --- the engine rides the config through the distributed rail --------------
    dist_cfg = PipelineConfig(teams=1, threads_per_team=2,
                              updates_per_thread=2, block_size=(4, 64, 64),
                              sync=RelaxedSpec(1, 2), engine=other)
    dist = solve(grid, field, dist_cfg, topology=(1, 1, 2), backend="simmpi")
    shared = solve(grid, field, dist_cfg)
    assert np.array_equal(dist.field, shared.field)
    print(f"\nsimmpi ranks inherited the {other!r} engine: "
          "bit-identical to shared ✓")

    # --- engines of one semantics class share cache entries --------------------
    with Service(workers=0) as svc:
        cold = svc.submit(grid, field, dist_cfg)
        svc.drain()
        warm = svc.submit(grid, field, dist_cfg, engine="numpy")
        stats = svc.stats
        assert np.array_equal(cold.result(timeout=0).field,
                              warm.result(timeout=0).field)
    assert warm.cache_hit and stats.backend_solves == 1
    print("engine change in repro.serve: pure cache hit, zero extra "
          "backend solves ✓")


if __name__ == "__main__":
    main()
