"""Unified front-end: backend dispatch, result parity, error paths."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import (
    Grid3D,
    PipelineConfig,
    RelaxedSpec,
    SolveResult,
    run_pipelined,
    solve,
)
from repro.api import BACKENDS
from repro.dist.solver import distributed_jacobi_sweeps
from repro.grid import random_field
from repro.kernels import anisotropic_jacobi, reference_sweeps

RNG = np.random.default_rng(17)


def small_problem():
    grid = Grid3D((16, 12, 12))
    field = random_field(grid.shape, RNG)
    cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                         block_size=(3, 64, 64), sync=RelaxedSpec(1, 2),
                         passes=2)
    return grid, field, cfg


class TestDispatch:
    def test_default_is_shared(self):
        grid, field, cfg = small_problem()
        res = solve(grid, field, cfg)
        assert res.backend == "shared"
        assert res.n_ranks == 1 and res.topology == (1, 1, 1)
        np.testing.assert_allclose(
            res.field, reference_sweeps(grid, field, cfg.total_updates),
            rtol=0, atol=1e-13)

    def test_simmpi_dispatch(self):
        grid, field, cfg = small_problem()
        res = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        assert res.backend == "simmpi"
        assert res.n_ranks == 2 and res.topology == (2, 1, 1)
        assert res.halo == cfg.updates_per_pass
        np.testing.assert_allclose(
            res.field, reference_sweeps(grid, field, cfg.total_updates),
            rtol=0, atol=1e-13)

    def test_procmpi_dispatch(self):
        # The PR's acceptance shape: procmpi on (1, 1, 2) must be
        # allclose to the shared backend.
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        res = solve(grid, field, cfg, topology=(1, 1, 2), backend="procmpi")
        assert res.backend == "procmpi"
        assert res.n_ranks == 2 and res.topology == (1, 1, 2)
        assert res.halo == cfg.updates_per_pass
        np.testing.assert_allclose(res.field, shared.field,
                                   rtol=0, atol=1e-13)

    def test_backends_bit_identical_on_trivial_topology(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg, backend="shared")
        for backend in ("simmpi", "procmpi"):
            dist = solve(grid, field, cfg, topology=(1, 1, 1),
                         backend=backend)
            assert np.array_equal(shared.field, dist.field), backend

    def test_run_pipelined_is_the_shared_backend(self):
        grid, field, cfg = small_problem()
        a = run_pipelined(grid, field, cfg)
        b = solve(grid, field, cfg)
        assert isinstance(a, SolveResult)
        assert np.array_equal(a.field, b.field)


class TestResultParity:
    def test_same_fields_both_backends(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        dist = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        names = {f.name for f in dataclasses.fields(SolveResult)}
        for res in (shared, dist):
            for name in names:
                assert hasattr(res, name)
        assert shared.levels_advanced == dist.levels_advanced
        assert shared.messages == 0 and shared.bytes_exchanged == 0
        assert dist.messages > 0 and dist.bytes_exchanged > 0

    def test_sweeps_solver_returns_solve_result(self):
        grid, field, _ = small_problem()
        res = distributed_jacobi_sweeps(grid, field, (2, 1, 1),
                                        supersteps=1, halo=2)
        assert isinstance(res, SolveResult)
        assert res.stats is None and res.config is None
        assert res.levels_advanced == 2
        assert res.cells_updated == 0  # no executor stats to count

    def test_stats_aggregated_across_ranks(self):
        grid, field, cfg = small_problem()
        shared = solve(grid, field, cfg)
        dist = solve(grid, field, cfg, topology=(2, 1, 1), backend="simmpi")
        # Trapezoid ghost updates are performed redundantly by both ranks,
        # so the distributed run does strictly more cell updates.
        assert dist.cells_updated > shared.cells_updated


class TestErrorPaths:
    def test_unknown_backend(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="backend"):
            solve(grid, field, cfg, backend="mpi")

    def test_backends_constant(self):
        assert set(BACKENDS) == {"shared", "threads", "simmpi", "procmpi"}

    def test_unknown_transport_at_solver_level(self):
        grid, field, _ = small_problem()
        with pytest.raises(ValueError, match="transport"):
            distributed_jacobi_sweeps(grid, field, (2, 1, 1), supersteps=1,
                                      halo=2, transport="smoke-signals")

    def test_shared_rejects_nontrivial_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="single-process"):
            solve(grid, field, cfg, topology=(2, 1, 1), backend="shared")

    def test_bad_topology_shape(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="triple"):
            solve(grid, field, cfg, topology=(2, 1), backend="simmpi")

    def test_nonpositive_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match=">= 1"):
            solve(grid, field, cfg, topology=(2, 0, 1), backend="simmpi")

    def test_oversubscribed_topology(self):
        grid, field, cfg = small_problem()
        with pytest.raises(ValueError, match="oversubscribe"):
            solve(grid, field, cfg, topology=(1, 1, 64), backend="simmpi")


class TestStaticValidation:
    @pytest.mark.parametrize("backend", ["shared", "threads"])
    def test_explicit_stencil(self, backend):
        grid, field, cfg = small_problem()
        st = anisotropic_jacobi(1, 2, 3)
        res = solve(grid, field, cfg, backend=backend, stencil=st,
                    validate="static")
        ref = reference_sweeps(grid, field, cfg.total_updates, stencil=st)
        np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("backend, validate, calls", [
        ("threads", "static", 1),
        ("threads", True, 1),
        ("shared", "static", 1),
        ("shared", True, 0),
    ])
    def test_certifies_once(self, monkeypatch, backend, validate, calls):
        import repro.analysis

        seen = []
        certify = repro.analysis.assert_legal

        def counting(*args, **kwargs):
            seen.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(repro.analysis, "assert_legal", counting)
        grid, field, cfg = small_problem()
        solve(grid, field, cfg, backend=backend, validate=validate)
        assert len(seen) == calls
