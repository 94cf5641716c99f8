"""Equivalence of pipelined temporal blocking with plain Jacobi sweeps.

This is the central correctness claim of the reproduction: every
configuration of the pipelined scheme — any team count, team size, T,
block size, sync policy, storage scheme and interleaving order — must
produce exactly the same field as ``passes * n*t*T`` naive sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BarrierSpec,
    Grid3D,
    PipelineConfig,
    RelaxedSpec,
    run_pipelined,
)
from repro.grid import DirichletBoundary, random_field
from repro.kernels import anisotropic_jacobi, jacobi5_2d, jacobi7, reference_sweeps

RNG = np.random.default_rng(42)


def assert_matches_reference(grid, field, cfg, stencil=None, order="round_robin",
                             rng=None):
    res = run_pipelined(grid, field, cfg, stencil=stencil, order=order, rng=rng)
    ref = reference_sweeps(grid, field, cfg.total_updates, stencil=stencil)
    np.testing.assert_allclose(res.field, ref, rtol=0, atol=1e-13)
    return res


class TestSingleTeam:
    def test_one_thread_t1_is_plain_sweep(self):
        grid = Grid3D((10, 9, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=1, updates_per_thread=1,
                             block_size=(3, 100, 100))
        assert_matches_reference(grid, field, cfg)

    def test_two_threads_barrier(self):
        grid = Grid3D((12, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(4, 100, 100), sync=BarrierSpec())
        assert_matches_reference(grid, field, cfg)

    def test_four_threads_t2_barrier(self):
        grid = Grid3D((16, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=2,
                             block_size=(4, 100, 100), sync=BarrierSpec())
        assert_matches_reference(grid, field, cfg)

    def test_four_threads_t2_relaxed(self):
        grid = Grid3D((16, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=2,
                             block_size=(4, 100, 100), sync=RelaxedSpec(1, 4))
        assert_matches_reference(grid, field, cfg)


class TestMultiTeam:
    def test_two_teams_like_paper_node(self):
        # The paper's node setup scaled down: n=2 teams of t=4, T=2.
        grid = Grid3D((24, 10, 10))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=2, threads_per_team=4, updates_per_thread=2,
                             block_size=(4, 100, 100),
                             sync=RelaxedSpec(1, 4, team_delay=2))
        assert_matches_reference(grid, field, cfg)

    def test_team_delay_zero_vs_eight_same_result(self):
        grid = Grid3D((20, 8, 8))
        field = random_field(grid.shape, RNG)
        outs = []
        for dt in (0, 8):
            cfg = PipelineConfig(teams=2, threads_per_team=2,
                                 updates_per_thread=1,
                                 block_size=(4, 100, 100),
                                 sync=RelaxedSpec(1, 2, team_delay=dt))
            outs.append(run_pipelined(grid, field, cfg).field)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestOrdersAndSync:
    @pytest.mark.parametrize("order", ["round_robin", "random", "front_first",
                                       "rear_first"])
    def test_all_orders_agree(self, order):
        grid = Grid3D((14, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=3, updates_per_thread=2,
                             block_size=(3, 100, 100), sync=RelaxedSpec(1, 3))
        assert_matches_reference(grid, field, cfg, order=order,
                                 rng=np.random.default_rng(7))

    @pytest.mark.parametrize("du", [1, 2, 5])
    def test_looseness_sweep(self, du):
        grid = Grid3D((16, 6, 6))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=4, updates_per_thread=1,
                             block_size=(2, 100, 100), sync=RelaxedSpec(1, du))
        assert_matches_reference(grid, field, cfg, order="front_first")


class TestStorageSchemes:
    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_storage_equivalence(self, storage):
        grid = Grid3D((18, 7, 7))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=3, updates_per_thread=2,
                             block_size=(3, 100, 100),
                             sync=RelaxedSpec(1, 3), storage=storage)
        assert_matches_reference(grid, field, cfg)

    @pytest.mark.parametrize("storage", ["twogrid", "compressed"])
    def test_multi_slab_reference_is_bit_identical(self, storage):
        # The padded reference sweep walks several z-slabs ending in a
        # partial one; the pipelined solve never goes through that loop.
        from repro.engine.numpy_engine import SLAB_BYTES

        grid = Grid3D((41, 90, 90))
        slab = SLAB_BYTES // (90 * 90 * 8)
        assert 1 < slab < 41 and 41 % slab
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(8, 100, 100),
                             sync=RelaxedSpec(1, 2), storage=storage)
        res = run_pipelined(grid, field, cfg, validate=False)
        ref = reference_sweeps(grid, field, cfg.total_updates)
        np.testing.assert_array_equal(res.field, ref)

    def test_compressed_multi_pass_shift_unwinds(self):
        # Two passes: offsets go to -n*t*T then back to 0.
        grid = Grid3D((12, 6, 6))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(3, 100, 100), storage="compressed",
                             sync=RelaxedSpec(1, 2), passes=2)
        assert_matches_reference(grid, field, cfg)

    def test_compressed_three_passes(self):
        grid = Grid3D((10, 5, 5))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(2, 100, 100), storage="compressed",
                             passes=3)
        assert_matches_reference(grid, field, cfg)


class TestMultiPass:
    def test_two_passes_twogrid(self):
        grid = Grid3D((16, 6, 6))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(4, 100, 100),
                             sync=RelaxedSpec(1, 2), passes=2)
        assert_matches_reference(grid, field, cfg)


class TestBoundariesAndStencils:
    def test_nonzero_dirichlet_faces(self):
        bc = DirichletBoundary(0.0, faces={(0, -1): 2.0, (2, 1): -1.5})
        grid = Grid3D((12, 8, 8), boundary=bc)
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(3, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg)

    def test_functional_boundary(self):
        bc = DirichletBoundary(func=lambda z, y, x: np.sin(0.3 * x) + 0.1 * y + 0.0 * z)
        grid = Grid3D((10, 8, 8), boundary=bc)
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(3, 100, 100))
        assert_matches_reference(grid, field, cfg)

    def test_2d_stencil(self):
        grid = Grid3D((8, 16, 16))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(2, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg, stencil=jacobi5_2d())

    def test_anisotropic_stencil(self):
        grid = Grid3D((12, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=3, updates_per_thread=1,
                             block_size=(3, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg,
                                 stencil=anisotropic_jacobi(1.0, 2.0, 0.5))

    def test_damped_jacobi_center_weight(self):
        grid = Grid3D((12, 8, 8))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=2,
                             block_size=(3, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg, stencil=jacobi7().damped(0.8))


class TestAwkwardShapes:
    def test_block_not_dividing_extent(self):
        grid = Grid3D((13, 7, 5))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=3, updates_per_thread=2,
                             block_size=(4, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg)

    def test_block_thinner_than_pipeline_depth(self):
        # n*t*T = 8 but blocks are only 2 cells thick: clipped drain regions
        # must still cover everything.
        grid = Grid3D((11, 5, 5))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=2, threads_per_team=2, updates_per_thread=2,
                             block_size=(2, 100, 100), sync=RelaxedSpec(1, 2))
        assert_matches_reference(grid, field, cfg)

    def test_single_block_domain(self):
        # Block spans the whole domain: untiled, no shift, still works.
        grid = Grid3D((6, 6, 6))
        field = random_field(grid.shape, RNG)
        cfg = PipelineConfig(teams=1, threads_per_team=2, updates_per_thread=1,
                             block_size=(2, 100, 100))
        assert_matches_reference(grid, field, cfg)
