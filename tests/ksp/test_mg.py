"""Geometric multigrid: transfers, Galerkin products, V-cycles."""

import numpy as np
import pytest

from repro.core.registry import PLANS
from repro.core.sell import SellMat
from repro.ksp.gmres import GMRES
from repro.ksp.pc.mg import (
    MGPC,
    bilinear_prolongation,
    csr_matmul,
    full_weighting_restriction,
    grid_transfers,
)
from repro.ksp.ts import ThetaMethod
from repro.pde.grayscott import GrayScottProblem
from repro.mat.aij import AijMat
from repro.pde.grid import Grid2D
from repro.pde.problems import spd_laplacian
from repro.pde.stencil import laplacian_csr

from ..conftest import make_random_csr


def shifted_laplacian(grid: Grid2D) -> AijMat:
    """I - Laplacian: SPD with the 5-point structure (solvable by MG)."""
    lap = laplacian_csr(grid)
    n = lap.shape[0]
    rows = np.arange(n, dtype=np.int64)
    return AijMat.from_coo(
        (n, n),
        np.concatenate([np.repeat(rows, lap.row_lengths()), rows]),
        np.concatenate([lap.colidx.astype(np.int64), rows]),
        np.concatenate([-lap.val, np.ones(n)]),
        sum_duplicates=True,
    )


class TestCsrMatmul:
    def test_matches_dense_product(self):
        a = make_random_csr(9, 7, density=0.3, seed=1)
        b = make_random_csr(7, 11, density=0.3, seed=2)
        c = csr_matmul(a, b)
        assert np.allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    def test_dimension_mismatch_rejected(self):
        a = make_random_csr(4, 5, density=0.5)
        with pytest.raises(ValueError):
            csr_matmul(a, a)

    def test_empty_operand(self):
        a = make_random_csr(4, 4, density=0.5)
        empty = AijMat.from_coo((4, 4), np.array([]), np.array([]), np.array([]))
        assert csr_matmul(a, empty).nnz == 0

    def test_identity_is_neutral(self):
        """Every product with I is one exact multiply by 1.0 added onto 0.0."""
        a = make_random_csr(6, density=0.4, seed=3)
        eye = AijMat.from_dense(np.eye(6))
        for c in (csr_matmul(a, eye), csr_matmul(eye, a), csr_matmul(eye, a, eye)):
            assert np.array_equal(c.rowptr, a.rowptr)
            assert np.array_equal(c.colidx, a.colidx)
            assert np.array_equal(c.val, a.val)


class TestTransfers:
    def test_prolongation_rows_form_a_partition_of_unity(self):
        coarse, fine = Grid2D(4, 4), Grid2D(8, 8)
        p = bilinear_prolongation(coarse, fine)
        row_sums = p.multiply(np.ones(coarse.ndof))
        assert np.allclose(row_sums, 1.0)

    def test_prolongation_reproduces_constants_per_component(self):
        coarse, fine = Grid2D(4, 4, dof=2), Grid2D(8, 8, dof=2)
        p = bilinear_prolongation(coarse, fine)
        v = np.zeros(coarse.ndof)
        v[0::2] = 3.0  # constant in component 0 only
        out = p.multiply(v)
        assert np.allclose(out[0::2], 3.0)
        assert np.allclose(out[1::2], 0.0)

    def test_prolongation_interpolates_linear_functions_exactly_inside(self):
        """Bilinear interpolation is exact for a periodic Fourier mode
        at the coarse-grid sampling points."""
        coarse, fine = Grid2D(8, 8), Grid2D(16, 16)
        p = bilinear_prolongation(coarse, fine)
        xc, _ = coarse.point_coordinates()
        v = np.sin(2 * np.pi * xc / coarse.length)
        out = p.multiply(v)
        # Fine points that coincide with coarse points copy exactly.
        for j in range(0, 16, 2):
            for i in range(0, 16, 2):
                fi = fine.point_index(i, j)
                ci = coarse.point_index(i // 2, j // 2)
                assert out[fi] == pytest.approx(v[ci])

    def test_restriction_is_quarter_transpose(self):
        coarse, fine = Grid2D(4, 4), Grid2D(8, 8)
        p = bilinear_prolongation(coarse, fine)
        r = full_weighting_restriction(p)
        assert np.allclose(r.to_dense(), p.to_dense().T / 4.0)

    def test_wrong_grid_ratio_rejected(self):
        with pytest.raises(ValueError):
            bilinear_prolongation(Grid2D(4, 4), Grid2D(12, 12))
        with pytest.raises(ValueError):
            bilinear_prolongation(Grid2D(4, 4, dof=1), Grid2D(8, 8, dof=2))


class TestMGCycle:
    def test_galerkin_mg_accelerates_gmres(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        plain = GMRES(rtol=1e-8).solve(a, b)
        mg = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3))).solve(a, b)
        assert mg.reason.converged
        assert mg.iterations < plain.iterations / 2

    def test_rediscretized_mg_matches_galerkin_quality(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        galerkin = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3))).solve(a, b)
        redisc = GMRES(
            rtol=1e-8,
            pc=MGPC(grids=grid.hierarchy(3), operator_factory=shifted_laplacian),
        ).solve(a, b)
        assert redisc.reason.converged
        assert abs(redisc.iterations - galerkin.iterations) <= 3

    def test_w_cycle_is_at_least_as_strong_as_v(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        b = rng.standard_normal(a.shape[0])
        v = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3), cycle="v")).solve(a, b)
        w = GMRES(rtol=1e-8, pc=MGPC(grids=grid.hierarchy(3), cycle="w")).solve(a, b)
        assert w.iterations <= v.iterations + 1

    def test_single_level_degenerates_to_smoothing(self, rng):
        grid = Grid2D(8, 8)
        a = shifted_laplacian(grid)
        pc = MGPC(grids=[grid], coarse_sweeps=4)
        pc.setup(a)
        r = rng.standard_normal(a.shape[0])
        z = pc.apply(r)
        assert np.linalg.norm(a.multiply(z) - r) < np.linalg.norm(r)

    def test_level_matvec_accounting(self, rng):
        grid = Grid2D(16, 16)
        a = shifted_laplacian(grid)
        pc = MGPC(grids=grid.hierarchy(3))
        pc.setup(a)
        pc.apply(rng.standard_normal(a.shape[0]))
        counts = pc.matvec_counts()
        assert len(counts) == 3
        assert all(c > 0 for c in counts)
        rows = pc.rows_processed()
        # Finer levels stream more rows per cycle than coarser ones.
        assert rows[0] > rows[1] > 0

    def test_apply_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            MGPC(grids=[Grid2D(8, 8)]).apply(np.ones(64))

    def test_wrong_residual_size_raises(self, rng):
        grid = Grid2D(8, 8)
        pc = MGPC(grids=grid.hierarchy(2))
        pc.setup(shifted_laplacian(grid))
        with pytest.raises(ValueError):
            pc.apply(np.ones(5))

    def test_invalid_cycle_name(self):
        with pytest.raises(ValueError):
            MGPC(cycle="f")

    def test_mg_preserves_the_operator_format(self, rng):
        """The fine operator is used as given — a SELL matrix stays SELL
        (the -dm_mat_type sell path)."""
        from repro.core.sell import SellMat
        from repro.ksp.base import CountingOperator

        grid = Grid2D(16, 16)
        a = SellMat.from_csr(shifted_laplacian(grid))
        counting = CountingOperator(a)
        pc = MGPC(grids=grid.hierarchy(2))
        pc.setup(counting)
        assert pc.levels[0].op is counting
        b = rng.standard_normal(a.shape[0])
        result = GMRES(rtol=1e-8, pc=pc).solve(counting, b)
        assert result.reason.converged
        assert counting.matvecs > 0


class TestSymbolicReuse:
    """Setup reuses one plan per structure across Newton steps."""

    def test_transfers_are_built_once_per_grid_pair_and_read_only(self):
        coarse, fine = Grid2D(4, 4, dof=2), Grid2D(8, 8, dof=2)
        p, r = grid_transfers(coarse, fine)
        assert grid_transfers(coarse, fine)[0] is p
        assert p.equal(bilinear_prolongation(coarse, fine))
        assert r.equal(full_weighting_restriction(bilinear_prolongation(coarse, fine)))
        with pytest.raises(ValueError):
            r.val *= 2.0

    def test_phases_are_logged_with_petsc_event_names(self):
        from repro.obs.observer import observing

        a = make_random_csr(7, 5, density=0.4, seed=11)
        b = make_random_csr(5, 6, density=0.4, seed=12)
        PLANS.invalidate("matmat", PLANS.matmat_key(a, b))
        with observing() as obs:
            csr_matmul(a, b)
            csr_matmul(a, b)
        names = [e["name"] for e in obs.trace.events if e["ph"] == "B"]
        assert names.count("MatMatMultSymbolic") == 1
        assert names.count("MatMatMultNumeric") == 2

    def test_store_size_is_constant_after_the_first_newton_step(self):
        grid = Grid2D(16, 16, dof=2)
        problem = GrayScottProblem(grid)
        sizes = []

        def jacobian(w, shift, scale):
            sizes.append(PLANS.size())
            return problem.jacobian(w, shift, scale)

        ts = ThetaMethod(
            rhs=problem.rhs,
            jacobian=jacobian,
            ksp_factory=lambda: GMRES(pc=MGPC(grids=grid.hierarchy(3)), rtol=1e-8),
            operator_wrapper=lambda m: SellMat.from_csr(m.to_csr(), 8),
            theta=0.5,
            dt=1.0,
        )
        PLANS.clear()
        ts.integrate(problem.initial_state(), 8, keep_states=False)
        assert len(sizes) > 8
        # Jacobian pattern, SELL plan, two transfers, two Galerkin plans.
        assert sizes[0] == 0
        assert set(sizes[1:]) == {6}
        assert PLANS.size() == 6
        misses = PLANS.stats()["misses"]
        assert misses == {"matmat": 2, "pattern": 1, "sell": 1, "transfer": 2}
