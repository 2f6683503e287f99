"""GMRES, CG, and Richardson on the matrix gallery."""

import numpy as np
import pytest

from repro.ksp.base import ConvergedReason, CountingOperator
from repro.ksp.cg import CG
from repro.ksp.gmres import GMRES
from repro.ksp.pc.jacobi import JacobiPC
from repro.ksp.pc.mg import MGPC
from repro.ksp.richardson import Richardson
from repro.pde.grid import Grid2D
from repro.pde.problems import gray_scott_jacobian, random_sparse, spd_laplacian


@pytest.fixture
def spd():
    return spd_laplacian(10)


@pytest.fixture
def nonsym():
    return random_sparse(60, density=0.1, seed=1)


def residual(a, x, b) -> float:
    return float(np.linalg.norm(a.multiply(x) - b))


class TestGMRES:
    def test_converges_on_a_nonsymmetric_system(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10).solve(nonsym, b)
        assert result.reason.converged
        assert residual(nonsym, result.x, b) < 1e-6

    def test_restart_shorter_than_needed_still_converges(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10, restart=5).solve(nonsym, b)
        assert result.reason.converged
        assert residual(nonsym, result.x, b) < 1e-6

    def test_jacobi_preconditioning_reduces_iterations(self, nonsym, rng):
        b = rng.standard_normal(60)
        plain = GMRES(rtol=1e-10).solve(nonsym, b)
        pc = GMRES(rtol=1e-10, pc=JacobiPC()).solve(nonsym, b)
        assert pc.iterations < plain.iterations

    def test_identity_converges_immediately(self, rng):
        from repro.mat.aij import AijMat

        eye = AijMat.from_dense(np.eye(7))
        b = rng.standard_normal(7)
        result = GMRES(rtol=1e-12).solve(eye, b)
        assert result.iterations <= 1
        assert np.allclose(result.x, b)

    def test_zero_rhs_returns_zero(self, nonsym):
        result = GMRES().solve(nonsym, np.zeros(60))
        assert result.reason.converged
        assert np.all(result.x == 0.0)

    def test_initial_guess_is_honoured(self, nonsym, rng):
        """A warm start from a partial solve needs fewer iterations.

        (PETSc semantics: rtol is relative to the *initial* residual of
        each solve, so even an exact x0 formally iterates; what must hold
        is that the warm start reaches a given absolute accuracy faster.)
        """
        b = rng.standard_normal(60)
        rough = GMRES(rtol=1e-3).solve(nonsym, b).x
        cold = GMRES(atol=1e-9, rtol=1e-30, max_it=200).solve(nonsym, b)
        warm = GMRES(atol=1e-9, rtol=1e-30, max_it=200).solve(nonsym, b, x0=rough)
        assert warm.reason.converged
        assert warm.iterations < cold.iterations

    def test_max_it_reports_divergence(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-14, max_it=2).solve(nonsym, b)
        assert result.reason is ConvergedReason.ITS

    def test_residual_norms_are_monotone_within_a_cycle(self, nonsym, rng):
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-10, restart=60).solve(nonsym, b)
        norms = result.residual_norms
        assert all(
            n2 <= n1 * (1 + 1e-12)
            for n1, n2 in zip(norms, norms[1:], strict=False)
        )

    def test_monitor_is_called_per_iteration(self, nonsym, rng):
        calls = []
        b = rng.standard_normal(60)
        GMRES(rtol=1e-8, monitor=lambda it, r: calls.append((it, r))).solve(
            nonsym, b
        )
        assert len(calls) >= 2
        assert calls[0][0] == 0

    def test_rectangular_operator_rejected(self, rng):
        from tests.conftest import make_random_csr

        rect = make_random_csr(5, 7, density=0.5)
        with pytest.raises(ValueError):
            GMRES().solve(rect, np.ones(5))

    def test_wrong_rhs_length_rejected(self, nonsym):
        with pytest.raises(ValueError):
            GMRES().solve(nonsym, np.ones(3))

    def test_invalid_restart_rejected(self, nonsym):
        with pytest.raises(ValueError):
            GMRES(restart=0).solve(nonsym, np.ones(60))


class TestCG:
    def test_converges_on_spd(self, spd, rng):
        b = rng.standard_normal(spd.shape[0])
        result = CG(rtol=1e-12).solve(spd, b)
        assert result.reason.converged
        assert residual(spd, result.x, b) < 1e-8

    def test_finite_termination_in_exact_arithmetic_bound(self, spd, rng):
        b = rng.standard_normal(spd.shape[0])
        result = CG(rtol=1e-12).solve(spd, b)
        assert result.iterations <= spd.shape[0] + 1

    def test_breakdown_on_an_indefinite_operator(self, rng):
        from repro.mat.aij import AijMat

        indefinite = AijMat.from_dense(np.diag([1.0, -1.0, 2.0]))
        result = CG(rtol=1e-12).solve(indefinite, np.array([1.0, 1.0, 1.0]))
        assert result.reason is ConvergedReason.BREAKDOWN

    def test_preconditioning_helps(self, rng):
        from repro.mat.aij import AijMat

        # Badly scaled SPD diagonal: Jacobi fixes it in one step.
        a = AijMat.from_dense(np.diag([1.0, 1e4, 1e-4, 50.0]))
        b = rng.standard_normal(4)
        plain = CG(rtol=1e-10).solve(a, b)
        jac = CG(rtol=1e-10, pc=JacobiPC()).solve(a, b)
        assert jac.iterations < plain.iterations


class TestRichardson:
    def test_converges_with_jacobi_on_diagonally_dominant(self, rng):
        a = random_sparse(30, density=0.1, seed=2)  # diagonally dominant
        b = rng.standard_normal(30)
        result = Richardson(pc=JacobiPC(), max_it=200, rtol=1e-10).solve(a, b)
        assert result.reason.converged

    def test_fixed_sweep_count(self, spd, rng):
        b = rng.standard_normal(spd.shape[0])
        result = Richardson(pc=JacobiPC(), max_it=3, rtol=1e-30).solve(spd, b)
        assert result.iterations == 3


class TestCountingOperator:
    def test_counts_matvecs(self, nonsym, rng):
        op = CountingOperator(nonsym)
        b = rng.standard_normal(60)
        result = GMRES(rtol=1e-8).solve(op, b)
        # One matvec per iteration plus one initial residual per cycle.
        assert op.matvecs >= result.iterations
        assert op.rows_processed == op.matvecs * 60
        op.reset()
        assert op.matvecs == 0


#: Residual-norm histories (``float.hex``) of GMRES(5), rtol 1e-12, on the
#: 16^2 Gray-Scott system with a seeded right-hand side, with MatMult in
#: SciPy's sequential CSR row-sum order.  The Arnoldi path must reproduce
#: them exactly.
PINNED_HISTORIES = {
    "jacobi": (
        "0x1.4eecb9aadb695p+4",
        "0x1.918f313fc74f4p-1",
        "0x1.e86536b7be37ap-6",
        "0x1.05b9077c82209p-12",
        "0x1.898c7f6c490bfp-17",
        "0x1.041d15418d377p-21",
        "0x1.10aec9adae253p-25",
        "0x1.05174f936134fp-30",
        "0x1.5d80bd6200c11p-37",
    ),
    "mg": (
        "0x1.4b38724eba5d9p+4",
        "0x1.f98acc7f8e335p-4",
        "0x1.611d24193e609p-11",
        "0x1.bc6d19df5b3d0p-19",
        "0x1.57147110a68bap-27",
        "0x1.3201376cda4ccp-35",
        "0x1.9bc162a3a3e2fp-43",
    ),
}


class TestGMRESPinnedHistories:
    @pytest.mark.parametrize("pc_name", sorted(PINNED_HISTORIES))
    def test_residual_history_is_bit_identical(self, pc_name):
        a = gray_scott_jacobian(16)
        b = np.random.default_rng(7).standard_normal(a.shape[0])
        if pc_name == "mg":
            pc = MGPC(grids=Grid2D(16, 16, dof=2).hierarchy(3))
        else:
            pc = JacobiPC()
        result = GMRES(rtol=1e-12, restart=5, pc=pc).solve(a, b)
        got = tuple(float(v).hex() for v in result.residual_norms)
        assert got == PINNED_HISTORIES[pc_name]
