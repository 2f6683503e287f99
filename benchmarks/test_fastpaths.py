"""Measured benchmarks of the production fast paths, all formats.

These are real timings on the host (unlike the modeled figure numbers):
every format's forward product on the reference Gray-Scott operator, the
transpose products, a SELL triangular solve, the distributed SpMV over
the simulated runtime, and the setup paths a Newton step pays for before
any product: the Jacobian assembly, MatConvert, the SELL-to-CSR round
trip, MatGetDiagonal and the Galerkin triple product, the last with its
symbolic plan cold (first step) and warm (every later step).  They guard against performance regressions in the fast
paths the solvers depend on; every product is checked bit for bit against
SciPy's CSR product, which all formats share.
"""

import numpy as np
import pytest

from repro.core.sell import SellMat
from repro.mat.aij import AijMat
from repro.mat.aij_perm import AijPermMat
from repro.mat.baij import BaijMat
from repro.mat.ellpack import EllpackMat
from repro.mat.hybrid import HybridMat

CONVERTERS = {
    "CSR": lambda csr: csr,
    "SELL": lambda csr: SellMat.from_csr(csr),
    "ELLPACK": EllpackMat.from_csr,
    "BAIJ": lambda csr: BaijMat.from_csr(csr, 2),
    "CSRPerm": AijPermMat.from_csr,
    "HYB": HybridMat.from_csr,
}


@pytest.mark.parametrize("fmt", sorted(CONVERTERS))
def test_forward_multiply(benchmark, reference_operator, reference_x, fmt):
    mat = CONVERTERS[fmt](reference_operator)
    y = np.zeros(mat.shape[0])
    benchmark(mat.multiply, reference_x, y)
    assert np.array_equal(y, reference_operator.to_scipy() @ reference_x)


def test_sell_from_csr(benchmark, reference_operator):
    sell = benchmark(SellMat.from_csr, reference_operator, 8)
    assert sell.nnz == reference_operator.nnz


def test_sell_to_csr(benchmark, reference_operator):
    # A fresh matrix every round: to_csr() is built once per matrix.
    back = benchmark.pedantic(
        lambda sell: sell.to_csr(),
        setup=lambda: ((SellMat.from_csr(reference_operator, 8),), {}),
        rounds=50,
    )
    assert np.array_equal(back.val, reference_operator.val)


@pytest.mark.parametrize("plan", ["cold", "warm"])
def test_galerkin_triple_product(benchmark, reference_operator, plan):
    """``R A P`` onto the 32x32 level; a cold plan re-runs the symbolic phase."""
    from repro.core.registry import PLANS
    from repro.ksp.pc.mg import csr_matmul, grid_transfers
    from repro.pde import Grid2D

    fine = Grid2D(64, 64, dof=2)
    p, r = grid_transfers(fine.coarsen(), fine)
    key = PLANS.matmat_key(r, reference_operator, p)

    def setup():
        if plan == "cold":
            PLANS.invalidate("matmat", key)
        return (r, reference_operator, p), {}

    coarse = benchmark.pedantic(csr_matmul, setup=setup, rounds=20)
    # The one-unit chain plan and two pairwise plans give the same bits.
    two_step = csr_matmul(csr_matmul(r, reference_operator), p)
    assert np.array_equal(coarse.rowptr, two_step.rowptr)
    assert np.array_equal(coarse.colidx, two_step.colidx)
    assert np.array_equal(coarse.val, two_step.val)


def test_gray_scott_jacobian_assembly(benchmark):
    """One Newton step's Jacobian on the reference grid (cached pattern)."""
    from repro.pde import Grid2D, GrayScottProblem

    problem = GrayScottProblem(Grid2D(64, 64, dof=2))
    w = problem.initial_state()
    jac = benchmark(problem.jacobian, w, 1.0, -0.5)
    assert jac.nnz == 10 * jac.shape[0]


@pytest.mark.parametrize("fmt", ["CSR", "SELL"])
def test_diagonal(benchmark, reference_operator, fmt):
    mat = CONVERTERS[fmt](reference_operator)
    diag = benchmark(mat.diagonal)
    assert np.array_equal(diag, reference_operator.to_scipy().diagonal())


def test_from_coo(benchmark, reference_operator):
    a = reference_operator
    rows = np.repeat(np.arange(a.shape[0]), a.row_lengths())
    # Reversed triplets, so the assembly has real sorting to do.
    rows, cols, vals = rows[::-1], a.colidx[::-1], a.val[::-1]
    back = benchmark(AijMat.from_coo, a.shape, rows, cols, vals)
    assert np.array_equal(back.colidx, a.colidx)


def test_transpose_multiply_csr(benchmark, reference_operator, reference_x):
    y = benchmark(reference_operator.multiply_transpose, reference_x)
    assert np.array_equal(y, reference_operator.to_scipy().T @ reference_x)


def test_transpose_multiply_sell(benchmark, reference_operator, reference_x):
    sell = SellMat.from_csr(reference_operator)
    y = benchmark(sell.multiply_transpose, reference_x)
    assert np.array_equal(y, reference_operator.to_scipy().T @ reference_x)


def test_sell_triangular_solve(benchmark, reference_operator):
    from repro.core.triangular import SellTriangular, ilu0

    lower, _ = ilu0(reference_operator)
    tri = SellTriangular(lower, lower=True)
    b = np.random.default_rng(0).standard_normal(lower.shape[0])
    x = benchmark(tri.solve, b)
    assert np.isfinite(x).all()


def test_distributed_spmv_two_ranks(benchmark, reference_operator, reference_x):
    """The whole 4-step parallel SpMV, including the simulated exchange."""
    from repro.comm.spmd import run_spmd
    from repro.mat.mpi_aij import MPIAij
    from repro.vec.mpi_vec import MPIVec

    def one_round():
        def prog(comm):
            a = MPIAij.from_global_csr(comm, reference_operator)
            xv = MPIVec.from_global(comm, a.layout, reference_x)
            for _ in range(5):
                y = a.multiply(xv)
            return float(y.norm("2"))

        return run_spmd(2, prog)

    norms = benchmark.pedantic(one_round, rounds=1, iterations=1)
    assert norms[0] == norms[1]


def test_gmres_mg_solve(benchmark, reference_operator):
    """One full preconditioned solve on the reference operator."""
    from repro.ksp import GMRES, MGPC
    from repro.pde import Grid2D

    grid = Grid2D(64, 64, dof=2)
    b = np.random.default_rng(1).standard_normal(reference_operator.shape[0])

    def solve():
        pc = MGPC(grids=grid.hierarchy(3))
        return GMRES(pc=pc, rtol=1e-8).solve(reference_operator, b)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert result.reason.converged
