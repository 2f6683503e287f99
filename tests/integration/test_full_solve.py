"""End-to-end Gray-Scott runs through the full TS->SNES->KSP->MG stack.

This is the paper's experiment in miniature: the simulation of Section 7
with every matrix format plugged into the same solver configuration, plus
the properties that justify the experimental design (grid-size-insensitive
iteration counts, format-independent trajectories).
"""

import numpy as np
import pytest

from repro.core.sell import SellMat
from repro.ksp import GMRES, JacobiPC, MGPC, ThetaMethod
from repro.mat.aij_perm import AijPermMat
from repro.mat.baij import BaijMat
from repro.mat.ellpack import EllpackMat
from repro.pde import Grid2D, GrayScottProblem


def make_ts(problem, operator_wrapper=None, levels=None, collected=None):
    grid = problem.grid

    def ksp_factory():
        if levels is None:
            pc = JacobiPC()
        else:
            pc = MGPC(grids=grid.hierarchy(levels))
            if collected is not None:
                collected.append(pc)
        return GMRES(pc=pc, rtol=1e-8, restart=30)

    return ThetaMethod(
        rhs=problem.rhs,
        jacobian=problem.jacobian,
        ksp_factory=ksp_factory,
        operator_wrapper=operator_wrapper,
        dt=1.0,
    )


@pytest.fixture(scope="module")
def reference_run():
    """Three Crank-Nicolson steps with the default CSR operator."""
    problem = GrayScottProblem(Grid2D(16, 16, dof=2))
    ts = make_ts(problem)
    return problem, ts.integrate(problem.initial_state(), 3)


class TestFormatEquivalence:
    def test_sell_operator_reproduces_the_csr_trajectory(self, reference_run):
        """The headline correctness claim: -dm_mat_type sell changes
        performance, not results."""
        problem, reference = reference_run
        ts = make_ts(
            problem, operator_wrapper=lambda m: SellMat.from_csr(m.to_csr())
        )
        sell_run = ts.integrate(problem.initial_state(), 3)
        diff = np.abs(sell_run.final_state - reference.final_state).max()
        assert diff < 1e-10

    def test_baij_operator_reproduces_the_csr_trajectory(self, reference_run):
        problem, reference = reference_run
        ts = make_ts(
            problem, operator_wrapper=lambda m: BaijMat.from_csr(m.to_csr(), 2)
        )
        baij_run = ts.integrate(problem.initial_state(), 3)
        diff = np.abs(baij_run.final_state - reference.final_state).max()
        assert diff < 1e-10

    def test_sorted_sell_also_reproduces_the_trajectory(self, reference_run):
        problem, reference = reference_run
        ts = make_ts(
            problem,
            operator_wrapper=lambda m: SellMat.from_csr(m.to_csr(), 8, sigma=16),
        )
        run = ts.integrate(problem.initial_state(), 3)
        assert np.abs(run.final_state - reference.final_state).max() < 1e-10


class TestSolverBehaviour:
    def test_solution_stays_physical(self, reference_run):
        """Concentrations remain in [0, ~1.2] over the integration."""
        _, reference = reference_run
        w = reference.final_state
        assert np.all(np.isfinite(w))
        assert w.min() > -1e-6
        assert w.max() < 1.5

    def test_pattern_starts_developing(self, reference_run):
        """The seeded square must evolve, not decay to the trivial state."""
        problem, reference = reference_run
        u, v = problem.split(reference.final_state)
        assert v.max() > 0.05

    def test_newton_converges_in_a_few_iterations(self, reference_run):
        _, reference = reference_run
        for s in reference.stats:
            assert s.newton_iterations <= 4

    def test_multigrid_iteration_counts_are_resolution_insensitive(self):
        """Section 7: multigrid avoids 'the typical increase in the number
        of iterations as the grid is refined'."""
        linear_its = {}
        for n in (16, 32):
            problem = GrayScottProblem(Grid2D(n, n, dof=2))
            ts = make_ts(problem, levels=3)
            result = ts.integrate(problem.initial_state(), 2)
            linear_its[n] = result.total_linear_iterations
        assert abs(linear_its[32] - linear_its[16]) <= 4

    def test_mg_levels_all_perform_matvecs(self):
        collected = []
        problem = GrayScottProblem(Grid2D(16, 16, dof=2))
        ts = make_ts(problem, levels=3, collected=collected)
        ts.integrate(problem.initial_state(), 1)
        totals = [0, 0, 0]
        for pc in collected:
            for lvl, c in enumerate(pc.matvec_counts()):
                totals[lvl] += c
        assert all(t > 0 for t in totals)

    def test_jacobian_rebuilt_every_newton_iteration(self, reference_run):
        """Section 7: 'the Jacobian matrix needs to be updated at each
        Newton iteration'."""
        _, reference = reference_run
        for s in reference.stats:
            assert s.jacobian_builds == s.newton_iterations


def final_state_digest(operator_wrapper) -> str:
    """SHA-256 of the state after 2 Crank-Nicolson steps on 16^2 with
    Newton + GMRES(30) + 3-level MG, the Jacobian wrapped at every Newton
    iteration (the benchmark's stepper)."""
    import hashlib

    grid = Grid2D(16, 16, dof=2)
    problem = GrayScottProblem(grid)
    ts = ThetaMethod(
        rhs=problem.rhs,
        jacobian=problem.jacobian,
        ksp_factory=lambda: GMRES(
            pc=MGPC(grids=grid.hierarchy(3)), rtol=1e-8, restart=30
        ),
        operator_wrapper=operator_wrapper,
        theta=0.5,
        dt=1.0,
        snes_rtol=1e-8,
    )
    w = problem.initial_state(seed=1)
    for _ in range(2):
        w, _ = ts.step(w)
    return hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()


class TestTrajectoryPin:
    #: SHA-256 of the final-state bytes of :func:`final_state_digest`.
    #: Any change to the arithmetic or ordering of assembly, MatConvert,
    #: MatGetDiagonal or MatMult (SciPy's sequential CSR row sum, for every
    #: format) shows up here as a new digest.
    FINAL_STATE_SHA256 = (
        "61f5c89e20e2f6d1f013503b121e106a68b507d962f2f6d7b16f58af3360b039"
    )

    def test_sell_mg_run_is_bit_identical(self):
        digest = final_state_digest(lambda m: SellMat.from_csr(m.to_csr(), 8))
        assert digest == self.FINAL_STATE_SHA256

    @pytest.mark.parametrize(
        "fmt", ["AIJ", "SELL-sigma64", "ELLPACK", "CSRPerm", "BAIJ2"]
    )
    def test_every_operator_format_gives_the_same_trajectory(self, fmt):
        """README rule 1: the trajectory does not depend on the format
        the Jacobian is stored in, down to the last bit."""
        wrap = {
            "AIJ": lambda m: m.to_csr(),
            "SELL-sigma64": lambda m: SellMat.from_csr(m.to_csr(), 8, sigma=64),
            "ELLPACK": lambda m: EllpackMat.from_csr(m.to_csr()),
            "CSRPerm": lambda m: AijPermMat.from_csr(m.to_csr()),
            "BAIJ2": lambda m: BaijMat.from_csr(m.to_csr(), 2),
        }[fmt]
        assert final_state_digest(wrap) == self.FINAL_STATE_SHA256
