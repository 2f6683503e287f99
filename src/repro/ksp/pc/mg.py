"""Geometric multigrid preconditioning (the paper's ``-pc_type mg``).

The Gray-Scott solves use a V-cycle with damped-Jacobi smoothing on every
level and a Jacobi-preconditioned coarse solve (paper Section 7.2's exact
option set), so that SpMV dominates on *all* levels — the coarsened
operators have the same 10-nonzeros-per-row structure at smaller sizes,
which is why Figure 7 finds performance insensitive to the grid size.

Pieces:

* :func:`bilinear_prolongation` — periodic bilinear interpolation between
  factor-2 grids, per degree of freedom (the DMDA interpolation);
  :func:`grid_transfers` builds it and its restriction once per grid pair;
* :func:`csr_matmul` — a fully vectorized CSR product chain, used for the
  Galerkin triple product ``R A P`` when no rediscretization callback is
  supplied.  It is split like PETSc's ``MatPtAP`` with
  ``MAT_REUSE_MATRIX``: a symbolic :class:`ProductPlan` per structure, and
  a numeric phase per call that is bitwise equal to the expand-and-
  assemble product;
* :class:`MGPC` — the V/W-cycle preconditioner; each level holds its
  operator behind a :class:`~repro.ksp.base.CountingOperator` so the
  benchmarks can attribute every matvec, level by level, as -log_view does.

Symbolic once, numeric per step: the Gray-Scott Jacobian keeps one
sparsity structure for a whole run, so the transfers and the Galerkin
plans are computed once and kept in :data:`repro.core.registry.PLANS`,
keyed by grid pair and by factor structure.  Both are shared and
read-only; a caller that needs a scaled transfer copies it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ...core.registry import PLANS, read_only
from ...mat.aij import AijMat, coo_pattern
from ...obs.observer import obs_event
from ...pde.grid import Grid2D
from ..base import CountingOperator, LinearOperator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...core.context import ExecutionContext


@dataclass(frozen=True)
class _ProductStage:
    """One step ``L @ F`` of a product chain, with the values left out."""

    left: np.ndarray  #: index into L's values of every expanded product
    right: np.ndarray  #: index into F's values of every expanded product
    segments: np.ndarray  #: output entry every product adds into
    nnz: int  #: output entries


@dataclass(frozen=True)
class ProductPlan:
    """The symbolic phase of :func:`csr_matmul` (PETSc's MatMatMultSymbolic).

    Holds the output pattern and, per left-to-right step of the chain, the
    gather maps from expanded products to output entries, already in the
    stable ``(row, col)`` order :meth:`AijMat.from_coo` sorts triplets
    into.  The arrays are read-only: one plan serves every product on the
    same structures, whatever their values.
    """

    shape: tuple[int, int]
    rowptr: np.ndarray
    colidx: np.ndarray
    stages: tuple[_ProductStage, ...]

    @classmethod
    def build(cls, *factors: AijMat) -> "ProductPlan":
        """Expand every left entry into the right row it multiplies (the
        Gustavson formulation flattened into index arithmetic) and sort
        the products once, per step of the chain."""
        shape = factors[0].shape
        rowptr, colidx = factors[0].rowptr, factors[0].colidx
        stages = []
        for f in factors[1:]:
            m = shape[0]
            shape = (m, f.shape[1])
            left_rows = np.repeat(np.arange(m, dtype=np.int64), np.diff(rowptr))
            left_cols = colidx.astype(np.int64)
            reps = f.row_lengths()[left_cols]
            total = int(reps.sum())
            cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
            right = np.arange(total, dtype=np.int64)
            right += np.repeat(f.rowptr[left_cols] - cum, reps)
            left = np.repeat(np.arange(left_cols.size, dtype=np.int64), reps)
            pattern = coo_pattern(
                shape, np.repeat(left_rows, reps), f.colidx[right]
            )
            rowptr, colidx = pattern.rowptr, pattern.colidx
            segments = pattern.segments
            if segments is None:  # no products at all
                segments = np.zeros(0, dtype=np.int64)
            stage = _ProductStage(
                left[pattern.order], right[pattern.order], segments,
                int(colidx.size),
            )
            read_only(stage.left, stage.right, stage.segments)
            stages.append(stage)
        colidx = colidx.astype(np.int32)
        read_only(rowptr, colidx)
        return cls(shape, rowptr, colidx, tuple(stages))

    def numeric(self, *factors: AijMat) -> AijMat:
        """The product of ``factors`` (which must have the planned
        structures): per step one gather-multiply, then the ordered segment
        sum ``from_coo(sum_duplicates=True)`` runs — the same products
        added in the same order, so the same bits."""
        vals = factors[0].val
        for stage, f in zip(self.stages, factors[1:], strict=True):
            vals = np.bincount(
                stage.segments,
                weights=vals[stage.left] * f.val[stage.right],
                minlength=stage.nnz,
            )
        return AijMat(self.shape, self.rowptr, self.colidx, vals)


def csr_matmul(*factors: AijMat) -> AijMat:
    """``A @ B`` (or a longer chain, multiplied left to right) for CSR
    operands, fully vectorized.

    The symbolic phase (:class:`ProductPlan`) runs once per combination
    of factor structures and is kept in the process-wide plan store
    (:data:`repro.core.registry.PLANS`); every call then pays only the
    numeric phase.  ``csr_matmul(r, a, p)`` is bitwise equal to
    ``csr_matmul(csr_matmul(r, a), p)`` without building or hashing the
    intermediate ``r @ a``.
    """
    if len(factors) < 2:
        raise ValueError("csr_matmul needs at least two factors")
    for a, b in zip(factors, factors[1:], strict=False):
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions differ: {a.shape[1]} vs {b.shape[0]}"
            )

    def symbolic() -> ProductPlan:
        with obs_event("MatMatMultSymbolic"):
            return ProductPlan.build(*factors)

    plan = PLANS.get_or_compute("matmat", PLANS.matmat_key(*factors), symbolic)
    with obs_event("MatMatMultNumeric"):
        return plan.numeric(*factors)


def bilinear_prolongation(coarse: Grid2D, fine: Grid2D) -> AijMat:
    """Periodic bilinear interpolation from ``coarse`` to ``fine``.

    Fine points coincident with coarse points copy them; edge midpoints
    average two coarse neighbours; cell centers average four.  Each DOF
    component interpolates independently (the operator is block-diagonal
    over components).
    """
    if fine.nx != 2 * coarse.nx or fine.ny != 2 * coarse.ny:
        raise ValueError("prolongation expects exact factor-2 grids")
    if fine.dof != coarse.dof:
        raise ValueError("grids must share the DOF count")
    dof = fine.dof
    nxf, nyf = fine.nx, fine.ny
    nxc, nyc = coarse.nx, coarse.ny

    fi, fj = np.meshgrid(np.arange(nxf), np.arange(nyf))  # fj rows = j
    fi = fi.ravel()
    fj = fj.ravel()
    fine_pt = fj * nxf + fi

    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []

    ci0 = fi // 2
    cj0 = fj // 2
    ci1 = (ci0 + 1) % nxc
    cj1 = (cj0 + 1) % nyc
    odd_i = (fi % 2).astype(bool)
    odd_j = (fj % 2).astype(bool)

    # The four coarse corners and their bilinear weights per fine point.
    corners = (
        (ci0, cj0, np.where(odd_i, 0.5, 1.0) * np.where(odd_j, 0.5, 1.0)),
        (ci1, cj0, np.where(odd_i, 0.5, 0.0) * np.where(odd_j, 0.5, 1.0)),
        (ci0, cj1, np.where(odd_i, 0.5, 1.0) * np.where(odd_j, 0.5, 0.0)),
        (ci1, cj1, np.where(odd_i, 0.5, 0.0) * np.where(odd_j, 0.5, 0.0)),
    )
    for ci, cj, w in corners:
        nzmask = w != 0.0
        coarse_pt = cj[nzmask] * nxc + ci[nzmask]
        for c in range(dof):
            rows_parts.append(fine_pt[nzmask] * dof + c)
            cols_parts.append(coarse_pt * dof + c)
            vals_parts.append(w[nzmask])

    return AijMat.from_coo(
        (fine.ndof, coarse.ndof),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
        sum_duplicates=True,
    )


def full_weighting_restriction(prolongation: AijMat) -> AijMat:
    """R = P^T / 4: the adjoint restriction, scaled for 2D factor-2 grids."""
    r = prolongation.transpose()
    r.val *= 0.25
    return r


def grid_transfers(coarse: Grid2D, fine: Grid2D) -> tuple[AijMat, AijMat]:
    """``(P, R)`` between two grids, built once per grid pair.

    The pair lives in the plan store and is shared by every
    :class:`MGPC` on those grids, so its arrays are read-only: a transfer
    is never mutated (scale a copy instead).
    """

    def build() -> tuple[AijMat, AijMat]:
        p = bilinear_prolongation(coarse, fine)
        r = full_weighting_restriction(p)
        for mat in (p, r):
            read_only(mat.rowptr, mat.colidx, mat.val)
        return p, r

    return PLANS.get_or_compute(
        "transfer", PLANS.transfer_key(coarse, fine), build
    )


@dataclass
class MGLevel:
    """One multigrid level: operator, inverse diagonal, transfer down."""

    op: CountingOperator
    inv_diag: np.ndarray
    prolongation: AijMat | None  #: from the next-coarser level (None at the bottom)
    restriction: AijMat | None


class MGPC:
    """Geometric multigrid V/W-cycle preconditioner.

    Parameters
    ----------
    grids:
        The hierarchy, finest first (``Grid2D.hierarchy``); only needed
        when operators are rediscretized or transfers must be built.
    operator_factory:
        Optional callback ``grid -> AijMat`` rediscretizing the operator
        per level (PETSc's DMDA default).  When omitted, coarse operators
        are Galerkin triple products ``R A P``.
    levels:
        Level count when ``grids`` is omitted (Galerkin on implied grids is
        impossible then, so ``grids`` is required for levels > 1).
    smooth_down / smooth_up:
        Damped-Jacobi sweeps before/after coarse correction.
    omega:
        Jacobi damping (2/3 is the 2D heuristic optimum).
    coarse_sweeps:
        Jacobi sweeps standing in for the coarse solve (the paper's
        ``-mg_coarse_pc_type jacobi``).
    cycle:
        ``"v"`` or ``"w"``.
    context:
        Optional :class:`~repro.core.context.ExecutionContext`.  When
        attached, every *coarse* level's assembled operator is reformatted
        (and, absent a default variant, autotuned) through the context —
        each level gets its own format decision, memoized per that level's
        sparsity signature.  The finest level keeps the caller's operator
        untouched, exactly like the caller-configured ``-dm_mat_type``.
    """

    def __init__(
        self,
        grids: list[Grid2D] | None = None,
        operator_factory: Callable[[Grid2D], AijMat] | None = None,
        smooth_down: int = 2,
        smooth_up: int = 2,
        omega: float = 2.0 / 3.0,
        coarse_sweeps: int = 8,
        cycle: str = "v",
        context: "ExecutionContext | None" = None,
    ):
        if cycle not in ("v", "w"):
            raise ValueError("cycle must be 'v' or 'w'")
        if grids is not None and len(grids) < 1:
            raise ValueError("need at least one grid")
        self.grids = grids
        self.operator_factory = operator_factory
        self.smooth_down = smooth_down
        self.smooth_up = smooth_up
        self.omega = omega
        self.coarse_sweeps = coarse_sweeps
        self.cycle = cycle
        self.context = context
        self.levels: list[MGLevel] = []

    # -- setup ----------------------------------------------------------
    def setup(self, op: LinearOperator) -> None:
        """Build the level hierarchy under the given fine operator.

        Only the numeric work repeats per call: the transfers come from
        :func:`grid_transfers` and each Galerkin product ``R A P`` reuses
        the plan of its structure, so a Newton step that reassembles
        values on one stencil re-sorts nothing.
        """
        self.levels = []
        if self.grids is None or len(self.grids) == 1:
            self.levels.append(self._make_level(op, None, None))
            return
        if not hasattr(op, "to_csr"):
            raise TypeError("MGPC needs a fine operator exposing to_csr()")

        current: AijMat = op.to_csr()
        prolongations: list[AijMat | None] = [None]
        restrictions: list[AijMat | None] = [None]
        ops: list[AijMat] = [current]
        for lvl in range(1, len(self.grids)):
            fine_grid, coarse_grid = self.grids[lvl - 1], self.grids[lvl]
            p, r = grid_transfers(coarse_grid, fine_grid)
            if self.operator_factory is not None:
                coarse_op = self.operator_factory(coarse_grid)
            else:
                coarse_op = csr_matmul(r, current, p)
            prolongations.append(p)
            restrictions.append(r)
            ops.append(coarse_op)
            current = coarse_op

        # Level 0 wraps the caller's operator so its matvecs are counted
        # with whatever format (CSR or SELL) the caller configured.
        self.levels.append(self._make_level(op, None, None))
        for lvl in range(1, len(self.grids)):
            # Coarse operators stay CSR through the Galerkin products
            # above; only the *level* operator the smoother applies is
            # reformatted, each level tuned on its own sparsity.
            level_op: LinearOperator = ops[lvl]
            if self.context is not None:
                level_op = self.context.reformat(ops[lvl])
            self.levels.append(
                self._make_level(level_op, prolongations[lvl], restrictions[lvl])
            )

    def _make_level(
        self,
        op: LinearOperator,
        p: AijMat | None,
        r: AijMat | None,
    ) -> MGLevel:
        diag = np.array(op.diagonal(), dtype=np.float64, copy=True)
        inv_diag = 1.0 / np.where(diag != 0.0, diag, 1.0)
        counting = op if isinstance(op, CountingOperator) else CountingOperator(op)
        return MGLevel(op=counting, inv_diag=inv_diag, prolongation=p,
                       restriction=r)

    # -- cycling -----------------------------------------------------------
    def _smooth(
        self, level: MGLevel, x: np.ndarray, b: np.ndarray, sweeps: int
    ) -> np.ndarray:
        for _ in range(sweeps):
            x = x + self.omega * level.inv_diag * (b - level.op.multiply(x))
        return x

    def _cycle(self, lvl: int, b: np.ndarray) -> np.ndarray:
        level = self.levels[lvl]
        if lvl == len(self.levels) - 1:
            # Coarse "solve": Jacobi sweeps, per the paper's options.
            sweeps = self.coarse_sweeps if len(self.levels) > 1 else max(
                self.coarse_sweeps, 1
            )
            return self._smooth(level, np.zeros_like(b), b, sweeps)
        x = self._smooth(level, np.zeros_like(b), b, self.smooth_down)
        coarse = self.levels[lvl + 1]
        r = b - level.op.multiply(x)
        rc = coarse.restriction.multiply(r)
        ec = self._cycle(lvl + 1, rc)
        if self.cycle == "w" and lvl + 1 < len(self.levels) - 1:
            rc2 = rc - self.levels[lvl + 1].op.multiply(ec)
            ec = ec + self._cycle(lvl + 1, rc2)
        x = x + coarse.prolongation.multiply(ec)
        return self._smooth(level, x, b, self.smooth_up)

    def apply(self, r: np.ndarray) -> np.ndarray:
        """One multigrid cycle from a zero initial guess (a linear PC)."""
        if not self.levels:
            raise RuntimeError("MGPC.apply before setup")
        if r.shape[0] != self.levels[0].op.shape[0]:
            raise ValueError("residual does not conform to the operator")
        return self._cycle(0, r)

    # -- accounting ---------------------------------------------------------
    def matvec_counts(self) -> list[int]:
        """MatMults executed per level since setup (finest first)."""
        return [level.op.matvecs for level in self.levels]

    def rows_processed(self) -> list[int]:
        """Rows streamed per level — proportional to SpMV volume."""
        return [level.op.rows_processed for level in self.levels]
