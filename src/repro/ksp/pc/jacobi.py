"""Jacobi (diagonal) preconditioning — the paper's smoother and coarse PC.

The single-node experiments set every multigrid level *and* the coarse
solve to Jacobi (``-mg_levels_pc_type jacobi -mg_coarse_pc_type jacobi``),
precisely so the solver's time is dominated by SpMV.  Zero diagonal
entries invert to 1, following PETSc's behaviour.
"""

from __future__ import annotations

import numpy as np

from ..base import LinearOperator


class JacobiPC:
    """z = D^-1 r."""

    def __init__(self) -> None:
        self._inv_diag: np.ndarray | None = None

    def setup(self, op: LinearOperator) -> None:
        """Extract and invert the operator's diagonal."""
        diag = np.array(op.diagonal(), dtype=np.float64, copy=True)
        safe = np.where(diag != 0.0, diag, 1.0)
        self._inv_diag = 1.0 / safe

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Pointwise scale by the inverse diagonal."""
        if self._inv_diag is None:
            raise RuntimeError("JacobiPC.apply before setup")
        if r.shape != self._inv_diag.shape:
            raise ValueError("residual does not conform to the operator")
        return self._inv_diag * r
