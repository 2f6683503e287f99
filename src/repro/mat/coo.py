"""Coordinate (COO) format: triplets, the assembly interchange format.

COO is both a first-class format (the tail part of the Bell-Garland hybrid,
:mod:`repro.mat.hybrid`) and the intermediate every assembler produces.
Duplicate entries accumulate, matching PETSc's ``ADD_VALUES`` semantics.
"""

from __future__ import annotations

import numpy as np

from .base import Mat


class CooMat(Mat):
    """An (i, j, v) triplet matrix."""

    format_name = "COO"

    def __init__(
        self,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ):
        m, n = shape
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be non-negative")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be conforming 1-D arrays")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise IndexError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise IndexError("column index out of range")
        self._shape = (m, n)
        self.rows = rows
        self.cols = cols
        self.vals = vals

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        """Triplet count (duplicates counted separately until conversion)."""
        return int(self.vals.size)

    def to_csr(self) -> "AijMat":
        from .aij import AijMat

        return AijMat.from_coo(
            self.shape, self.rows, self.cols, self.vals, sum_duplicates=True
        )

    def memory_bytes(self) -> int:
        # 8-byte values plus two 4-byte index arrays per entry.
        return int(self.vals.size * (8 + 4 + 4))
