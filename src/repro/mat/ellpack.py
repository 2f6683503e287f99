"""ELLPACK and ELLPACK-R formats (paper Section 2.5).

Classic ELLPACK shifts each row's nonzeros left and stores the result as a
dense ``m x L`` array, ``L`` the longest row; short rows are padded with
zeros.  The format vectorizes beautifully — and wastes memory in proportion
to row-length spread, which is exactly the weakness sliced ELLPACK
(:mod:`repro.core.sell`) fixes.  ELLPACK-R (Vazquez et al.) carries an
additional per-row length array so kernels can skip padded work.

Storage is column-major (``order='F'``), matching the paper's description
of elements stored "column by column" so that a vector register spans
*rows*, not columns.  Conversion from CSR is whole-array: every entry is
scattered to ``(row, position in row)`` in one step.
"""

from __future__ import annotations

import numpy as np

from .aij import AijMat
from .base import Mat, register_format


class EllpackMat(Mat):
    """Dense-padded ELLPACK, with the optional ELLPACK-R length array."""

    format_name = "ELLPACK"

    def __init__(
        self,
        shape: tuple[int, int],
        val: np.ndarray,
        colidx: np.ndarray,
        rlen: np.ndarray,
    ):
        m, n = shape
        val = np.asfortranarray(np.asarray(val, dtype=np.float64))
        colidx = np.asfortranarray(np.asarray(colidx, dtype=np.int32))
        rlen = np.asarray(rlen, dtype=np.int64)
        if val.shape != colidx.shape or val.ndim != 2 or val.shape[0] != m:
            raise ValueError("val/colidx must be conforming m x L arrays")
        if rlen.shape != (m,):
            raise ValueError("rlen must have one entry per row")
        if np.any(rlen < 0) or (val.size and np.any(rlen > val.shape[1])):
            raise ValueError("row lengths out of range")
        if val.size and (colidx.min() < 0 or colidx.max() >= n):
            raise IndexError("column index out of range")
        self._shape = (m, n)
        self.val = val
        self.colidx = colidx
        self.rlen = rlen

    @classmethod
    def from_csr(cls, csr: AijMat) -> "EllpackMat":
        """Convert from CSR, padding every row to the longest one.

        Padded slots carry value zero and a *valid local* column index
        (the row's last real column, or column 0 for empty rows) so that
        gathers through them never touch out-of-range memory — the same
        trick the paper applies to SELL padding (Section 5.5).
        """
        m, n = csr.shape
        lengths = csr.row_lengths()
        width = int(lengths.max()) if m and csr.nnz else 0
        rows, slot = row_positions(csr)
        val = np.zeros((m, width), order="F")
        colidx = np.empty((m, width), dtype=np.int32, order="F")
        colidx[:] = padding_columns(csr)[:, None]
        val[rows, slot] = csr.val
        colidx[rows, slot] = csr.colidx
        return cls((m, n), val, colidx, lengths)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.rlen.sum())

    @property
    def width(self) -> int:
        """The padded row length L."""
        return int(self.val.shape[1]) if self.val.ndim == 2 else 0

    @property
    def val_f(self) -> np.ndarray:
        """Flat (Fortran-order) view of the values: offset ``j*m + i``.

        A *view*, not a copy: kernels address the value storage through it,
        and the trace layer identifies buffers by base address.
        """
        cached = getattr(self, "_val_f", None)
        if cached is None:
            cached = self.val.reshape(-1, order="F")
            self._val_f = cached
        return cached

    @property
    def colidx_f(self) -> np.ndarray:
        """Flat (Fortran-order) view of the column indices."""
        cached = getattr(self, "_colidx_f", None)
        if cached is None:
            cached = self.colidx.reshape(-1, order="F")
            self._colidx_f = cached
        return cached

    @property
    def padded_entries(self) -> int:
        """Stored slots that are padding, the ELLPACK storage penalty."""
        return int(self.val.size - self.nnz)

    def to_csr(self) -> AijMat:
        m, n = self.shape
        # Real slots are j < rlen[i]; a boolean mask reads them row by row.
        real = np.arange(self.width)[None, :] < self.rlen[:, None]
        rows = np.repeat(np.arange(m, dtype=np.int64), self.rlen)
        return AijMat.from_coo(
            (m, n),
            rows,
            self.colidx[real],
            self.val[real],
            sum_duplicates=False,
        )

    def memory_bytes(self) -> int:
        # Padded val (8B) + colidx (4B) slots, plus the rlen array (8B/row).
        return int(self.val.size * 12 + self.rlen.shape[0] * 8)


def row_positions(csr: AijMat) -> tuple[np.ndarray, np.ndarray]:
    """(row, position within the row) of every CSR entry, in storage order."""
    lengths = csr.row_lengths()
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), lengths)
    slot = np.arange(csr.nnz, dtype=np.int64) - np.repeat(csr.rowptr[:-1], lengths)
    return rows, slot


def padding_columns(csr: AijMat, width: int | None = None) -> np.ndarray:
    """Per row, the column of its last entry among the first ``width``
    (all by default), or 0 for an empty row: the padding column."""
    lengths = csr.row_lengths()
    if width is not None:
        lengths = np.minimum(lengths, width)
    last = np.zeros(csr.shape[0], dtype=np.int32)
    nonempty = lengths > 0
    last[nonempty] = csr.colidx[(csr.rowptr[:-1] + lengths - 1)[nonempty]]
    return last


# ELLPACK and ELLPACK-R share the storage (EllpackMat always carries the
# rlen array); the two registrations exist because the *kernels* differ —
# ELLPACK multiplies padding, ELLPACK-R masks it off per rlen.
@register_format("ELLPACK", "ELLPACK-R")
def _ellpack_from_csr(csr: AijMat) -> EllpackMat:
    return EllpackMat.from_csr(csr)
