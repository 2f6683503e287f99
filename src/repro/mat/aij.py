"""AIJ — compressed sparse row, PETSc's default matrix format.

The baseline of every comparison in the paper.  Storage follows Figure 3:
``val`` (nonzeros, row-major), ``colidx`` (their columns, int32 as in a
32-bit-index PETSc build), and ``rowptr`` (first-nonzero offsets, int64).
Values within a row are kept column-sorted, which PETSc guarantees after
assembly and which the SELL conversion relies on.

Every operation is whole-array NumPy, with no Python loop over rows:

* :meth:`AijMat.from_coo` (MatAssembly) is one stable sort of the int64
  key ``row*n + col`` — the same permutation as a stable (row, col)
  lexsort — after which columns and row pointers are read off the sorted
  keys.  Indices are range-checked before they are keyed, so an
  out-of-range triplet raises instead of aliasing onto another entry.
  The sort is its symbolic phase, :func:`coo_pattern`, which callers that
  reassemble one pattern many times keep and reuse;
* :meth:`AijMat.diagonal` (MatGetDiagonal) masks ``colidx == row`` and
  ``bincount``-sums the hits, so duplicate and unsorted entries count
  exactly as in :meth:`multiply` and ``to_dense``;
* the production matvec is the base class's SciPy CSR handle, which
  sums each row sequentially in storage order — the one order every
  format's :meth:`~repro.mat.base.Mat.multiply` shares; the
  instruction-level kernels that reproduce Algorithm 1 live in
  :mod:`repro.core.kernels_csr` and are tested to agree with this path.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..memory.spaces import aligned_alloc
from .base import Mat, register_format


class CooPattern(NamedTuple):
    """The value-free half of :meth:`AijMat.from_coo` (its symbolic phase).

    Sorted triplet ``k`` is input triplet ``order[k]``; with duplicates
    summed, it adds into output entry ``segments[k]`` (``None`` when
    duplicates are kept, or there are no triplets).  A caller that
    assembles the same ``(rows, cols)`` many times keeps the pattern and
    runs only the numeric phase, which is bitwise the same as
    ``from_coo``::

        vals = vals[pattern.order]
        if pattern.segments is not None:
            vals = np.bincount(pattern.segments, weights=vals)
        AijMat(shape, pattern.rowptr, pattern.colidx, vals)
    """

    order: np.ndarray
    segments: np.ndarray | None
    rowptr: np.ndarray
    colidx: np.ndarray


def coo_pattern(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    sum_duplicates: bool = True,
) -> CooPattern:
    """Where each triplet lands in CSR: one stable sort of ``row*n + col``.

    Indices are range-checked before they are keyed, so an out-of-range
    triplet raises instead of aliasing onto another entry.
    """
    m, n = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise IndexError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise IndexError("column index out of range")
    key = rows * n + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    segments = None
    if sum_duplicates and key.size:
        keep = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        segments = np.cumsum(keep) - 1
        key = key[keep]
    # Keys are sorted, so row i starts at the first key >= i*n.
    rowptr = np.searchsorted(key, np.arange(m + 1, dtype=np.int64) * n)
    return CooPattern(order, segments, rowptr, key % n)


class AijMat(Mat):
    """A sequential CSR matrix with aligned storage."""

    format_name = "CSR"

    def __init__(
        self,
        shape: tuple[int, int],
        rowptr: np.ndarray,
        colidx: np.ndarray,
        val: np.ndarray,
        alignment: int = 64,
        check: bool = True,
    ):
        m, n = shape
        rowptr = np.asarray(rowptr, dtype=np.int64)
        colidx = np.asarray(colidx, dtype=np.int32)
        val = np.asarray(val, dtype=np.float64)
        if check:
            if m < 0 or n < 0:
                raise ValueError("matrix dimensions must be non-negative")
            if rowptr.shape != (m + 1,):
                raise ValueError(f"rowptr must have {m + 1} entries")
            if rowptr[0] != 0 or np.any(np.diff(rowptr) < 0):
                raise ValueError("rowptr must be non-decreasing from zero")
            if rowptr[-1] != val.shape[0] or colidx.shape != val.shape:
                raise ValueError("rowptr, colidx, val are inconsistent")
            if val.size and (colidx.min() < 0 or colidx.max() >= n):
                raise IndexError("column index out of range")
        self._shape = (m, n)
        self.rowptr = rowptr
        # Values and indices live in aligned buffers so the engine kernels
        # see the same alignment properties PETSc arranges (Section 3.1).
        self.colidx = aligned_alloc(colidx.shape[0], np.int32, alignment)
        self.colidx[:] = colidx
        self.val = aligned_alloc(val.shape[0], np.float64, alignment)
        self.val[:] = val

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        sum_duplicates: bool = True,
    ) -> "AijMat":
        """Build CSR from triplets; duplicates accumulate (ADD_VALUES).

        Entries are ordered by (row, column); duplicates keep their input
        order, so ``sum_duplicates=False`` stores them in that order and
        summing adds them in it.
        """
        pattern = coo_pattern(shape, rows, cols, sum_duplicates)
        vals = np.asarray(vals, dtype=np.float64)[pattern.order]
        if pattern.segments is not None:
            vals = np.bincount(pattern.segments, weights=vals)
        return cls(shape, pattern.rowptr, pattern.colidx, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray, drop_tol: float = 0.0) -> "AijMat":
        """CSR from a dense array, dropping entries with |v| <= drop_tol."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows, cols = np.nonzero(np.abs(dense) > drop_tol)
        return cls.from_coo(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def from_scipy(cls, sp_mat) -> "AijMat":
        """CSR from a scipy.sparse matrix (testing convenience)."""
        csr = sp_mat.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape, csr.indptr, csr.indices, csr.data)

    def to_scipy(self):
        """scipy.sparse.csr_matrix view of this matrix (copies)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.val.copy(), self.colidx.copy(), self.rowptr.copy()),
            shape=self.shape,
        )

    # -- Mat interface -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    def to_csr(self) -> "AijMat":
        return self

    def memory_bytes(self) -> int:
        # val (8B) + colidx (4B) per nonzero, rowptr (8B) per row + 1.
        return int(self.nnz * 12 + self.rowptr.shape[0] * 8)

    # -- format-specific helpers ----------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Nonzeros per row — the quantity that decides CSR SIMD efficiency."""
        return np.diff(self.rowptr)

    def get_row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(columns, values) of row ``i`` (views, do not mutate)."""
        lo, hi = self.rowptr[i], self.rowptr[i + 1]
        return self.colidx[lo:hi], self.val[lo:hi]

    def diagonal(self) -> np.ndarray:
        """Sum of the stored entries at (i, i), in storage order.

        Bitwise equal to ``np.diag(self.to_dense())``: duplicates add up
        and unsorted rows are read whole, exactly as :meth:`multiply`
        sees them.
        """
        m, n = self.shape
        rows = np.repeat(np.arange(m, dtype=np.int64), self.row_lengths())
        hit = self.colidx == rows
        diag = np.bincount(rows[hit], weights=self.val[hit], minlength=min(m, n))
        # bincount of an empty index array comes back int64.
        return diag.astype(np.float64, copy=False)

    def transpose(self) -> "AijMat":
        """A^T in CSR (used by tests and the symmetric-problem gallery)."""
        m, n = self.shape
        rows = np.repeat(np.arange(m, dtype=np.int64), self.row_lengths())
        return AijMat.from_coo(
            (n, m), self.colidx.astype(np.int64), rows, self.val,
            sum_duplicates=False,
        )

    def permute_rows(self, perm: np.ndarray) -> "AijMat":
        """The matrix with row ``i`` taken from old row ``perm[i]``."""
        perm = np.asarray(perm, dtype=np.int64)
        m, n = self.shape
        if (
            perm.shape != (m,)
            or (m and (perm.min() < 0 or perm.max() >= m))
            or np.any(np.bincount(perm, minlength=m) != 1)
        ):
            raise ValueError("perm must be a permutation of the row indices")
        lengths = self.row_lengths()[perm]
        rowptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(lengths, out=rowptr[1:])
        # Entry e of new row i comes from old offset rowptr_old[perm[i]] +
        # (e - rowptr[i]).
        src = np.arange(self.nnz, dtype=np.int64)
        src += np.repeat(self.rowptr[perm] - rowptr[:-1], lengths)
        return AijMat(
            (m, n), rowptr, self.colidx[src], self.val[src], check=False
        )

    def equal(self, other: Mat, tol: float = 0.0) -> bool:
        """Entrywise equality against any other format (via CSR)."""
        a, b = self, other.to_csr()
        if a.shape != b.shape:
            return False
        if np.array_equal(a.rowptr, b.rowptr) and np.array_equal(
            a.colidx, b.colidx
        ):
            return bool(np.allclose(a.val, b.val, rtol=0.0, atol=tol))
        return bool(np.allclose(a.to_dense(), b.to_dense(), rtol=0.0, atol=tol))


# CSR is the assembled format, so conversion is the identity.  "AIJ" is the
# PETSc spelling; "MKL" runs the inspector-executor path on the same CSR
# arrays (the library never reformats, it only re-schedules).
@register_format("CSR", "AIJ", "MKL")
def _csr_identity(csr: AijMat) -> AijMat:
    return csr
