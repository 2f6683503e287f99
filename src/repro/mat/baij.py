"""BAIJ — block CSR, PETSc's format for PDEs with multiple DOFs per point.

The Gray-Scott system has two degrees of freedom (u, v) per grid point, so
its Jacobian consists of natural 2x2 blocks (paper Section 7).  BAIJ stores
one column index per *block* and the block values densely, which halves the
index traffic relative to AIJ and enables register blocking on CPUs with
narrow vectors — though, as the paper notes (Section 3.2), small natural
blocks map poorly onto 512-bit registers, which is precisely why SELL wins
on KNL.

Conversion from CSR is whole-array: the stored blocks are the distinct
``(block row, block column)`` keys in sorted order, and every entry adds
into its block cell with one ``bincount``, in storage order.
"""

from __future__ import annotations

import numpy as np

from .aij import AijMat
from .base import Mat, register_format


class BaijMat(Mat):
    """Block CSR with a fixed square block size."""

    format_name = "BAIJ"

    def __init__(
        self,
        shape: tuple[int, int],
        bs: int,
        browptr: np.ndarray,
        bcolidx: np.ndarray,
        val: np.ndarray,
    ):
        m, n = shape
        if bs < 1:
            raise ValueError("block size must be positive")
        if m % bs or n % bs:
            raise ValueError(f"matrix {m}x{n} not divisible by block size {bs}")
        browptr = np.asarray(browptr, dtype=np.int64)
        bcolidx = np.asarray(bcolidx, dtype=np.int32)
        val = np.asarray(val, dtype=np.float64)
        mb = m // bs
        if browptr.shape != (mb + 1,):
            raise ValueError("browptr must have one entry per block row + 1")
        if val.shape != (bcolidx.shape[0], bs, bs):
            raise ValueError("val must be (nblocks, bs, bs)")
        if bcolidx.size and (bcolidx.min() < 0 or bcolidx.max() >= n // bs):
            raise IndexError("block column index out of range")
        self._shape = (m, n)
        self.bs = bs
        self.browptr = browptr
        self.bcolidx = bcolidx
        self.val = val

    @classmethod
    def from_csr(cls, csr: AijMat, bs: int) -> "BaijMat":
        """Convert CSR to BAIJ, padding partially-filled blocks with zeros."""
        m, n = csr.shape
        if m % bs or n % bs:
            raise ValueError(f"matrix {m}x{n} not divisible by block size {bs}")
        mb, nbc = m // bs, n // bs
        rows = np.repeat(np.arange(m, dtype=np.int64), csr.row_lengths())
        cols = csr.colidx.astype(np.int64)
        # One key per (block row, block column); the sorted distinct keys
        # are the stored blocks, block rows first.
        keys, block = np.unique(
            (rows // bs) * nbc + cols // bs, return_inverse=True
        )
        browptr = np.searchsorted(keys, np.arange(mb + 1, dtype=np.int64) * nbc)
        # Each entry adds into its cell of its block, in storage order,
        # onto 0.0 (so a lone -0.0 stores as +0.0, as ``zeros += v`` does).
        cell = (block.reshape(-1) * bs + rows % bs) * bs + cols % bs
        val = np.bincount(cell, weights=csr.val, minlength=keys.size * bs * bs)
        return cls(
            (m, n), bs, browptr, keys % max(nbc, 1),
            val.astype(np.float64, copy=False).reshape(-1, bs, bs),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        """Stored scalar entries (whole blocks, including block padding)."""
        return int(self.val.size)

    @property
    def nblocks(self) -> int:
        """Number of stored blocks."""
        return int(self.bcolidx.shape[0])

    def to_csr(self) -> AijMat:
        m, n = self.shape
        bs = self.bs
        # Block k's entry (oi, oj) sits at (brow[k]*bs + oi, bcol[k]*bs + oj);
        # boolean indexing walks the (nblocks, bs, bs) values block by
        # block, then row by row.
        brow = np.repeat(np.arange(m // bs, dtype=np.int64), np.diff(self.browptr))
        offsets = np.arange(bs, dtype=np.int64)
        bcol = self.bcolidx.astype(np.int64)
        rows = np.broadcast_to((brow * bs)[:, None, None] + offsets[:, None], self.val.shape)
        cols = np.broadcast_to((bcol * bs)[:, None, None] + offsets, self.val.shape)
        # Keep explicit zeros out of the CSR version so the round-trip
        # matches the original sparsity.
        keep = self.val != 0.0
        return AijMat.from_coo(
            (m, n), rows[keep], cols[keep], self.val[keep], sum_duplicates=False
        )

    def memory_bytes(self) -> int:
        # Dense blocks (8B/entry) + one 4B index per block + 8B per block row.
        return int(self.val.size * 8 + self.nblocks * 4 + self.browptr.shape[0] * 8)


# Block size 2: the Gray-Scott Jacobian's natural (u, v) blocks.
@register_format("BAIJ")
def _baij_from_csr(csr: AijMat) -> BaijMat:
    return BaijMat.from_csr(csr, 2)
