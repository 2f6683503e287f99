"""β(r,c): block-based storage with no zero padding (Bramas & Kus, SPC5).

BCSR-style block formats pay for register-friendly access with dense
r-by-c tiles: every structural zero inside a tile is stored, loaded, and
multiplied.  The β(r,c) family (arXiv 1801.01134) keeps the blocking but
drops the padding — each block stores

* one anchor column (``block_col``),
* one r*c-bit presence mask (``block_mask``, bit ``i*c + j`` set iff row
  ``i`` of the block has an entry at column ``anchor + j``), and
* its true nonzeros only, packed row-major (a slice of ``val``).

The per-nonzero index overhead collapses from CSR's 4 bytes to
``(4 + 8) / nnz_per_block`` amortized bytes, and the kernel performs
exactly ``2*nnz`` flops: the mask, not padding, tells each lane what to
do.  Blocks are cut greedily left-to-right inside each r-row band, the
same streaming pass the SPC5 converter uses.

The arrays the SpMV *kernels* and :meth:`BetaMat.to_csr` consume beyond
that storage — ``valptr`` (prefix popcounts of the masks), the
per-nonzero gather columns, and the per-nonzero row map — are derived,
recomputable from (mask, anchor) alone; SPC5 expands them at run time
from the mask word, so :meth:`memory_bytes` counts only the true format
storage.
"""

from __future__ import annotations

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat, register_format

#: Default block shape: 2x4 doubles = one AVX-512 register per block row
#: pair, the shape SPC5 calls beta(2,4).
DEFAULT_BLOCK_SHAPE = (2, 4)


class BetaMat(Mat):
    """A sparse matrix in β(r,c) no-padding block storage."""

    format_name = "BETA"

    def __init__(
        self,
        shape: tuple[int, int],
        block_shape: tuple[int, int],
        blockptr: np.ndarray,
        block_col: np.ndarray,
        block_mask: np.ndarray,
        val: np.ndarray,
    ):
        self._shape = (int(shape[0]), int(shape[1]))
        self.block_shape = (int(block_shape[0]), int(block_shape[1]))
        self.blockptr = blockptr
        self.block_col = block_col
        self.block_mask = block_mask
        self.val = val
        r, c = self.block_shape
        if r < 1 or c < 1 or r * c > 64:
            raise ValueError(
                f"block shape {self.block_shape} must fit a 64-bit mask"
            )
        # Derived (recomputable) arrays: packed-order prefix offsets, the
        # gather column of every packed value, and its logical row.
        popcnt = np.array(
            [int(m).bit_count() for m in block_mask.tolist()], dtype=np.int64
        )
        self.valptr = np.concatenate(
            ([0], np.cumsum(popcnt, dtype=np.int64))
        )
        self.gathercol, self._row_of_element = self._expand_masks()

    # -- construction -----------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: AijMat,
        block_shape: tuple[int, int] = DEFAULT_BLOCK_SHAPE,
    ) -> "BetaMat":
        """Greedy streaming conversion: one left-to-right pass per band."""
        m, n = csr.shape
        r, c = int(block_shape[0]), int(block_shape[1])
        if r < 1 or c < 1 or r * c > 64:
            raise ValueError(f"block shape {(r, c)} must fit a 64-bit mask")
        nbands = (m + r - 1) // r if m else 0
        blockptr = np.zeros(nbands + 1, dtype=np.int64)
        block_col: list[int] = []
        block_mask: list[int] = []
        val_parts: list[np.ndarray] = []
        for band in range(nbands):
            first = band * r
            rows = range(first, min(first + r, m))
            # All entries of the band, sorted by column then row: the
            # order blocks are cut in.  CSR rows are column-sorted, so a
            # stable merge by column keeps row order inside a column.
            cols = np.concatenate(
                [csr.colidx[csr.rowptr[i] : csr.rowptr[i + 1]] for i in rows]
            ).astype(np.int64)
            vals = np.concatenate(
                [csr.val[csr.rowptr[i] : csr.rowptr[i + 1]] for i in rows]
            )
            rowi = np.concatenate(
                [
                    np.full(
                        int(csr.rowptr[i + 1] - csr.rowptr[i]), i - first,
                        dtype=np.int64,
                    )
                    for i in rows
                ]
            )
            order = np.argsort(cols, kind="stable")
            cols, vals, rowi = cols[order], vals[order], rowi[order]
            pos = 0
            while pos < cols.shape[0]:
                anchor = int(cols[pos])
                end = pos + int(np.searchsorted(cols[pos:], anchor + c))
                mask = 0
                for k in range(pos, end):
                    mask |= 1 << (
                        int(rowi[k]) * c + (int(cols[k]) - anchor)
                    )
                # Pack row-major within the block (row, then column).
                inblock = np.lexsort((cols[pos:end], rowi[pos:end])) + pos
                block_col.append(anchor)
                block_mask.append(mask)
                val_parts.append(vals[inblock])
                pos = end
            blockptr[band + 1] = len(block_col)
        val = (
            np.concatenate(val_parts)
            if val_parts
            else np.zeros(0, dtype=np.float64)
        )
        return cls(
            (m, n),
            (r, c),
            blockptr,
            np.asarray(block_col, dtype=np.int32),
            np.asarray(block_mask, dtype=np.uint64),
            np.ascontiguousarray(val, dtype=np.float64),
        )

    def _expand_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per packed value: its gather column and its logical row."""
        r, c = self.block_shape
        gathercol = np.zeros(self.val.shape[0], dtype=np.int32)
        row_of = np.zeros(self.val.shape[0], dtype=np.int64)
        for band in range(self.nbands):
            for b in range(int(self.blockptr[band]), int(self.blockptr[band + 1])):
                anchor = int(self.block_col[b])
                mask = int(self.block_mask[b])
                k = int(self.valptr[b])
                for i in range(r):
                    row_bits = (mask >> (i * c)) & ((1 << c) - 1)
                    for j in range(c):
                        if row_bits >> j & 1:
                            gathercol[k] = anchor + j
                            row_of[k] = band * r + i
                            k += 1
        return gathercol, row_of

    # -- shape -------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self.val.shape[0])

    @property
    def nbands(self) -> int:
        """Number of r-row bands (block rows)."""
        return self.blockptr.shape[0] - 1

    @property
    def nblocks(self) -> int:
        return int(self.block_col.shape[0])

    # -- operations ----------------------------------------------------------
    def to_csr(self) -> AijMat:
        m, n = self.shape
        order = np.lexsort((self.gathercol, self._row_of_element))
        counts = np.bincount(self._row_of_element, minlength=m)[:m]
        rowptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return AijMat(
            (m, n),
            rowptr,
            np.asarray(self.gathercol[order], dtype=np.int32),
            np.asarray(self.val[order], dtype=np.float64),
        )

    def memory_bytes(self) -> int:
        """True format storage: values, anchors, masks, and band pointers.

        The derived expansion arrays are excluded — SPC5 reconstructs
        them from the mask word at run time (see the module docstring).
        """
        return int(
            self.val.nbytes
            + self.block_col.nbytes
            + self.block_mask.nbytes
            + self.blockptr.nbytes
        )

    @property
    def fill_ratio(self) -> float:
        """Stored nonzeros per block slot (1.0 = every slot real).

        BCSR would store ``nblocks * r * c`` values; β stores ``nnz``.
        The ratio is the storage the no-padding mask trick saves.
        """
        r, c = self.block_shape
        slots = self.nblocks * r * c
        return float(self.nnz) / slots if slots else 1.0


@register_format("BETA", knobs=("block_shape",))
def _beta_from_csr(
    csr: AijMat, *, block_shape: tuple[int, int] = DEFAULT_BLOCK_SHAPE
) -> BetaMat:
    """``block_shape`` picks β's (r, c)."""
    return BetaMat.from_csr(csr, block_shape=block_shape)
