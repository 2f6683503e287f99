"""Sliced ELLPACK (SELL) — the matrix format the paper contributes to PETSc.

Storage follows Section 5 and Figure 6 exactly:

* rows are grouped into **slices** of ``C`` adjacent rows (C = 8 on KNL:
  one 512-bit register of doubles, Section 5.1);
* each slice is padded to its own width (its longest row), so short rows
  only pay for their slice, not for the global maximum as in ELLPACK;
* within a slice, values and column indices are stored **column by
  column** — the memory order equals the order the vectorized kernel
  (Algorithm 2) consumes, so every matrix access is a contiguous,
  alignable vector load;
* an ``rlen`` array keeps each row's true length.  The SpMV kernel never
  reads it (Section 5.2) — padded zeros are simply multiplied — but
  assembly, conversion, and diagnostics need it;
* the **column index of a padded slot is copied from a real nonzero of the
  same row** (its last one), so gathers through padding stay within the
  local vector and never widen a parallel matrix's ghost set
  (Section 5.5);
* the trailing partial slice, if any, is padded with empty rows to a full
  ``C`` so the kernel runs maskless except possibly at the final store.

Conversion is whole-array NumPy, as in Kreutzer et al.'s SELL-C-sigma
(arXiv 1307.6209, Section 3): the sigma permutation is one stable sort,
slice widths are a reshape-and-max, and every CSR entry is scattered to its
slot in one step.  :meth:`SellMat.to_csr` and :meth:`SellMat.diagonal`
gather the real slots back in row order.  All three are bit-exact: a
CSR -> SELL -> CSR round trip returns the input arrays unchanged (rows
column-sorted), and ``diagonal()`` equals ``np.diag(to_dense())`` bitwise.

Symbolic once, numeric per step: everything but the values — the sigma
permutation, ``sliceptr``, the row map, the entry slots and the padded
column indices — depends on the CSR structure alone.  :meth:`from_csr`
keeps it per structure in the process-wide plan store
(:data:`repro.core.registry.PLANS`), so a Newton step that reconverts a
reassembled Jacobian pays one scatter of the values.  Plan arrays are
shared between matrices and read-only.  ``to_csr()`` is built once per
matrix and shared with the product handle; like every assembled matrix,
a SELL matrix and its CSR form are not mutated once used.

Design decisions the paper argues for are parameters here so the ablation
benchmarks can contradict them: ``slice_height`` sweeps C (C = 1
degenerates to CSR), ``sigma`` enables SELL-C-sigma window sorting
(``sigma = 1``, the default, is the paper's "no sorting" choice of
Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mat.aij import AijMat
from ..mat.base import Mat, register_format
from ..mat.ellpack import padding_columns
from ..mat.sparsity import signature
from ..memory.spaces import aligned_alloc
from .registry import PLANS, read_only


class SellMat(Mat):
    """A sliced-ELLPACK matrix (PETSc's MATSELL)."""

    format_name = "SELL"

    def __init__(
        self,
        shape: tuple[int, int],
        slice_height: int,
        sliceptr: np.ndarray,
        val: np.ndarray,
        colidx: np.ndarray,
        rlen: np.ndarray,
        perm: np.ndarray | None = None,
        sigma: int = 1,
        alignment: int = 64,
    ):
        m, n = shape
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        sliceptr = np.asarray(sliceptr, dtype=np.int64)
        rlen = np.asarray(rlen, dtype=np.int64)
        nslices = (m + slice_height - 1) // slice_height if m else 0
        if sliceptr.shape != (nslices + 1,):
            raise ValueError(f"sliceptr must have {nslices + 1} entries")
        if sliceptr[0] != 0 or np.any(np.diff(sliceptr) < 0):
            raise ValueError("sliceptr must be non-decreasing from zero")
        if np.any(np.diff(sliceptr) % slice_height):
            raise ValueError("slice extents must be multiples of the height")
        if val.shape != colidx.shape or val.shape != (int(sliceptr[-1]),):
            raise ValueError("val/colidx inconsistent with sliceptr")
        if rlen.shape != (m,):
            raise ValueError("rlen must have one entry per row")
        self._shape = (m, n)
        self.slice_height = slice_height
        self.sigma = sigma
        self.sliceptr = sliceptr
        self.rlen = rlen
        self.val = aligned_alloc(val.shape[0], np.float64, alignment)
        self.val[:] = val
        self.colidx = aligned_alloc(colidx.shape[0], np.int32, alignment)
        self.colidx[:] = colidx
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            if perm.shape != (m,):
                raise ValueError("perm must have one entry per row")
        self.perm = perm
        # Structure-derived arrays, built on first use (or handed over by
        # the cached plan in :meth:`from_csr`) and the CSR form, built once.
        self._row_of_element: np.ndarray | None = None
        self._slots: np.ndarray | None = None
        self._csr: AijMat | None = None
        #: Structure signature of the CSR this matrix was converted from.
        self._source_signature: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: AijMat,
        slice_height: int = 8,
        sigma: int = 1,
        alignment: int = 64,
    ) -> "SellMat":
        """Convert an assembled CSR matrix (the MatConvert path).

        ``sigma > 1`` sorts rows by descending length inside disjoint
        windows of ``sigma`` rows before slicing (SELL-C-sigma);
        ``sigma`` must then be a multiple of the slice height so slices
        never straddle windows.
        """
        if slice_height < 1:
            raise ValueError("slice height must be positive")
        if sigma < 1:
            raise ValueError("sigma must be positive")
        if sigma > 1 and sigma % slice_height:
            raise ValueError("sigma must be a multiple of the slice height")
        plan = PLANS.get_or_compute(
            "sell",
            PLANS.sell_key(csr, slice_height, sigma),
            lambda: _SellPlan.build(csr, slice_height, sigma),
        )
        # The zero-stride placeholder costs no memory to copy from; the
        # numeric phase is one scatter of the values into their slots.
        total = int(plan.sliceptr[-1])
        sell = cls(
            csr.shape,
            slice_height,
            plan.sliceptr,
            np.broadcast_to(np.float64(0.0), (total,)),
            plan.colidx,
            plan.lengths,
            perm=plan.perm,
            sigma=sigma,
            alignment=alignment,
        )
        sell._row_of_element = plan.row_map
        sell._slots = plan.slots
        sell._source_signature = plan.source_signature
        sell.val[plan.slots] = csr.val
        return sell

    def _entry_slots(self) -> np.ndarray:
        """Slot of every real entry, rows in order and each row by ``j``.

        Entry ``j`` of the row at storage position ``k`` sits at
        ``sliceptr[k // C] + j*C + k % C``; the result lines up with the
        entries of the CSR matrix this one was converted from.
        """
        if self._slots is None:
            self._slots = _entry_slots(
                self.slice_height, self.sliceptr, self.rlen, self.perm
            )
        return self._slots

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def row_map(self) -> np.ndarray:
        """Output row of every stored slot (padding maps to its slice row).

        The inverse view of the column-major slice layout; the transpose
        kernels read it to know which x entry each slot multiplies.
        """
        if self._row_of_element is None:
            self._row_of_element = _row_map(
                self.shape[0], self.slice_height, self.sliceptr, self.perm
            )
        return self._row_of_element

    @property
    def nnz(self) -> int:
        return int(self.rlen.sum())

    @property
    def nslices(self) -> int:
        """Number of slices (the outer-loop trip count of Algorithm 2)."""
        return int(self.sliceptr.shape[0] - 1)

    def slice_width(self, s: int) -> int:
        """Padded row length of slice ``s``."""
        return int(
            (self.sliceptr[s + 1] - self.sliceptr[s]) // self.slice_height
        )

    @property
    def padded_entries(self) -> int:
        """Stored slots that are padding — the SELL storage penalty."""
        return int(self.sliceptr[-1] - self.nnz)

    @property
    def padding_fraction(self) -> float:
        """Padding as a fraction of all stored slots."""
        total = int(self.sliceptr[-1])
        return self.padded_entries / total if total else 0.0

    def storage_row(self, storage_index: int) -> int:
        """Original row stored at slice position ``storage_index``."""
        if self.perm is None:
            return storage_index
        return int(self.perm[storage_index])

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def to_csr(self) -> AijMat:
        """The CSR form, built once per matrix and shared (don't mutate it).

        The slots are gathered in row order; a row whose columns are not
        sorted goes through :meth:`AijMat.from_coo` to sort them.  When no
        row needs sorting, the result has the source CSR's structure, so it
        inherits the source's structure signature instead of hashing again.
        """
        if self._csr is None:
            m, n = self.shape
            slots = self._entry_slots()
            cols, vals = self.colidx[slots], self.val[slots]
            rowptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(self.rlen, out=rowptr[1:])
            # Columns may only step down where a new row starts.
            sorted_rows = np.diff(cols) >= 0
            starts = rowptr[1:-1]
            sorted_rows[starts[(starts > 0) & (starts < cols.size)] - 1] = True
            if sorted_rows.all():
                self._csr = AijMat((m, n), rowptr, cols, vals)
                if self._source_signature is not None:
                    self._csr._signature_cache = {False: self._source_signature}
            else:
                rows = np.repeat(np.arange(m, dtype=np.int64), self.rlen)
                self._csr = AijMat.from_coo(
                    (m, n), rows, cols, vals, sum_duplicates=False
                )
        return self._csr

    def memory_bytes(self) -> int:
        """Storage footprint: padded val + colidx, sliceptr, rlen, perm."""
        slots = int(self.sliceptr[-1])
        total = slots * 12 + self.sliceptr.shape[0] * 8 + self.rlen.shape[0] * 8
        if self.perm is not None:
            total += self.perm.shape[0] * 8
        return int(total)

    def _compute_abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        # Column sums are invariant under the sigma row permutation, and
        # padded slots carry val == 0 with an in-range column index, so the
        # padded arrays bincount directly — no CSR round-trip needed.
        n = self.shape[1]
        w = np.bincount(self.colidx, weights=self.val, minlength=n)[:n]
        wabs = np.bincount(self.colidx, weights=np.abs(self.val), minlength=n)[:n]
        return w, wabs

    def diagonal(self) -> np.ndarray:
        """Sum of the real entries at (i, i); padding never counts.

        Bitwise equal to ``np.diag(self.to_dense())``.
        """
        m, n = self.shape
        slots = self._entry_slots()
        rows = np.repeat(np.arange(m, dtype=np.int64), self.rlen)
        hit = self.colidx[slots] == rows
        diag = np.bincount(
            rows[hit], weights=self.val[slots[hit]], minlength=min(m, n)
        )
        # bincount of an empty index array comes back int64.
        return diag.astype(np.float64, copy=False)


def _row_map(
    m: int, c: int, sliceptr: np.ndarray, perm: np.ndarray | None
) -> np.ndarray:
    """Output row of every stored slot (padding maps to its slice row)."""
    nslices = sliceptr.shape[0] - 1
    lanes = np.minimum(np.arange(nslices * c, dtype=np.int64), max(m - 1, 0))
    out_rows = perm[lanes] if perm is not None else lanes
    # Column-major within the slice (slot = base + j*C + i): slice s
    # repeats its C lane rows once per column of its width.
    widths = np.diff(sliceptr) // c
    columns = np.repeat(np.arange(nslices), widths)
    return out_rows.reshape(-1, c)[columns].reshape(-1)


def _entry_slots(
    c: int, sliceptr: np.ndarray, rlen: np.ndarray, perm: np.ndarray | None
) -> np.ndarray:
    """Slot of every real entry, rows in order (see SellMat._entry_slots)."""
    m = rlen.shape[0]
    if perm is None:
        pos = np.arange(m, dtype=np.int64)
    else:
        pos = np.empty(m, dtype=np.int64)
        pos[perm] = np.arange(m, dtype=np.int64)
    first = sliceptr[pos // c] + pos % c
    # Consecutive entries of a row lie C slots apart, and each row's
    # entry 0 jumps from the previous row's last slot: a running sum
    # of those steps gives every slot in one nnz-sized array.
    rows = np.flatnonzero(rlen)
    starts = (np.cumsum(rlen) - rlen)[rows]
    last = first[rows] + (rlen[rows] - 1) * c
    slots = np.full(int(rlen.sum()), c, dtype=np.int64)
    slots[starts] = first[rows] - np.concatenate(([0], last[:-1]))
    np.cumsum(slots, out=slots)
    return slots


@dataclass(frozen=True)
class _SellPlan:
    """The symbolic phase of :meth:`SellMat.from_csr`, for one structure.

    Everything here is a function of the CSR structure and ``(C, sigma)``
    alone: the sigma permutation, the slices, the slot maps and the padded
    column indices.  Plans are shared through the plan store, so every
    array is read-only.
    """

    lengths: np.ndarray
    perm: np.ndarray | None
    sliceptr: np.ndarray
    colidx: np.ndarray
    row_map: np.ndarray
    slots: np.ndarray
    #: The source CSR's structure signature (the plan store's key leg).
    source_signature: str

    @classmethod
    def build(cls, csr: AijMat, c: int, sigma: int) -> "_SellPlan":
        m = csr.shape[0]
        lengths = csr.row_lengths().astype(np.int64)
        if sigma > 1:
            # Stable sort by (window, descending length): rows of equal
            # length keep their order inside each window of sigma rows.
            window = np.arange(m, dtype=np.int64) // sigma
            perm = np.lexsort((-lengths, window))
        else:
            perm = None

        nslices = -(-m // c)
        storage_lengths = np.zeros(nslices * c, dtype=np.int64)
        storage_lengths[:m] = lengths[perm] if perm is not None else lengths
        widths = storage_lengths.reshape(nslices, c).max(axis=1)
        sliceptr = np.zeros(nslices + 1, dtype=np.int64)
        np.cumsum(widths * c, out=sliceptr[1:])
        row_map = _row_map(m, c, sliceptr, perm)
        slots = _entry_slots(c, sliceptr, lengths, perm)

        # Padding reuses a real (local) column of the same row: its last
        # one, or column 0 for an empty row.  Trailing rows past m get
        # column 0, a safe local index.
        colidx = np.empty(int(sliceptr[-1]), dtype=np.int32)
        # mode="clip" lets take() write straight into ``out`` (the default
        # mode buffers a slot-sized copy); row-map entries are in range.
        np.take(padding_columns(csr), row_map, out=colidx, mode="clip")
        real_lanes = m - (nslices - 1) * c
        if nslices and real_lanes < c:
            colidx[sliceptr[-2] :].reshape(-1, c)[:, real_lanes:] = 0
        colidx[slots] = csr.colidx
        arrays = (lengths, perm, sliceptr, colidx, row_map, slots)
        read_only(*arrays)
        return cls(*arrays, source_signature=signature(csr))


@register_format("SELL", knobs=("slice_height", "sigma"))
def _sell_from_csr(csr: AijMat, *, slice_height: int = 8, sigma: int = 1) -> SellMat:
    return SellMat.from_csr(csr, slice_height=slice_height, sigma=sigma)
