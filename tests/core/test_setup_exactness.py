"""Exactness of the whole-array setup paths against their loop originals.

Assembly (``AijMat.from_coo``), MatConvert (``SellMat.from_csr``,
``EllpackMat.from_csr``, ``HybridMat.from_csr``, ``BaijMat.from_csr``), the
SELL row map, the ESB bit array, ``SellMat.to_csr``, ``EllpackMat.to_csr``,
``BaijMat.to_csr``, MatGetDiagonal, ``permute_rows`` and ``to_dense`` used
to be Python loops over rows, slices or blocks.  The loops are
kept below as reference oracles, and every vectorized path must reproduce
their arrays exactly — ``array_equal``, never a tolerance — over a
hypothesis panel and a list of degenerate structures.

The symbolic/numeric split is held to the same contract: a Galerkin
product through a cached :class:`~repro.ksp.pc.mg.ProductPlan` equals the
expand-and-``from_coo`` product it replaced, and a SELL conversion that
reuses its structure's cached plan equals the loop conversion, whether the
plan store hit or missed.

Diagonals are held to a stricter contract than the oracle: for every
format, ``diagonal()`` is bitwise equal to ``np.diag(to_dense())``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.esb import EsbMat
from repro.core.registry import PLANS
from repro.core.sell import SellMat
from repro.ksp.pc.mg import csr_matmul
from repro.mat.aij import AijMat
from repro.mat.baij import BaijMat
from repro.mat.ellpack import EllpackMat
from repro.mat.hybrid import HybridMat
from repro.mat.sparsity import signature

# ----------------------------------------------------------------------
# Reference oracles: the loop implementations the fast paths replaced.
# ----------------------------------------------------------------------


def ref_from_coo(shape, rows, cols, vals, sum_duplicates=True):
    """(rowptr, colidx, val) of the lexsort-based assembly."""
    m, _ = shape
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        keep = np.ones(rows.size, dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        group = np.cumsum(keep) - 1
        summed = np.bincount(group, weights=vals)
        rows, cols, vals = rows[keep], cols[keep], summed
    rowptr = np.zeros(m + 1, dtype=np.int64)
    if rows.size:
        np.add.at(rowptr, rows + 1, 1)
    np.cumsum(rowptr, out=rowptr)
    return rowptr, cols.astype(np.int32), vals


def ref_from_csr(csr, slice_height, sigma):
    """(perm, sliceptr, val, colidx) of the per-slice conversion loop."""
    m, _ = csr.shape
    lengths = csr.row_lengths().astype(np.int64)
    if sigma > 1:
        perm = np.empty(m, dtype=np.int64)
        for start in range(0, m, sigma):
            stop = min(start + sigma, m)
            window = np.arange(start, stop)
            order = np.argsort(-lengths[start:stop], kind="stable")
            perm[start:stop] = window[order]
    else:
        perm = None
    storage_rows = perm if perm is not None else np.arange(m, dtype=np.int64)
    storage_lengths = lengths[storage_rows] if m else lengths
    nslices = (m + slice_height - 1) // slice_height if m else 0
    sliceptr = np.zeros(nslices + 1, dtype=np.int64)
    widths = np.zeros(nslices, dtype=np.int64)
    for s in range(nslices):
        chunk = storage_lengths[s * slice_height : (s + 1) * slice_height]
        widths[s] = int(chunk.max()) if chunk.size else 0
        sliceptr[s + 1] = sliceptr[s] + widths[s] * slice_height
    total = int(sliceptr[-1])
    val = np.zeros(total, dtype=np.float64)
    colidx = np.zeros(total, dtype=np.int32)
    for s in range(nslices):
        base, width = sliceptr[s], widths[s]
        for i in range(slice_height):
            k = s * slice_height + i
            if k >= m:
                continue
            cols, vals = csr.get_row(int(storage_rows[k]))
            length = cols.shape[0]
            slots = base + np.arange(length, dtype=np.int64) * slice_height + i
            val[slots] = vals
            colidx[slots] = cols
            if length < width:
                pad = base + np.arange(length, width) * slice_height + i
                colidx[pad] = cols[-1] if length else 0
    return perm, sliceptr, val, colidx


def ref_row_map(sell):
    m, _ = sell.shape
    c = sell.slice_height
    row_map = np.empty(sell.val.shape[0], dtype=np.int64)
    for s in range(sell.nslices):
        base, width = sell.sliceptr[s], sell.slice_width(s)
        storage_rows = np.minimum(s * c + np.arange(c), max(m - 1, 0))
        out_rows = sell.perm[storage_rows] if sell.perm is not None else storage_rows
        row_map[base : base + width * c] = np.tile(out_rows, width)
    return row_map


def ref_sell_to_csr(sell):
    """(rowptr, colidx, val) of the per-row gather plus lexsort assembly."""
    m, n = sell.shape
    c = sell.slice_height
    rows, cols, vals = [], [], []
    for s in range(sell.nslices):
        base = sell.sliceptr[s]
        for i in range(c):
            k = s * c + i
            if k >= m:
                continue
            row = sell.storage_row(k)
            length = int(sell.rlen[row])
            slots = base + np.arange(length, dtype=np.int64) * c + i
            rows.append(np.full(length, row, dtype=np.int64))
            cols.append(sell.colidx[slots].astype(np.int64))
            vals.append(sell.val[slots])
    if not rows:
        return ref_from_coo((m, n), [], [], [])
    return ref_from_coo(
        (m, n),
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
        sum_duplicates=False,
    )


def ref_sell_diagonal(sell):
    m, n = sell.shape
    diag = np.zeros(min(m, n), dtype=np.float64)
    c = sell.slice_height
    for s in range(sell.nslices):
        base = sell.sliceptr[s]
        for i in range(c):
            k = s * c + i
            if k >= m:
                continue
            row = sell.storage_row(k)
            if row >= n:
                continue
            length = int(sell.rlen[row])
            slots = base + np.arange(length, dtype=np.int64) * c + i
            hits = slots[sell.colidx[slots] == row]
            if hits.size:
                # The loop summed with ndarray.sum(), whose pairwise
                # blocking reorders a row of 8 or more stacked diagonal
                # duplicates and so disagreed with multiply() and
                # to_dense(); the oracle adds in storage order like they do.
                diag[row] = sum(sell.val[hits].tolist(), 0.0)
    return diag


def ref_esb_bits(esb):
    """One boolean per stored slot, set lane by lane up to the row length."""
    m, _ = esb.shape
    c = esb.slice_height
    bits = np.zeros(esb.val.shape[0], dtype=bool)
    for s in range(esb.nslices):
        base, width = esb.sliceptr[s], esb.slice_width(s)
        for i in range(c):
            k = s * c + i
            if k >= m:
                continue
            length = int(esb.rlen[esb.storage_row(k)])
            slots = base + np.arange(min(length, width), dtype=np.int64) * c + i
            bits[slots] = True
    return bits


def ref_ellpack_to_csr(ell):
    """The per-row list-building conversion back to CSR."""
    m, n = ell.shape
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(m):
        k = int(ell.rlen[i])
        rows.extend([i] * k)
        cols.extend(ell.colidx[i, :k].tolist())
        vals.extend(ell.val[i, :k].tolist())
    return AijMat.from_coo(
        (m, n),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        sum_duplicates=False,
    )


def ref_baij_to_csr(baij):
    """The per-block, per-entry conversion back to CSR."""
    m, n = baij.shape
    bs = baij.bs
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    mb = m // bs
    for bi in range(mb):
        for k in range(baij.browptr[bi], baij.browptr[bi + 1]):
            bj = int(baij.bcolidx[k])
            block = baij.val[k]
            for oi in range(bs):
                for oj in range(bs):
                    # Keep explicit zeros out of the CSR version so the
                    # round-trip matches the original sparsity.
                    if block[oi, oj] != 0.0:
                        rows.append(bi * bs + oi)
                        cols.append(bj * bs + oj)
                        vals.append(float(block[oi, oj]))
    return AijMat.from_coo(
        (m, n),
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
        sum_duplicates=False,
    )


def ref_ellpack_from_csr(csr):
    """(val, colidx) of the per-row padding loop."""
    m, n = csr.shape
    lengths = csr.row_lengths()
    width = int(lengths.max()) if m and csr.nnz else 0
    val = np.zeros((m, width), order="F")
    colidx = np.zeros((m, width), dtype=np.int32, order="F")
    for i in range(m):
        cols, vals = csr.get_row(i)
        k = cols.shape[0]
        val[i, :k] = vals
        colidx[i, :k] = cols
        pad_col = cols[-1] if k else 0
        colidx[i, k:] = pad_col
    return val, colidx


def ref_hybrid_from_csr(csr, width):
    """(val, colidx, rlen, spill rows, spill cols, spill vals) of the
    per-row split loop at ELL width ``width``."""
    m, n = csr.shape
    lengths = csr.row_lengths()
    # A 0-column matrix has no column for padding to point at: width 0.
    ell_width = max(width, 0) if n else 0
    val = np.zeros((m, ell_width), order="F")
    colidx = np.zeros((m, ell_width), dtype=np.int32, order="F")
    rlen = np.minimum(lengths, ell_width)
    spill_rows: list[int] = []
    spill_cols: list[int] = []
    spill_vals: list[float] = []
    for i in range(m):
        cols, vals = csr.get_row(i)
        k = min(cols.shape[0], ell_width)
        val[i, :k] = vals[:k]
        colidx[i, :k] = cols[:k]
        colidx[i, k:] = cols[k - 1] if k else 0
        if cols.shape[0] > ell_width:
            tail = slice(ell_width, cols.shape[0])
            spill_rows.extend([i] * (cols.shape[0] - ell_width))
            spill_cols.extend(cols[tail].tolist())
            spill_vals.extend(vals[tail].tolist())
    return (
        val, colidx, rlen,
        np.array(spill_rows, dtype=np.int64),
        np.array(spill_cols, dtype=np.int64),
        np.array(spill_vals, dtype=np.float64),
    )


def ref_baij_from_csr(csr, bs):
    """(browptr, bcolidx, val) of the per-entry block accumulation loop."""
    m, n = csr.shape
    mb = m // bs
    blocks: list[dict[int, np.ndarray]] = [dict() for _ in range(mb)]
    for i in range(m):
        bi, oi = divmod(i, bs)
        cols, vals = csr.get_row(i)
        for j, v in zip(cols, vals, strict=True):
            bj, oj = divmod(int(j), bs)
            block = blocks[bi].setdefault(bj, np.zeros((bs, bs)))
            block[oi, oj] += v
    browptr = np.zeros(mb + 1, dtype=np.int64)
    bcolidx: list[int] = []
    vals_list: list[np.ndarray] = []
    for bi in range(mb):
        cols_sorted = sorted(blocks[bi])
        browptr[bi + 1] = browptr[bi] + len(cols_sorted)
        bcolidx.extend(cols_sorted)
        vals_list.extend(blocks[bi][bj] for bj in cols_sorted)
    val = (
        np.stack(vals_list)
        if vals_list
        else np.zeros((0, bs, bs), dtype=np.float64)
    )
    return browptr, np.array(bcolidx, dtype=np.int32), val


def ref_csr_matmul(a, b):
    """The expand-every-product and ``from_coo`` Galerkin product."""
    ma, ka = a.shape
    kb, nb = b.shape
    if ka != kb:
        raise ValueError(f"inner dimensions differ: {ka} vs {kb}")
    if a.nnz == 0 or b.nnz == 0:
        return AijMat.from_coo(
            (ma, nb),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    a_rows = np.repeat(np.arange(ma, dtype=np.int64), a.row_lengths())
    a_cols = a.colidx.astype(np.int64)
    b_lengths = b.row_lengths()
    reps = b_lengths[a_cols]
    total = int(reps.sum())
    starts = b.rowptr[a_cols]
    cum = np.concatenate(([0], np.cumsum(reps)[:-1]))
    flat = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, reps)
    out_rows = np.repeat(a_rows, reps)
    out_cols = b.colidx[flat].astype(np.int64)
    out_vals = np.repeat(a.val, reps) * b.val[flat]
    return AijMat.from_coo((ma, nb), out_rows, out_cols, out_vals,
                           sum_duplicates=True)


def ref_permute_rows(csr, perm):
    m, _ = csr.shape
    lengths = csr.row_lengths()[perm]
    rowptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=rowptr[1:])
    colidx = np.empty(csr.nnz, dtype=np.int32)
    val = np.empty(csr.nnz, dtype=np.float64)
    for new_i, old_i in enumerate(perm):
        lo, hi = csr.rowptr[old_i], csr.rowptr[old_i + 1]
        dst = slice(rowptr[new_i], rowptr[new_i + 1])
        colidx[dst] = csr.colidx[lo:hi]
        val[dst] = csr.val[lo:hi]
    return rowptr, colidx, val


def ref_to_dense(csr):
    m, n = csr.shape
    dense = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        lo, hi = csr.rowptr[i], csr.rowptr[i + 1]
        np.add.at(dense[i], csr.colidx[lo:hi], csr.val[lo:hi])
    return dense


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def bits(a):
    """Bit patterns, so -0.0 and 0.0 (and NaN payloads) compare unequal."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def coo_triplets(m, n, count, seed, negative_zeros=False):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, m, count) if m and n else np.zeros(0, dtype=np.int64)
    cols = rng.integers(0, n, count) if m and n else np.zeros(0, dtype=np.int64)
    vals = rng.standard_normal(rows.shape[0])
    if negative_zeros and vals.size:
        vals[rng.random(vals.size) < 0.3] = -0.0
    return rows, cols, vals


@st.composite
def csr_panel(draw, max_dim=18):
    """CSR matrices with empty rows, duplicates, -0.0 and unsorted rows."""
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    count = draw(st.integers(min_value=0, max_value=3 * max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    sum_duplicates = draw(st.booleans())
    rows, cols, vals = coo_triplets(m, n, count, seed, negative_zeros=True)
    csr = AijMat.from_coo((m, n), rows, cols, vals, sum_duplicates=sum_duplicates)
    if draw(st.booleans()) and csr.nnz:
        # Shuffle each row's entries: conversions must not assume sorted
        # columns (and MatGetDiagonal must not binary-search for them).
        rng = np.random.default_rng(seed + 1)
        rows_of = np.repeat(np.arange(m), csr.row_lengths())
        order = np.lexsort((rng.random(csr.nnz), rows_of))
        csr = AijMat((m, n), csr.rowptr, csr.colidx[order], csr.val[order])
    return csr


def degenerate_matrices():
    dense_row = np.zeros((5, 7))
    dense_row[2] = np.arange(1.0, 8.0)
    neg_zero = AijMat.from_coo(
        (3, 3), [0, 1, 1, 2], [0, 1, 2, 1], [-0.0, -0.0, 2.0, -0.0]
    )
    dups = AijMat.from_coo(
        (3, 3),
        [0, 0, 1, 2, 2, 2],
        [0, 0, 1, 2, 0, 2],
        [1.0, 2.0, 3.0, 4.0, 5.0, -0.0],
        sum_duplicates=False,
    )
    return {
        "0x0": AijMat.from_coo((0, 0), [], [], []),
        "0x3": AijMat.from_coo((0, 3), [], [], []),
        "3x0": AijMat.from_coo((3, 0), [], [], []),
        "1x0": AijMat.from_coo((1, 0), [], [], []),
        "all-empty-rows": AijMat.from_coo((9, 9), [], [], []),
        "some-empty-rows": AijMat.from_coo(
            (9, 6), [0, 4, 4, 8], [5, 0, 3, 2], [1.0, 2.0, 3.0, 4.0]
        ),
        "1xn": AijMat.from_dense(np.arange(1.0, 12.0).reshape(1, 11)),
        "nx1": AijMat.from_dense(np.arange(1.0, 12.0).reshape(11, 1)),
        "one-dense-row": AijMat.from_dense(dense_row),
        "negative-zero": neg_zero,
        "duplicates-kept": dups,
        "unsorted-row": AijMat((2, 2), [0, 2, 3], [1, 0, 1], [7.0, 9.0, 4.0]),
    }


DEGENERATE = degenerate_matrices()


def sell_params(m):
    """(C, sigma) pairs over C in {1, 4, 8} and sigma in {1, C, 4C, >= m}."""
    out = set()
    for c in (1, 4, 8):
        whole = c * max(1, -(-m // c))  # the smallest multiple of C >= m
        for sigma in (1, c, 4 * c, whole):
            out.add((c, sigma))
    return sorted(out)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def assert_csr_arrays(mat, rowptr, colidx, val):
    assert np.array_equal(mat.rowptr, rowptr)
    assert np.array_equal(mat.colidx, colidx)
    assert np.array_equal(bits(mat.val), bits(val))


def revalued(csr, seed):
    """The same structure with new values (so a plan store must hit)."""
    vals = np.random.default_rng(seed).standard_normal(csr.nnz)
    return AijMat(csr.shape, csr.rowptr, csr.colidx, vals)


def check_sell_conversion(csr, c, sigma):
    """One conversion with the plan store forced to miss, against the oracles."""
    PLANS.invalidate("sell", PLANS.sell_key(csr, c, sigma))
    sell = SellMat.from_csr(csr, slice_height=c, sigma=sigma)
    perm, sliceptr, val, colidx = ref_from_csr(csr, c, sigma)
    label = f"C={c} sigma={sigma}"
    if perm is None:
        assert sell.perm is None, label
    else:
        assert np.array_equal(sell.perm, perm), label
    assert np.array_equal(sell.sliceptr, sliceptr), label
    assert np.array_equal(bits(sell.val), bits(val)), label
    assert np.array_equal(sell.colidx, colidx), label
    assert np.array_equal(sell.row_map, ref_row_map(sell)), label
    assert_csr_arrays(sell.to_csr(), *ref_sell_to_csr(sell))
    assert np.array_equal(sell.diagonal(), ref_sell_diagonal(sell)), label
    assert np.array_equal(
        bits(sell.diagonal()), bits(np.diag(sell.to_dense()))
    ), label


def check_sell_paths(csr):
    for c, sigma in sell_params(csr.shape[0]):
        check_sell_conversion(csr, c, sigma)
        # A second conversion of the structure reuses the cached plan.
        hits = PLANS.stats()["hits"].get("sell", 0)
        twin = revalued(csr, c + sigma)
        sell = SellMat.from_csr(twin, slice_height=c, sigma=sigma)
        assert PLANS.stats()["hits"].get("sell", 0) == hits + 1
        perm, sliceptr, val, colidx = ref_from_csr(twin, c, sigma)
        assert np.array_equal(bits(sell.val), bits(val))
        assert np.array_equal(sell.colidx, colidx)
        assert sell.to_csr() is sell.to_csr()


def check_sell_signature_seed(csr):
    """``to_csr`` of a converted SellMat inherits the source's structure
    signature exactly when it rebuilt the source's structure."""
    m = csr.shape[0]
    rows_sorted = all(
        np.all(np.diff(csr.colidx[csr.rowptr[i] : csr.rowptr[i + 1]]) >= 0)
        for i in range(m)
    )
    for c, sigma in sell_params(m):
        out = SellMat.from_csr(csr, slice_height=c, sigma=sigma).to_csr()
        seeded = getattr(out, "_signature_cache", {}).get(False)
        fresh = signature(AijMat(out.shape, out.rowptr, out.colidx, out.val))
        assert (seeded is not None) == rows_sorted, f"C={c} sigma={sigma}"
        if seeded is not None:
            assert seeded == fresh, f"C={c} sigma={sigma}"


def check_esb_bits(csr):
    for c, sigma in sell_params(csr.shape[0]):
        esb = EsbMat.from_csr(csr, slice_height=c, sigma=sigma)
        assert np.array_equal(esb.bits, ref_esb_bits(esb)), f"C={c} sigma={sigma}"


def check_other_format_paths(csr):
    ell = EllpackMat.from_csr(csr)
    val, colidx = ref_ellpack_from_csr(csr)
    assert np.array_equal(bits(ell.val), bits(val))
    assert np.array_equal(ell.colidx, colidx)
    back = ref_ellpack_to_csr(ell)
    assert_csr_arrays(ell.to_csr(), back.rowptr, back.colidx, back.val)
    lengths = csr.row_lengths()
    widths = {0, 1, 2, int(lengths.max()) if lengths.size else 0}
    for width in sorted(widths):
        hyb = HybridMat.from_csr(csr, width=width)
        val, colidx, rlen, rows, cols, vals = ref_hybrid_from_csr(csr, width)
        assert np.array_equal(bits(hyb.ell.val), bits(val)), width
        assert np.array_equal(hyb.ell.colidx, colidx), width
        assert np.array_equal(hyb.ell.rlen, rlen), width
        assert np.array_equal(hyb.coo.rows, rows), width
        assert np.array_equal(hyb.coo.cols, cols), width
        assert np.array_equal(bits(hyb.coo.vals), bits(vals)), width
    m, n = csr.shape
    for bs in (1, 2, 3):
        if m % bs or n % bs:
            continue
        baij = BaijMat.from_csr(csr, bs)
        browptr, bcolidx, val = ref_baij_from_csr(csr, bs)
        assert np.array_equal(baij.browptr, browptr), bs
        assert np.array_equal(baij.bcolidx, bcolidx), bs
        assert np.array_equal(bits(baij.val), bits(val)), bs
        back = ref_baij_to_csr(baij)
        assert_csr_arrays(baij.to_csr(), back.rowptr, back.colidx, back.val)
    check_esb_bits(csr)


def check_aij_paths(csr):
    m, _ = csr.shape
    assert np.array_equal(bits(csr.to_dense()), bits(ref_to_dense(csr)))
    assert np.array_equal(bits(csr.diagonal()), bits(np.diag(csr.to_dense())))
    perm = np.random.default_rng(m).permutation(m)
    assert_csr_arrays(csr.permute_rows(perm), *ref_permute_rows(csr, perm))


@settings(max_examples=60, deadline=None)
@given(csr=csr_panel())
def test_sell_setup_paths_match_the_loop_oracles(csr):
    check_sell_paths(csr)


@settings(max_examples=60, deadline=None)
@given(csr=csr_panel())
def test_sell_to_csr_inherits_the_source_signature(csr):
    check_sell_signature_seed(csr)


@settings(max_examples=60, deadline=None)
@given(csr=csr_panel())
def test_aij_setup_paths_match_the_loop_oracles(csr):
    check_aij_paths(csr)


@settings(max_examples=60, deadline=None)
@given(csr=csr_panel())
def test_other_format_setup_paths_match_the_loop_oracles(csr):
    check_other_format_paths(csr)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_structures(name):
    csr = DEGENERATE[name]
    check_sell_paths(csr)
    check_sell_signature_seed(csr)
    check_aij_paths(csr)
    check_other_format_paths(csr)


def test_gray_scott_operator_converts_exactly(gray_scott_small):
    check_sell_paths(gray_scott_small)
    check_aij_paths(gray_scott_small)
    check_other_format_paths(gray_scott_small)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=15),
    n=st.integers(min_value=0, max_value=15),
    count=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    sum_duplicates=st.booleans(),
)
def test_from_coo_matches_the_lexsort_oracle(m, n, count, seed, sum_duplicates):
    rows, cols, vals = coo_triplets(m, n, count, seed, negative_zeros=True)
    a = AijMat.from_coo((m, n), rows, cols, vals, sum_duplicates=sum_duplicates)
    assert_csr_arrays(a, *ref_from_coo((m, n), rows, cols, vals, sum_duplicates))


@pytest.mark.parametrize(
    "row, col",
    [(-1, 0), (2, 0), (0, -1), (0, 3), (1, -1), (-1, 2), (1, 3)],
)
def test_from_coo_rejects_out_of_range_indices(row, col):
    """(1, -1) would key to 1*n - 1, i.e. alias onto (0, n-1)."""
    rows = np.array([0, row])
    cols = np.array([2, col])
    with pytest.raises(IndexError):
        AijMat.from_coo((2, 3), rows, cols, np.ones(2))


# ----------------------------------------------------------------------
# Galerkin products: symbolic plan once, numeric phase per call
# ----------------------------------------------------------------------


def random_csr(m, n, count, seed, shuffle=False):
    """Triplets summed into CSR, with explicit zeros, -0.0 and values
    spread over 60 orders of magnitude; optionally unsorted rows."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = coo_triplets(m, n, count, seed, negative_zeros=True)
    vals = vals * 10.0 ** rng.integers(-30, 30, vals.size)
    vals[rng.random(vals.size) < 0.1] = 0.0
    csr = AijMat.from_coo((m, n), rows, cols, vals)
    if shuffle and csr.nnz:
        rows_of = np.repeat(np.arange(m), csr.row_lengths())
        order = np.lexsort((rng.random(csr.nnz), rows_of))
        csr = AijMat((m, n), csr.rowptr, csr.colidx[order], csr.val[order])
    return csr


@st.composite
def product_panel(draw, max_dim=14):
    """A conforming chain of two or three CSR factors."""
    dims = draw(st.lists(st.integers(0, max_dim), min_size=3, max_size=4))
    seed = draw(st.integers(0, 2**31 - 1))
    return [
        random_csr(m, n, draw(st.integers(0, 3 * max_dim)), seed + k,
                   shuffle=draw(st.booleans()))
        for k, (m, n) in enumerate(zip(dims, dims[1:], strict=False))
    ]


def ref_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = ref_csr_matmul(out, f)
    return out


def check_product(factors):
    """A planned product (store forced to miss, then hit with new values)
    equals the oracle chain array for array."""
    PLANS.invalidate("matmat", PLANS.matmat_key(*factors))
    ref = ref_chain(factors)
    assert_csr_arrays(csr_matmul(*factors), ref.rowptr, ref.colidx, ref.val)
    hits = PLANS.stats()["hits"].get("matmat", 0)
    twins = [revalued(f, k) for k, f in enumerate(factors)]
    ref = ref_chain(twins)
    assert_csr_arrays(csr_matmul(*twins), ref.rowptr, ref.colidx, ref.val)
    assert PLANS.stats()["hits"].get("matmat", 0) == hits + 1


@settings(max_examples=60, deadline=None)
@given(factors=product_panel())
def test_planned_product_matches_the_expand_and_assemble_oracle(factors):
    check_product(factors)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_planned_product_on_degenerate_structures(name):
    d = DEGENERATE[name]
    m, n = d.shape
    for k in (0, 1, 4):
        check_product([d, random_csr(n, k, 3 * n, seed=k)])
        check_product([random_csr(k, m, 3 * m, seed=k), d])
        check_product([random_csr(k, m, 3 * m, seed=k), d, random_csr(n, k, 3 * n, seed=k)])
    check_product([d, AijMat.from_coo((n, 2), [], [], [])])


def test_planned_product_on_the_gray_scott_operator(gray_scott_small):
    from repro.ksp.pc.mg import grid_transfers
    from repro.pde.grid import Grid2D

    p, r = grid_transfers(Grid2D(4, 4, dof=2), Grid2D(8, 8, dof=2))
    check_product([r, gray_scott_small, p])
    check_product([r, gray_scott_small])


def test_a_changed_structure_misses_the_plan_store():
    a = random_csr(6, 5, 12, seed=1)
    b = random_csr(5, 4, 10, seed=2)
    csr_matmul(a, b)
    misses = PLANS.stats()["misses"].get("matmat", 0)
    c = random_csr(5, 4, 10, seed=3)  # same shape, other pattern
    ref = ref_csr_matmul(a, c)
    assert_csr_arrays(csr_matmul(a, c), ref.rowptr, ref.colidx, ref.val)
    assert PLANS.stats()["misses"].get("matmat", 0) == misses + 1
