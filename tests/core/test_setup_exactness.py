"""Exactness of the whole-array setup paths against their loop originals.

Assembly (``AijMat.from_coo``), MatConvert (``SellMat.from_csr``), the SELL
row map, the ESB bit array, ``SellMat.to_csr``, ``EllpackMat.to_csr``,
``BaijMat.to_csr``, MatGetDiagonal, ``permute_rows`` and ``to_dense`` used
to be Python loops over rows, slices or blocks.  The loops are
kept below as reference oracles, and every vectorized path must reproduce
their arrays exactly — ``array_equal``, never a tolerance — over a
hypothesis panel and a list of degenerate structures.

Diagonals are held to a stricter contract than the oracle: for every
format, ``diagonal()`` is bitwise equal to ``np.diag(to_dense())``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.esb import EsbMat
from repro.core.sell import SellMat
from repro.mat.aij import AijMat
from repro.mat.baij import BaijMat
from repro.mat.ellpack import EllpackMat

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


def check_sell_paths(csr):
    for c, sigma in sell_params(csr.shape[0]):
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


def check_esb_bits(csr):
    for c, sigma in sell_params(csr.shape[0]):
        esb = EsbMat.from_csr(csr, slice_height=c, sigma=sigma)
        assert np.array_equal(esb.bits, ref_esb_bits(esb)), f"C={c} sigma={sigma}"


def check_other_format_paths(csr):
    ell = EllpackMat.from_csr(csr)
    back = ref_ellpack_to_csr(ell)
    assert_csr_arrays(ell.to_csr(), back.rowptr, back.colidx, back.val)
    m, n = csr.shape
    for bs in (1, 2, 3):
        if m % bs or n % bs:
            continue
        baij = BaijMat.from_csr(csr, bs)
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
