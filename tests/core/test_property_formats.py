"""Property-based tests: format equivalence over random sparse matrices.

Hypothesis generates sparsity patterns (including degenerate ones: empty
rows, empty matrices, single columns); every format must round-trip
through CSR and multiply bit for bit like SciPy's CSR product, and every
instruction-level kernel must agree with that product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beta import BetaMat
from repro.core.esb import EsbMat
from repro.core.sell import SellMat
from repro.mat.aij import AijMat
from repro.mat.aij_perm import AijPermMat
from repro.mat.baij import BaijMat
from repro.mat.coo import CooMat
from repro.mat.ellpack import EllpackMat
from repro.mat.hybrid import HybridMat


@st.composite
def sparse_matrices(draw, max_dim: int = 18):
    """A random CSR matrix via a dense mask (small, but adversarial)."""
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.standard_normal((m, n)), 0.0)
    return AijMat.from_dense(dense)


def _coo_from_csr(csr):
    rows = np.repeat(np.arange(csr.shape[0]), csr.row_lengths())
    return CooMat(csr.shape, rows, csr.colidx, csr.val)


CONVERTERS = {
    "ELLPACK": EllpackMat.from_csr,
    "SELL": lambda csr: SellMat.from_csr(csr, slice_height=4),
    "SELL-sorted": lambda csr: SellMat.from_csr(csr, 4, sigma=8),
    "ESB": lambda csr: EsbMat.from_csr(csr, slice_height=4),
    "CSRPerm": AijPermMat.from_csr,
    "HYB": HybridMat.from_csr,
    "BAIJ": lambda csr: BaijMat.from_csr(csr, 2),
    "BETA": BetaMat.from_csr,
    "BETA-4x2": lambda csr: BetaMat.from_csr(csr, block_shape=(4, 2)),
    "COO": _coo_from_csr,
}


def converted(csr):
    """(name, matrix) for every format that can hold ``csr``."""
    m, n = csr.shape
    for name, convert in CONVERTERS.items():
        if name == "BAIJ" and (m % 2 or n % 2):
            continue  # BAIJ(2) needs even dimensions
        yield name, convert(csr)


def spread(rng, size):
    """Signed values over 16 decades, so any change of summation order
    shows up in the low bits."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)


def check_products_match_scipy(csr):
    """multiply, each multiply_multi column and multiply_transpose equal
    SciPy's ``A @ x`` and ``A.T @ x`` bit for bit."""
    m, n = csr.shape
    rng = np.random.default_rng(7)
    x, xt, xs = spread(rng, n), spread(rng, m), spread(rng, n * 3).reshape(n, 3)
    ref = csr.to_scipy()
    y_ref, yt_ref, ys_ref = ref @ x, ref.T @ xt, ref @ xs
    for name, mat in converted(csr):
        assert np.array_equal(mat.multiply(x), y_ref), name
        ys = mat.multiply_multi(xs)
        for j in range(xs.shape[1]):
            assert np.array_equal(ys[:, j], ys_ref[:, j]), name
            assert np.array_equal(ys[:, j], mat.multiply(xs[:, j])), name
        assert np.array_equal(mat.multiply_transpose(xt), yt_ref), name


@settings(max_examples=30, deadline=None)
@given(csr=sparse_matrices())
def test_every_format_multiplies_like_csr(csr):
    check_products_match_scipy(csr)


DEGENERATE = {
    "empty": AijMat.from_coo((0, 0), [], [], []),
    "no-entries": AijMat.from_coo((6, 4), [], [], []),
    "empty-rows": AijMat.from_coo(
        (8, 6), [0, 3, 3, 7], [5, 0, 2, 1], [1.5, -2.0, 3.25, 4.0]
    ),
    "1xn": AijMat.from_dense(np.arange(1.0, 12.0).reshape(1, 11)),
    "nx1": AijMat.from_dense(np.arange(1.0, 12.0).reshape(11, 1)),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_formats_multiply_like_csr(name):
    check_products_match_scipy(DEGENERATE[name])


@settings(max_examples=30, deadline=None)
@given(csr=sparse_matrices())
def test_every_format_round_trips_to_csr(csr):
    for name, mat in converted(csr):
        back = mat.to_csr()
        assert np.array_equal(back.rowptr, csr.rowptr), name
        assert np.array_equal(back.colidx, csr.colidx), name
        assert np.array_equal(back.val, csr.val), name


@settings(max_examples=25, deadline=None)
@given(
    csr=sparse_matrices(max_dim=12),
    c=st.sampled_from([1, 2, 4, 8]),
)
def test_sell_padding_invariants(csr, c):
    sell = SellMat.from_csr(csr, slice_height=c)
    # Slot count = nnz + padding, and is a whole number of slice columns.
    assert int(sell.sliceptr[-1]) == csr.nnz + sell.padded_entries
    assert sell.padded_entries >= 0
    for s in range(sell.nslices):
        assert (sell.sliceptr[s + 1] - sell.sliceptr[s]) % c == 0
    # Every padded slot carries value zero and an in-range column.
    if sell.val.shape[0]:
        assert sell.colidx.min() >= 0
        assert sell.colidx.max() < csr.shape[1]


@settings(max_examples=15, deadline=None)
@given(csr=sparse_matrices(max_dim=10))
def test_kernels_agree_with_the_fast_path(csr):
    """The instruction-level engine kernels are numerically real."""
    from repro.core.dispatch import CSR_AVX, CSR_AVX512, SELL_AVX512

    x = np.random.default_rng(8).standard_normal(csr.shape[1])
    reference = csr.multiply(x)
    for variant in (CSR_AVX512, CSR_AVX, SELL_AVX512):
        mat = variant.prepare(csr)
        y, counters = variant.run(mat, x)
        assert np.allclose(y, reference, atol=1e-10), variant.name
        assert counters.bytes_loaded >= 0


@settings(max_examples=20, deadline=None)
@given(csr=sparse_matrices(max_dim=14), seed=st.integers(0, 1000))
def test_distributed_spmv_matches_sequential(csr, seed):
    """Random matrix, random partition count: the 4-step parallel SpMV
    equals the sequential product."""
    from repro.comm.spmd import run_spmd
    from repro.mat.mpi_aij import MPIAij
    from repro.vec.mpi_vec import MPIVec

    m, n = csr.shape
    if m != n:
        csr = AijMat.from_dense(np.pad(csr.to_dense(), ((0, max(0, n - m)), (0, max(0, m - n)))))
    x = np.random.default_rng(seed).standard_normal(csr.shape[1])
    expected = csr.multiply(x)
    size = (seed % 3) + 1

    def prog(comm):
        a = MPIAij.from_global_csr(comm, csr)
        xv = MPIVec.from_global(comm, a.layout, x)
        return a.multiply(xv).to_global()

    for result in run_spmd(size, prog):
        assert np.allclose(result, expected, atol=1e-10)
