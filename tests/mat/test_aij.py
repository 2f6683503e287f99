"""AIJ/CSR: the reference format everything else converts through."""

import numpy as np
import pytest

from repro.mat.aij import AijMat
from repro.mat.base import MatrixShapeError

from ..conftest import make_random_csr


class TestConstruction:
    def test_from_coo_sums_duplicates(self):
        a = AijMat.from_coo(
            (2, 2),
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([2.0, 3.0, 4.0]),
        )
        dense = a.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 4.0
        assert a.nnz == 2

    def test_from_coo_keeps_duplicates_when_asked(self):
        a = AijMat.from_coo(
            (2, 2),
            np.array([0, 0]),
            np.array([1, 1]),
            np.array([2.0, 3.0]),
            sum_duplicates=False,
        )
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 5.0  # dense accumulation still sums

    def test_columns_are_sorted_within_rows(self):
        a = AijMat.from_coo(
            (1, 5),
            np.array([0, 0, 0]),
            np.array([4, 0, 2]),
            np.array([1.0, 2.0, 3.0]),
        )
        assert np.array_equal(a.colidx, [0, 2, 4])

    def test_from_dense_round_trip(self, rng):
        dense = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.3)
        a = AijMat.from_dense(dense)
        assert np.allclose(a.to_dense(), dense)

    def test_storage_is_aligned(self, small_csr):
        assert small_csr.val.ctypes.data % 64 == 0
        assert small_csr.colidx.ctypes.data % 64 == 0

    def test_inconsistent_arrays_rejected(self):
        with pytest.raises(ValueError):
            AijMat((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            AijMat((2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))

    def test_out_of_range_column_rejected(self):
        with pytest.raises(IndexError):
            AijMat((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_scipy_round_trip(self, small_csr):
        back = AijMat.from_scipy(small_csr.to_scipy())
        assert back.equal(small_csr, tol=0.0)


class TestMultiply:
    def test_matches_dense(self, rng):
        for seed in range(5):
            a = make_random_csr(15, 11, density=0.3, seed=seed)
            x = rng.standard_normal(11)
            assert np.allclose(a.multiply(x), a.to_dense() @ x)

    def test_empty_rows_produce_zeros(self):
        a = AijMat.from_coo((4, 4), np.array([1]), np.array([2]), np.array([3.0]))
        y = a.multiply(np.ones(4))
        assert np.array_equal(y, [0.0, 3.0, 0.0, 0.0])

    def test_empty_matrix(self):
        a = AijMat.from_coo((3, 3), np.array([]), np.array([]), np.array([]))
        assert np.array_equal(a.multiply(np.ones(3)), np.zeros(3))

    def test_output_buffer_is_reused(self, small_csr, rng):
        x = rng.standard_normal(small_csr.shape[1])
        y = np.empty(small_csr.shape[0])
        out = small_csr.multiply(x, y)
        assert out is y

    def test_nonconforming_input_raises(self, small_csr):
        with pytest.raises(MatrixShapeError):
            small_csr.multiply(np.ones(small_csr.shape[1] + 1))
        with pytest.raises(MatrixShapeError):
            small_csr.multiply(
                np.ones(small_csr.shape[1]), np.ones(small_csr.shape[0] + 2)
            )


class TestHelpers:
    def test_row_lengths(self):
        a = AijMat.from_coo(
            (3, 3), np.array([0, 0, 2]), np.array([0, 1, 2]), np.ones(3)
        )
        assert np.array_equal(a.row_lengths(), [2, 0, 1])

    def test_get_row(self, small_csr):
        cols, vals = small_csr.get_row(3)
        lo, hi = small_csr.rowptr[3], small_csr.rowptr[4]
        assert cols.shape[0] == hi - lo

    def test_diagonal(self, rng):
        dense = np.diag(np.arange(1.0, 5.0))
        dense[0, 3] = 7.0
        a = AijMat.from_dense(dense)
        assert np.array_equal(a.diagonal(), [1.0, 2.0, 3.0, 4.0])

    def test_diagonal_with_missing_entries(self):
        a = AijMat.from_coo((3, 3), np.array([0]), np.array([1]), np.array([5.0]))
        assert np.array_equal(a.diagonal(), np.zeros(3))

    def test_diagonal_sums_kept_duplicates(self):
        a = AijMat.from_coo(
            (3, 3),
            np.array([0, 0, 1, 2, 2]),
            np.array([0, 0, 1, 2, 0]),
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
            sum_duplicates=False,
        )
        assert np.array_equal(a.diagonal(), [3.0, 3.0, 4.0])
        assert np.array_equal(a.diagonal(), np.diag(a.to_dense()))
        assert np.array_equal(a.multiply(np.eye(3)[0]), a.to_dense()[:, 0])

    def test_diagonal_of_an_unsorted_row(self):
        a = AijMat((2, 2), np.array([0, 2, 3]), np.array([1, 0, 1]),
                   np.array([7.0, 9.0, 4.0]))
        assert np.array_equal(a.diagonal(), [9.0, 4.0])
        assert np.array_equal(a.diagonal(), np.diag(a.to_dense()))

    def test_transpose(self, small_csr, rng):
        x = rng.standard_normal(small_csr.shape[0])
        t = small_csr.transpose()
        assert np.allclose(t.multiply(x), small_csr.to_dense().T @ x)

    def test_permute_rows(self, rng):
        a = make_random_csr(6, density=0.4, seed=3)
        perm = np.array([5, 3, 1, 0, 2, 4])
        p = a.permute_rows(perm)
        assert np.allclose(p.to_dense(), a.to_dense()[perm])

    def test_permute_rows_validates_the_permutation(self, small_csr):
        with pytest.raises(ValueError):
            small_csr.permute_rows(np.zeros(small_csr.shape[0], dtype=np.int64))

    def test_memory_bytes_formula(self, small_csr):
        """12 bytes/nnz (8 value + 4 index) + 8 bytes per rowptr entry."""
        m = small_csr.shape[0]
        assert small_csr.memory_bytes() == 12 * small_csr.nnz + 8 * (m + 1)

    def test_equal_detects_value_differences(self, small_csr):
        other = AijMat(
            small_csr.shape, small_csr.rowptr, small_csr.colidx, small_csr.val
        )
        assert small_csr.equal(other)
        other.val[0] += 1e-3
        assert not small_csr.equal(other, tol=1e-9)
        assert small_csr.equal(other, tol=1e-2)
