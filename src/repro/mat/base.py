"""The Mat interface shared by every sequential matrix format.

PETSc's Mat object is format-polymorphic — the solver stack calls
``MatMult`` without knowing whether the operator is AIJ, BAIJ, AIJPERM, or
SELL (that polymorphism is what lets the paper swap ``-dm_mat_type sell``
into an unchanged application).  This base class is that contract:

* :meth:`multiply` / :meth:`multiply_transpose` — the production products
  (MatMult, MatMultTranspose).  Every format runs them on one cached SciPy
  CSR handle built from :meth:`to_csr`, so they have one documented
  summation order whatever the format: SciPy's sequential row sum in CSR
  storage order (the transpose adds each stored entry into its column in
  the same order).  A solve therefore produces the same bits whichever
  format the tuner picks.  The format-specific arithmetic of the paper's
  kernels lives in the instruction-level engine kernels, not here;
* :meth:`to_csr` / conversion hooks — every format round-trips through CSR,
  which is both how PETSc converts and how the tests establish equivalence;
* :meth:`memory_bytes` — the storage footprint, feeding the Section 6
  traffic analysis and the MCDRAM capacity checks.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aij import AijMat

#: A format converter: assembled CSR in, format-specific Mat out.  It takes
#: as keywords exactly the tuning knobs its registration declares.
FormatConverter = Callable[..., "Mat"]

#: Every tuning knob a converter may declare: the SELL-C-sigma slice height
#: and sorting scope (Sections 5.1 and 5.4) and the β(r,c) block shape.
KNOBS = ("slice_height", "sigma", "block_shape")

_FORMAT_CONVERTERS: dict[str, FormatConverter] = {}
_FORMAT_KNOBS: dict[str, tuple[str, ...]] = {}


class MatrixShapeError(ValueError):
    """A vector did not conform to the matrix dimensions."""


class UnknownFormatError(KeyError):
    """No converter is registered under the requested format name."""


def register_format(
    *names: str, knobs: tuple[str, ...] = ()
) -> Callable[[FormatConverter], FormatConverter]:
    """Register a CSR-to-format converter under one or more format names.

    This is PETSc's ``MatConvert`` dispatch table in miniature: the
    :meth:`KernelVariant.prepare` step looks converters up by the variant's
    ``fmt`` string instead of hard-coding an if-chain, so adding a format is
    one decorated definition next to the Mat subclass it builds::

        @register_format("SELL", knobs=("slice_height", "sigma"))
        def _sell_from_csr(csr, *, slice_height=8, sigma=1):
            return SellMat.from_csr(csr, slice_height=slice_height, sigma=sigma)

    ``knobs`` names the tuning knobs (a subset of :data:`KNOBS`) the
    converter takes as keywords.  Preparation, cache keys and the
    autotuner's sweep pass and vary only those, so a format is never
    re-converted or re-measured over a knob it ignores.
    """
    if not names:
        raise ValueError("register_format needs at least one format name")
    unknown = set(knobs) - set(KNOBS)
    if unknown:
        raise ValueError(f"unknown tuning knobs {sorted(unknown)}; known: {KNOBS}")

    def deco(converter: FormatConverter) -> FormatConverter:
        for name in names:
            existing = _FORMAT_CONVERTERS.get(name)
            if existing is not None and existing is not converter:
                raise ValueError(f"format {name!r} is already registered")
            _FORMAT_CONVERTERS[name] = converter
            _FORMAT_KNOBS[name] = tuple(k for k in KNOBS if k in knobs)
        return converter

    return deco


def format_knobs(fmt: str) -> tuple[str, ...]:
    """The tuning knobs a registered format's converter consumes."""
    converter_for(fmt)  # unknown formats raise the registry's error
    return _FORMAT_KNOBS[fmt]


def converter_for(fmt: str) -> FormatConverter:
    """Look up the registered converter for a format name."""
    try:
        return _FORMAT_CONVERTERS[fmt]
    except KeyError:
        raise UnknownFormatError(
            f"unknown format {fmt!r}; registered: {sorted(_FORMAT_CONVERTERS)}"
        ) from None


def registered_formats() -> tuple[str, ...]:
    """The format names currently in the converter registry, sorted."""
    return tuple(sorted(_FORMAT_CONVERTERS))


class Mat(abc.ABC):
    """Abstract sequential sparse matrix."""

    #: Format name as it appears in benchmark tables ("CSR", "SELL", ...).
    format_name: str = "abstract"

    # -- shape -----------------------------------------------------------
    @property
    @abc.abstractmethod
    def shape(self) -> tuple[int, int]:
        """(rows, columns)."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Stored nonzeros, excluding any format padding."""

    # -- operations --------------------------------------------------------
    def multiply(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """y = A @ x (allocating y when not supplied), on the CSR handle."""
        x, y = self._check_multiply_args(x, y)
        y[:] = self._spmm_handle() @ x
        return y

    def multiply_transpose(self, x: np.ndarray) -> np.ndarray:
        """A^T @ x (MatMultTranspose), on the same CSR handle.

        No transposed copy is stored: SciPy's transpose of the handle is a
        CSC view of the same arrays, whose product adds ``val * x[row]``
        into ``y[col]`` entry by entry in CSR storage order.
        """
        m, n = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (m,):
            raise MatrixShapeError(
                f"input vector of shape {x.shape} does not conform to the "
                f"transpose of matrix {m}x{n}"
            )
        return self._spmm_handle().T @ x

    def multiply_multi(
        self, xs: np.ndarray, ys: np.ndarray | None = None
    ) -> np.ndarray:
        """One multi-vector pass ``Y = A @ [x1 ... xk]`` (``xs`` is n-by-k).

        The amortization the serving layer's request batcher banks on:
        the matrix (values, indices, row structure) streams through memory
        once for the whole batch instead of once per vector.  Runs on a
        compiled CSR handle built lazily once per matrix (SciPy's CSR
        matmat).

        Column ``j`` of the result is *batch-size invariant* — identical
        bits whether ``x_j`` was multiplied alone or alongside any other
        columns — and bitwise equal to ``multiply(x_j)``, which runs on the
        same handle in the same summation order.  That is what lets a
        server batch requests without changing any tenant's answer.
        Matrices are treated as immutable once multiplied: reassembling
        values must build a new matrix, not mutate this one's buffers.
        """
        m, n = self.shape
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[0] != n:
            raise MatrixShapeError(
                f"input block of shape {xs.shape} does not conform to "
                f"matrix {m}x{n}"
            )
        if ys is not None and ys.shape != (m, xs.shape[1]):
            raise MatrixShapeError(
                f"output block of shape {ys.shape} does not conform to "
                f"({m}, {xs.shape[1]})"
            )
        handle = self._spmm_handle()
        if ys is None:
            ys = np.asarray(handle @ xs, dtype=np.float64)
        else:
            ys[:] = handle @ xs
        return ys

    def _spmm_handle(self):
        """The cached compiled-CSR handle every product runs on.

        Built once per matrix (through :meth:`to_csr`, an identity for
        CSR itself) and reused by :meth:`multiply`,
        :meth:`multiply_transpose` and :meth:`multiply_multi`.
        """
        handle = getattr(self, "_spmm_handle_cache", None)
        if handle is None:
            import scipy.sparse as sp

            csr = self.to_csr()
            handle = sp.csr_matrix(
                (csr.val, csr.colidx, csr.rowptr), shape=csr.shape
            )
            self._spmm_handle_cache = handle
        return handle

    @abc.abstractmethod
    def to_csr(self) -> "AijMat":
        """Convert to the CSR reference format."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Bytes of storage the format occupies (values + all index arrays)."""

    def diagonal(self) -> np.ndarray:
        """The main diagonal (zero where no entry is stored)."""
        return self.to_csr().diagonal()

    # -- ABFT checksums ------------------------------------------------------
    def abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, wabs) = (Aᵀ·1, |A|ᵀ·1), computed once per matrix and cached.

        These are the row-checksum vectors of the ABFT verification
        (:mod:`repro.faults.abft`): ``w·x = Σ(A·x)`` exactly in real
        arithmetic, and ``wabs`` bounds the rounding of that identity.
        Formats whose storage permits it override
        :meth:`_compute_abft_checksums` to avoid the CSR round-trip.
        """
        cached = getattr(self, "_abft_checksum_cache", None)
        if cached is None:
            cached = self._compute_abft_checksums()
            self._abft_checksum_cache = cached
        return cached

    def _compute_abft_checksums(self) -> tuple[np.ndarray, np.ndarray]:
        csr = self.to_csr()
        n = self.shape[1]
        w = np.bincount(csr.colidx, weights=csr.val, minlength=n)[:n]
        wabs = np.bincount(csr.colidx, weights=np.abs(csr.val), minlength=n)[:n]
        return w, wabs

    # -- helpers ---------------------------------------------------------------
    def _check_multiply_args(
        self, x: np.ndarray, y: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        m, n = self.shape
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != n:
            raise MatrixShapeError(
                f"input vector of length {x.shape if x.ndim != 1 else x.shape[0]} "
                f"does not conform to matrix {m}x{n}"
            )
        if y is None:
            y = np.zeros(m, dtype=np.float64)
        elif y.ndim != 1 or y.shape[0] != m:
            raise MatrixShapeError(
                f"output vector of length {y.shape[0]} does not conform to "
                f"matrix {m}x{n}"
            )
        return x, y

    def to_dense(self) -> np.ndarray:
        """Dense copy, for tests on small matrices only."""
        csr = self.to_csr()
        m, n = csr.shape
        dense = np.zeros((m, n), dtype=np.float64)
        rows = np.repeat(np.arange(m, dtype=np.int64), csr.row_lengths())
        # np.add.at accumulates duplicate entries in storage order; fancy-
        # index += would silently keep only the last one.
        np.add.at(dense, (rows, csr.colidx), csr.val)
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        m, n = self.shape
        return f"{type(self).__name__}(shape=({m}, {n}), nnz={self.nnz})"
