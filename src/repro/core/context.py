"""ExecutionContext: one object owning how kernels run and are priced.

The paper's experiments are parameterized by a small bundle of execution
state — which processor and memory mode (Table 1, Figure 4), how many
ranks, which ISA the kernels were built for, whether alignment is strictly
enforced (Section 3.1), and the SELL ``C``/``sigma`` knobs (Sections 5.1
and 5.4).  Before this module that bundle was hand-threaded through every
``measure()``/``predict()`` call; the :class:`ExecutionContext` carries it
once and becomes the object callers hand around:

* ``ctx.measure(variant, csr)`` — run a kernel on the interpreted engine
  under the context's policy, memoized per (variant, configuration,
  matrix);
* ``ctx.predict(meas)`` — price a measurement on the context's machine;
* ``ctx.best_plan(csr)`` / ``ctx.best_variant(csr)`` — inspector-executor
  style format selection and parameter tuning over the full (format, C,
  sigma, block shape, ISA) knob space, memoized per
  sparsity signature (:func:`repro.mat.sparsity.signature`), so repeated
  solves on the same stencil never re-sweep;
* ``ctx.reformat(csr)`` — convert an assembled operator to the context's
  chosen format, the seam the solver stack (``ksp``) uses to retune
  operators per multigrid level.

Contexts are cheap to derive (:meth:`with_nprocs`, :meth:`with_model`)
and derived contexts share the measurement cache — engine measurements
depend only on the kernel and the matrix, never on the machine model.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..faults.abft import AbftChecker, SdcDetected, corrupt_product
from ..faults.events import emit as emit_fault_event
from ..faults.plan import CORRUPTION_KINDS
from ..faults.plan import fire as fire_fault
from ..machine.perf_model import (
    KernelPerformance,
    MemoryMode,
    PerfModel,
    make_model,
)
from ..machine.specs import KNL_7230, ProcessorSpec
from ..mat.aij import AijMat
from ..mat.base import Mat
from ..obs.observer import active_observer, obs_counter, obs_event
from ..simd.engine import AlignmentFault, SimdEngine
from ..simd.isa import Isa, get_isa
from ..simd.counters import KernelCounters
from .dispatch import ALL_VARIANTS, KernelVariant, get_variant
from .registry import SignatureRegistry
from .spmv import SpmvMeasurement
from .spmv import default_x as spmv_default_x
from .spmv import predict as _predict
from .traffic import traffic_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..mat.mpi_aij import MPIAij

#: Preference order when picking the widest ISA a machine supports.  SVE
#: sits beside AVX-512 (no modeled machine offers both, so the relative
#: order between them is never exercised); a spec naming "SVE" builds for
#: the predicate-register backend the way an x86 spec builds for masks.
_ISA_PREFERENCE = ("AVX512", "SVE", "AVX2", "AVX", "SSE2", "novec")


def _widest_isa(spec: ProcessorSpec) -> Isa:
    """The widest ISA in the spec's supported set (Table 1's build target)."""
    for name in _ISA_PREFERENCE:
        if name in spec.isa_names:
            return get_isa(name)
    raise ValueError(f"{spec.name} supports none of the modeled ISAs")


@dataclass(frozen=True)
class FormatPlan:
    """An autotuned execution plan: the winning variant plus its knobs.

    What :meth:`ExecutionContext.best_plan` returns and
    :meth:`ExecutionContext.reformat` consumes.  Once the search space
    spans slice heights, sorting scopes and block shapes, the variant
    alone is not a complete decision, so the plan carries every knob the
    winning measurement was taken at.  A SELL knob the variant's format
    does not declare reads the context's value; ``block_shape`` is
    ``None`` for formats without it.

    ``sweep`` holds one plan per priced candidate, in sweep order; the
    winner equals its own row (plans compare by decision, not by sweep).
    Rows carry no arrays: the counters of a row are
    ``ctx.measure(row.variant, csr, ...)`` at its knobs, a memo hit.
    """

    variant: KernelVariant
    slice_height: int
    sigma: int
    block_shape: tuple[int, int] | None
    gflops: float
    sweep: tuple["FormatPlan", ...] = field(
        default=(), repr=False, compare=False
    )


@dataclass
class ExecutionContext:
    """Execution policy + machine model + memoized tuning decisions.

    Parameters
    ----------
    model:
        The machine to price kernels on (processor spec + memory mode +
        overlap rule).  Defaults to the paper's primary platform: KNL 7230
        in flat-MCDRAM mode.
    nprocs:
        MPI ranks sharing the node.  Defaults to every core of the model's
        processor (the full-node configuration of Figures 8/9/11).
    isa:
        The ISA kernels are built for.  Defaults to the widest ISA the
        processor supports — the ``-march`` flag of the paper's builds.
    strict_alignment:
        When true, engines fault on misaligned aligned-ops
        (Section 3.1's behavior) instead of degrading them.
    slice_height / sigma:
        Default SELL ``C`` and sorting window for format conversions and
        measurements made through this context.
    block_shape:
        Default β(r,c) block dimensions for conversions to block-masked
        formats.  Like every knob, it is passed only to formats that
        declare it (:func:`repro.mat.base.register_format`) and is
        ``None`` in every other format's cache keys.
    default_variant:
        When set (a variant or legend name), :meth:`reformat` uses it
        unconditionally; when ``None`` the autotuned
        :meth:`best_variant` decides.
    abft / abft_rtol:
        When ``abft`` is true, every product run through the context is
        ABFT-verified (checksum cross-check, :mod:`repro.faults.abft`)
        and a detected corruption degrades down the recovery ladder:
        interpreted kernel → fresh interpreted retry → scalar CSR
        reference.  Off by default — results are then bit-identical to a
        context without the feature.  Solvers attached to the context
        also inherit the toggle (their operators are wrapped in
        :class:`~repro.faults.abft.AbftOperator`).
    max_send_retries:
        Retransmission budget for a dropped simulated-MPI message before
        a send fails (``None`` → the communicator default,
        :data:`repro.comm.communicator.MAX_SEND_RETRIES`).  Layers that
        build :class:`~repro.comm.communicator.World` objects from a
        context (the serve executor, the elastic driver) thread it
        through.
    verify_variants:
        When true, the :meth:`best_plan` sweep statically verifies each
        candidate at its own ``sigma``/``block_shape`` with
        :meth:`verify_variant` (the
        :mod:`repro.analysis` trace linter) and refuses any variant with
        findings — a kernel that lints dirty on this matrix never wins
        tuning, however fast the model prices it.  Off by default; the
        shipped kernels all verify clean, so enabling it only changes
        the outcome when a registered kernel is actually broken.
    """

    model: PerfModel = field(default_factory=lambda: make_model(KNL_7230))
    nprocs: int | None = None
    isa: Isa | None = None
    strict_alignment: bool = False
    slice_height: int = 8
    sigma: int = 1
    block_shape: tuple[int, int] = (2, 4)
    default_variant: KernelVariant | str | None = None
    abft: bool = False
    abft_rtol: float = 1.0e-9
    verify_variants: bool = False
    max_send_retries: int | None = None

    #: Autotune sweeps actually executed (cache misses); tests assert this
    #: stays at one per sparsity signature across repeated solves.
    autotune_sweeps: int = field(default=0, repr=False, compare=False)

    #: The memoization store: every cache the context owns (measure and
    #: best memos, prepared formats, default inputs, verifier verdicts)
    #: lives in this shared, concurrency-safe
    #: :class:`~repro.core.registry.SignatureRegistry`.  A fresh context
    #: makes its own private registry; pass one registry to many
    #: contexts — or derive views with :meth:`view` — to share every
    #: measurement and tuning decision across them.
    registry: SignatureRegistry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.registry is None:
            self.registry = SignatureRegistry()
        if self.nprocs is None:
            self.nprocs = self.model.spec.cores
        if not 1 <= self.nprocs <= self.model.spec.cores:
            raise ValueError(
                f"nprocs {self.nprocs} out of range for "
                f"{self.model.spec.name} ({self.model.spec.cores} cores)"
            )
        if self.isa is None:
            self.isa = _widest_isa(self.model.spec)
        if isinstance(self.default_variant, str):
            self.default_variant = get_variant(self.default_variant)

    # -- derived state -------------------------------------------------
    @property
    def spec(self) -> ProcessorSpec:
        """The processor being modeled."""
        return self.model.spec

    @property
    def memory_mode(self) -> MemoryMode:
        """The node memory configuration (flat-MCDRAM, cache, DDR, ...)."""
        return self.model.mode

    def supports(self, variant: KernelVariant) -> bool:
        """Whether this machine can run a kernel built for the variant's ISA."""
        return variant.isa.name in self.spec.isa_names

    def supported_variants(self) -> tuple[KernelVariant, ...]:
        """Registered variants this machine can run, in name order."""
        return tuple(
            ALL_VARIANTS[name]
            for name in sorted(ALL_VARIANTS)
            if self.supports(ALL_VARIANTS[name])
        )

    # -- engines and measurement ---------------------------------------
    def engine(self, isa: Isa | None = None) -> SimdEngine:
        """A fresh engine under this context's alignment policy."""
        return SimdEngine(
            isa if isa is not None else self.isa,
            strict_alignment=self.strict_alignment,
        )

    def _knobs(
        self,
        variant: KernelVariant,
        slice_height: int | None = None,
        sigma: int | None = None,
        block_shape: tuple[int, int] | None = None,
    ) -> tuple:
        """The (C, sigma, block shape) a variant runs at.

        Each knob its format declares is the one given or else the
        context's; the others are ``None``, so no cache key splits on a
        knob the converter ignores.
        """
        declared = variant.knobs
        return (
            (self.slice_height if slice_height is None else slice_height)
            if "slice_height" in declared else None,
            (self.sigma if sigma is None else sigma)
            if "sigma" in declared else None,
            (self.block_shape if block_shape is None else block_shape)
            if "block_shape" in declared else None,
        )

    def measure(
        self,
        variant: KernelVariant | str,
        csr: AijMat,
        x: np.ndarray | None = None,
        slice_height: int | None = None,
        sigma: int | None = None,
        block_shape: tuple[int, int] | None = None,
    ) -> SpmvMeasurement:
        """Run one variant's kernel on one matrix under this context.

        The kernel runs on the interpreted engine — the one execution
        path — so ``y`` and the instruction counters are exact.
        ``slice_height``/``sigma``/``block_shape`` default to the
        context's, and only those the variant's format declares count.
        Calls with the default input vector are memoized — keyed by the
        variant, the declared knobs, and a value-inclusive matrix
        signature — so figure harnesses and repeated tuner sweeps share
        one engine execution.
        """
        if isinstance(variant, str):
            variant = get_variant(variant)
        c, s, bs = self._knobs(variant, slice_height, sigma, block_shape)
        if x is not None:
            return self._measure_once(variant, csr, x, c, s, bs)
        key = SignatureRegistry.measure_key(
            variant.name, c, s, self.strict_alignment, csr, block_shape=bs
        )
        ran = []

        def factory() -> SpmvMeasurement:
            ran.append(True)
            return self._measure_once(variant, csr, None, c, s, bs)

        hit = self.registry.get_or_compute("measure", key, factory)
        if not ran:
            obs_counter("context.measure_cache_hits")
        return hit

    def _measure_once(
        self,
        variant: KernelVariant,
        csr: AijMat,
        x: np.ndarray | None,
        slice_height: int | None,
        sigma: int | None,
        block_shape: tuple[int, int] | None = None,
    ) -> SpmvMeasurement:
        mat = self._prepared(variant, csr, slice_height, sigma, block_shape)
        if x is None:
            x = self._default_x(csr.shape[1])
        with obs_event(f"Measure:{variant.name}"):
            y, counters = self._execute(variant, csr, mat, x)
        obs = active_observer()
        if obs is not None:
            obs.metrics.record_kernel_counters(counters, variant.name)
            obs.metrics.counter("context.measurements").inc()
        return SpmvMeasurement(
            variant=variant,
            mat=mat,
            y=y,
            counters=counters,
            traffic=traffic_for(mat),
        )

    def _prepared(
        self,
        variant: KernelVariant,
        csr: AijMat,
        slice_height: int | None,
        sigma: int | None,
        block_shape: tuple[int, int] | None = None,
    ) -> Mat:
        """Format conversion, memoized per (format, knobs, matrix values).

        Repeated measurements of one operator — tuner sweeps, figure
        harnesses iterating variants of one format — share a single
        conversion instead of re-running it per call.
        """
        return variant.prepare(
            csr, slice_height=slice_height, sigma=sigma,
            registry=self.registry, block_shape=block_shape,
        )

    def _default_x(self, n: int) -> np.ndarray:
        """The reproducible default input vector, built once per size."""
        return self.registry.get_or_compute(
            "default_x",
            SignatureRegistry.default_x_key(n),
            lambda: spmv_default_x(n),
        )

    def _execute(
        self, variant: KernelVariant, csr: AijMat, mat: Mat, x: np.ndarray
    ) -> tuple[np.ndarray, "KernelCounters"]:
        """Run one kernel down the graceful-degradation ladder.

        Rung 1 is the interpreted kernel; its output passes through the
        ``engine.output`` fault-injection site and, with :attr:`abft` on,
        the checksum verification.  A detected corruption retries on
        rung 2 (a fresh interpreted execution); if that also fails
        verification — or faults on alignment — rung 3 runs the trusted
        scalar CSR reference kernel, which is never injected.  With ABFT
        off the ladder collapses to rung 1.
        """
        checker = AbftChecker(mat, rtol=self.abft_rtol) if self.abft else None
        with contextlib.suppress(SdcDetected):
            y, counters = self._interpreted_run(variant, mat, x)
            spec = fire_fault("engine.output")
            if spec is not None and spec.kind in CORRUPTION_KINDS:
                corrupt_product(spec, y, x, checker, site="engine.output")
            if checker is not None:
                checker.verify(x, y, site="engine.output")
            return y, counters
        emit_fault_event(
            "degraded", "dispatch", "interpreted", detail=variant.name
        )
        with contextlib.suppress(SdcDetected, AlignmentFault):
            y, counters = self._interpreted_run(variant, mat, x)
            if checker is not None:
                checker.verify(x, y, site="engine.output")
            emit_fault_event(
                "recovered", "dispatch", "interpreted", detail=variant.name
            )
            return y, counters
        emit_fault_event(
            "degraded", "dispatch", "reference", detail=variant.name
        )
        reference = get_variant("CSR using novec")
        y, counters = reference.run(
            csr,
            x,
            strict_alignment=False,
            engine=SimdEngine(reference.isa, strict_alignment=False),
        )
        emit_fault_event(
            "recovered", "dispatch", "reference", detail=variant.name
        )
        return y, counters

    def _interpreted_run(
        self, variant: KernelVariant, mat: Mat, x: np.ndarray
    ) -> tuple[np.ndarray, "KernelCounters"]:
        return variant.run(
            mat,
            x,
            strict_alignment=self.strict_alignment,
            engine=self.engine(variant.isa),
        )

    def predict(
        self,
        measurement: SpmvMeasurement,
        scale: float = 1.0,
        working_set: int | None = None,
    ) -> KernelPerformance:
        """Price a measurement on this context's machine and rank count."""
        return _predict(
            measurement,
            self.model,
            nprocs=self.nprocs,
            scale=scale,
            working_set=working_set,
        )

    # -- static verification (the analyzer hook) -----------------------
    def verify_variant(
        self,
        variant: KernelVariant | str,
        csr: AijMat,
        sigma: int | None = None,
        block_shape: tuple[int, int] | None = None,
        slice_height: int | None = None,
    ):
        """Statically verify ``variant`` on ``csr``; an ``AnalysisReport``.

        Records one execution under the context's execution policy
        (``strict_alignment``, and ``slice_height``/``sigma``/
        ``block_shape`` unless given) and runs the full
        :mod:`repro.analysis` lint over the trace — including the
        numerical certifier, so a kernel whose rounding error cannot be
        bounded (``NUM0xx``) fails verification and is refused by
        :meth:`best_variant` under ``verify_variants=True`` exactly like
        a dataflow defect.  Memoized per sparsity signature — like
        traces, the verdict depends on the sparsity structure, never the
        coefficient values.
        """
        from ..analysis.kernel import analyze_variant

        if isinstance(variant, str):
            variant = get_variant(variant)
        c, s, bs = self._knobs(variant, slice_height, sigma, block_shape)
        key = SignatureRegistry.verify_key(
            variant.name, csr, c, s, self.strict_alignment, block_shape=bs,
        )
        return self.registry.get_or_compute(
            "verify",
            key,
            lambda: analyze_variant(
                variant,
                csr,
                slice_height=c,
                sigma=s,
                strict_alignment=self.strict_alignment,
                block_shape=bs,
            ),
        )

    def certify_variant(self, variant: KernelVariant | str, csr: AijMat):
        """The variant's rounding certificate on ``csr``'s structure.

        A :class:`repro.analysis.numlint.NumericalCertificate`: the
        per-row accumulation terms and the analytic worst-case rounding
        bound the kernel's recorded instruction stream implies.  The
        recording runs the interpreted engine's accumulation order, so the
        certificate covers what :meth:`measure` executes.  Memoized under
        the structure-only signature, like the trace it derives from.
        """
        from ..analysis.kernel import certify_variant

        if isinstance(variant, str):
            variant = get_variant(variant)
        c, s, bs = self._knobs(variant)
        key = SignatureRegistry.certificate_key(
            variant.name, csr, c, s, self.strict_alignment, block_shape=bs,
        )
        return self.registry.get_or_compute(
            "numcert",
            key,
            lambda: certify_variant(
                variant,
                csr,
                slice_height=c,
                sigma=s,
                strict_alignment=self.strict_alignment,
                block_shape=bs,
            ),
        )

    # -- tuning (the inspector step, memoized) -------------------------
    def best_plan(
        self,
        csr: AijMat,
        candidates: tuple[KernelVariant, ...] | None = None,
        scale: float = 1.0,
        sigmas: tuple[int, ...] | None = None,
        block_shapes: tuple[tuple[int, int], ...] | None = None,
        slice_heights: tuple[int, ...] | None = None,
    ) -> FormatPlan:
        """The fastest (variant, C, sigma, block shape) plan for this matrix.

        The one autotune sweep: every supported registered variant (or
        ``candidates``) crossed with the knob sets its format declares
        (:func:`repro.mat.base.register_format`) — the slice heights in
        ``slice_heights``, the sorting scopes in ``sigmas`` and the block
        shapes in ``block_shapes``.  Each set defaults to the context's
        single configured value, which makes the default sweep exactly
        one measurement per variant.  A format is never re-measured over
        a knob it ignores, and a (C, sigma) point its converter rejects
        (sigma not a multiple of C) is skipped, as is a variant whose
        conversion rejects the matrix (e.g. BAIJ on odd dimensions) and
        — when :attr:`verify_variants` is set — any candidate the static
        analyzer finds defects in.  The plan's :attr:`FormatPlan.sweep`
        lists every priced candidate.

        The winning plan is cached per sparsity signature *and* per knob
        space (the ``knobs`` leg of
        :meth:`~repro.core.registry.SignatureRegistry.best_key`), so a
        wider search never reuses a narrower search's verdict.
        """
        pool = self.supported_variants() if candidates is None else candidates
        heights = (
            (self.slice_height,) if slice_heights is None
            else tuple(slice_heights)
        )
        sigma_set = (self.sigma,) if sigmas is None else tuple(sigmas)
        shape_set = (
            (self.block_shape,)
            if block_shapes is None
            else tuple(block_shapes)
        )
        key = SignatureRegistry.best_key(
            csr, tuple(v.name for v in pool), scale, self.verify_variants,
            self._policy_key(),
            knobs=(
                self.slice_height if slice_heights is None else heights,
                sigma_set, shape_set,
            ),
        )
        ran = []

        def sweep() -> FormatPlan:
            ran.append(True)
            self.autotune_sweeps += 1
            obs_counter("context.autotune_sweeps")
            rows: list[FormatPlan] = []
            for variant in pool:
                declared = variant.knobs
                points = itertools.product(
                    heights if "slice_height" in declared
                    else (self.slice_height,),
                    sigma_set if "sigma" in declared else (self.sigma,),
                    shape_set if "block_shape" in declared else (None,),
                )
                for c, sigma, shape in points:
                    try:
                        meas = self.measure(
                            variant, csr, slice_height=c, sigma=sigma,
                            block_shape=shape,
                        )
                    except (ValueError, NotImplementedError):
                        continue  # format constraint (knobs, masks)
                    if self.verify_variants and not self.verify_variant(
                        variant, csr, sigma=sigma, block_shape=shape,
                        slice_height=c,
                    ).ok:
                        continue  # statically defective; refuse
                    rows.append(FormatPlan(
                        variant, c, sigma, shape,
                        self.predict(meas, scale=scale).gflops,
                    ))
            if not rows:
                raise ValueError("no registered variant accepts this matrix")
            # max keeps the first of equal candidates: sweep order breaks ties.
            best = max(rows, key=lambda row: row.gflops)
            return replace(best, sweep=tuple(rows))

        plan = self.registry.get_or_compute("best", key, sweep)
        if not ran:
            obs_counter("context.autotune_cache_hits")
        return plan

    def best_variant(
        self,
        csr: AijMat,
        candidates: tuple[KernelVariant, ...] | None = None,
        scale: float = 1.0,
    ) -> KernelVariant:
        """The winning variant of :meth:`best_plan` at the context's knobs."""
        return self.best_plan(csr, candidates=candidates, scale=scale).variant

    # -- format conversion (the executor step) -------------------------
    def _resolve(self, csr: AijMat) -> tuple[KernelVariant, tuple]:
        """The variant and (C, sigma, block shape) a product on ``csr``
        runs with: the default variant at the context's knobs, or else the
        memoized default-sweep plan."""
        if self.default_variant is not None:
            variant: KernelVariant = self.default_variant  # type: ignore[assignment]
            return variant, self._knobs(variant)
        plan = self.best_plan(csr)
        return plan.variant, (plan.slice_height, plan.sigma, plan.block_shape)

    def resolve_variant(self, csr: AijMat) -> KernelVariant:
        """The variant :meth:`reformat` would use: default or autotuned."""
        return self._resolve(csr)[0]

    def reformat(self, csr: AijMat) -> Mat:
        """Convert an assembled CSR operator to this context's format.

        With a :attr:`default_variant` set, its converter runs with the
        context's ``C``/``sigma``/``block_shape``; with none, both the
        variant *and* the knobs come from the memoized
        :meth:`best_plan`.  The conversion itself is memoized in the
        registry's ``prepare`` namespace, so repeated solver setups on
        an unchanged operator share one converted matrix.
        """
        variant, knobs = self._resolve(csr)
        return self._prepared(variant, csr, *knobs)

    # -- serving (multi-vector products over the shared registry) -------
    def spmm(self, csr: AijMat, xs: np.ndarray) -> np.ndarray:
        """One multi-vector product pass ``Y = A @ [x1 ... xk]``.

        The serving path of :mod:`repro.serve`: converts the operator as
        :meth:`reformat` does (a registry-memoized tuning decision and
        conversion), and runs a *single* SpMM pass over
        the prepared operator (:meth:`repro.mat.base.Mat.multiply_multi`).
        Column ``j`` of the result is bit-identical whether the request
        was served alone or batched with any other same-operator
        requests — the batch-size-invariance the request batcher relies
        on.  ``xs`` is ``(n, k)``; a 1-D input is treated as ``k = 1``.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim == 1:
            xs = xs[:, None]
        variant, knobs = self._resolve(csr)
        prepared = self._prepared(variant, csr, *knobs)
        with obs_event(f"SpMM:{variant.name}"):
            return prepared.multiply_multi(xs)

    def spmv(self, csr: AijMat, x: np.ndarray) -> np.ndarray:
        """One serving-path product ``y = A @ x`` (a width-1 :meth:`spmm`)."""
        return self.spmm(csr, x)[:, 0]

    def reformat_parallel(self, op: "MPIAij") -> "MPIAij":
        """MatConvert for distributed operators (MPIAIJ -> MPISELL).

        Chooses on the rank-local diagonal block (the part the
        instruction-level kernels run on); non-SELL choices keep the
        operator as is — the distributed layer only implements the
        AIJ and SELL diagonal blocks, like PETSc's ``-dm_mat_type``.
        """
        from ..mat.mpi_sell import MPISell

        if isinstance(op, MPISell):
            return op
        variant, (c, sigma, _) = self._resolve(op.diag.to_csr())
        if variant.fmt == "SELL":
            return MPISell.from_mpiaij(op, slice_height=c, sigma=sigma)
        return op

    # -- observability -------------------------------------------------
    @contextlib.contextmanager
    def observe(self, observer=None):
        """Install an observer for the block; measure/autotune record into it.

        Yields the active :class:`~repro.obs.observer.Observer` (a fresh
        one unless passed in).  While installed, every measurement made
        through this context snapshots its kernel counters into the
        observer's metrics registry (``simd.*`` labeled by variant),
        cache hits and autotune sweeps tick ``context.*`` counters, and
        kernel executions appear as ``Measure:<variant>`` events in the
        staged log and trace — all passively, with zero effect on the
        measured results::

            with ctx.observe() as obs:
                ctx.measure(variant, csr)
            print(obs.log().render())
        """
        from ..obs.observer import observing

        with observing(observer) as obs:
            yield obs

    # -- derivation ----------------------------------------------------
    def _policy_key(self) -> tuple:
        """What distinguishes this context's *pricing* in shared caches.

        Engine measurements, verifier verdicts and prepared formats depend
        only on the kernel and the matrix; autotune winners also depend
        on the machine being priced.  Their registry keys carry this
        tuple so context views at different rank counts or on different
        machines coexist in one shared registry.
        """
        return (self.spec.name, self.memory_mode.value, self.nprocs)

    def view(self) -> "ExecutionContext":
        """A cheap same-policy view sharing this context's registry.

        Views are what a multi-tenant server hands each shard: identical
        execution policy, every cache shared, but independent
        :attr:`autotune_sweeps` accounting.
        """
        return self._derive(model=self.model, nprocs=self.nprocs)

    def with_nprocs(self, nprocs: int) -> "ExecutionContext":
        """Same machine and policy at a different rank count.

        Shares the registry; machine-independent entries (measurements,
        verdicts, prepared formats) are reused directly, while best
        entries are policy-keyed, so the re-priced rank count sweeps
        fresh without disturbing the original's decisions.
        """
        return self._derive(model=self.model, nprocs=nprocs)

    def with_model(
        self, model: PerfModel, nprocs: int | None = None
    ) -> "ExecutionContext":
        """Same policy on a different machine (ISA re-derived from it)."""
        return self._derive(model=model, nprocs=nprocs)

    def _derive(
        self, model: PerfModel, nprocs: int | None
    ) -> "ExecutionContext":
        # Shared by design: the registry's machine-independent namespaces
        # (measure/prepare/default_x) serve every view, and the
        # policy-keyed namespace (best) partitions by machine+ranks.
        return ExecutionContext(
            model=model,
            nprocs=nprocs,
            isa=None if model is not self.model else self.isa,
            strict_alignment=self.strict_alignment,
            slice_height=self.slice_height,
            sigma=self.sigma,
            block_shape=self.block_shape,
            default_variant=self.default_variant,
            abft=self.abft,
            abft_rtol=self.abft_rtol,
            verify_variants=self.verify_variants,
            max_send_retries=self.max_send_retries,
            registry=self.registry,
        )
