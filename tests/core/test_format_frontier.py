"""Format frontier: SVE vector-length agnosticism, beta(r,c), best_plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beta import BetaMat, DEFAULT_BLOCK_SHAPE
from repro.core.context import ExecutionContext, FormatPlan
from repro.core.dispatch import (
    BETA_AVX512,
    CSR_AVX512,
    SELL_AVX512,
    KernelVariant,
)
from repro.core.kernels_sve import spmv_sell_sve
from repro.core.spmv import default_x
from repro.machine.perf_model import make_model
from repro.machine.specs import A64FX, KNL_7230
from repro.pde.problems import gray_scott_jacobian, irregular_rows, tridiagonal
from repro.simd.isa import SVE, sve_isa
from repro.simd.trace import TraceError

VECTOR_BITS = (128, 256, 512)

MATRICES = {
    "stencil": gray_scott_jacobian(6),
    "long-tail": irregular_rows(26, max_len=9, seed=8),
    "banded": tridiagonal(29),
}


def _sve_variant(bits: int) -> KernelVariant:
    """An unregistered SELL-SVE build at an explicit vector length."""
    return KernelVariant(
        f"SELL using SVE@{bits}", "SELL", sve_isa(bits), spmv_sell_sve
    )


class TestSveVectorLengthAgnostic:
    """One kernel source, any hardware vector length — the SVE contract."""

    @pytest.mark.parametrize("label", sorted(MATRICES))
    @pytest.mark.parametrize("bits", VECTOR_BITS)
    def test_tiers_bit_identical_at_every_vl(self, label, bits):
        csr = MATRICES[label]
        variant = _sve_variant(bits)
        mat = variant.prepare(csr, slice_height=8, sigma=1)
        x = default_x(csr.shape[1])
        y_run, _ = variant.run(mat, x)
        trace, y_rec, _ = variant.record(mat, x)
        y_rep, _ = variant.replay(trace, mat, x)
        np.testing.assert_allclose(y_run[: csr.shape[0]], csr.multiply(x))
        assert np.array_equal(y_run, y_rec)
        assert np.array_equal(y_run, y_rep)

    @pytest.mark.parametrize("label", sorted(MATRICES))
    def test_sell_sve_output_identical_across_vls(self, label):
        # SELL-SVE accumulates each row sequentially lane-by-strip, so the
        # rounding order — hence the bits of y — cannot depend on the VL.
        csr = MATRICES[label]
        x = default_x(csr.shape[1])
        ys = []
        for bits in VECTOR_BITS:
            variant = _sve_variant(bits)
            mat = variant.prepare(csr, slice_height=8, sigma=1)
            y, _ = variant.run(mat, x)
            ys.append(y[: csr.shape[0]].copy())
        for other in ys[1:]:
            assert np.array_equal(ys[0], other)

    def test_megakernel_tier_matches_where_fusable(self):
        from repro.simd.megakernel import compile_megakernel

        csr = MATRICES["stencil"]
        x = default_x(csr.shape[1])
        variant = _sve_variant(512)
        mat = variant.prepare(csr, slice_height=8, sigma=1)
        trace, y_rec, c_rec = variant.record(mat, x)
        try:
            mega = compile_megakernel(trace)
        except TraceError:
            pytest.skip("stencil trace not fusable at this shape")
        y_mega, c_mega = variant.replay(mega, mat, x)
        assert np.array_equal(y_rec, y_mega)
        assert c_rec.as_dict() == c_mega.as_dict()

    def test_sve_isa_factory_validates(self):
        assert sve_isa(512) is SVE
        assert sve_isa(256).name == "SVE"
        assert sve_isa(2048).vector_bits == 2048
        with pytest.raises(ValueError):
            sve_isa(192)
        with pytest.raises(ValueError):
            sve_isa(4096)


class TestBetaFormat:
    """beta(r,c): exact round-trip, exact product, zero padded flops."""

    SHAPES = ((1, 4), (2, 4), (4, 4), (2, 8), (8, 8))

    @pytest.mark.parametrize("label", sorted(MATRICES))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_round_trip_and_product_exact(self, label, shape):
        csr = MATRICES[label]
        beta = BetaMat.from_csr(csr, block_shape=shape)
        back = beta.to_csr()
        assert np.array_equal(back.rowptr, csr.rowptr)
        assert np.array_equal(back.colidx, csr.colidx)
        assert np.array_equal(back.val, csr.val)
        x = default_x(csr.shape[1])
        np.testing.assert_allclose(beta.multiply(x), csr.multiply(x))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_kernel_executes_no_padding(self, shape):
        csr = MATRICES["long-tail"]
        ctx = ExecutionContext()
        meas = ctx.measure(BETA_AVX512, csr, block_shape=shape)
        assert meas.counters.padded_flops == 0
        assert meas.counters.flops == 2 * csr.nnz
        np.testing.assert_allclose(
            meas.y[: csr.shape[0]], csr.multiply(default_x(csr.shape[1]))
        )

    def test_block_shape_is_part_of_the_measure_key(self):
        csr = MATRICES["stencil"]
        ctx = ExecutionContext()
        a = ctx.measure(BETA_AVX512, csr, block_shape=(2, 4))
        b = ctx.measure(BETA_AVX512, csr, block_shape=(4, 4))
        assert a is ctx.measure(BETA_AVX512, csr, block_shape=(2, 4))
        assert a is not b
        assert a.mat.block_shape == (2, 4)
        assert b.mat.block_shape == (4, 4)

    def test_sell_keys_ignore_the_block_shape_knob(self):
        csr = MATRICES["stencil"]
        ctx = ExecutionContext()
        a = ctx.measure(SELL_AVX512, csr)
        assert ctx.measure(SELL_AVX512, csr, block_shape=(4, 4)) is a


class TestBestPlan:
    """The enlarged (variant, sigma, block shape) autotune sweep."""

    def test_default_plan_matches_best_variant(self):
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        plan = ctx.best_plan(csr)
        assert isinstance(plan, FormatPlan)
        assert ctx.best_variant(csr) is plan.variant
        assert ctx.autotune_sweeps == 1  # wrapper shares the plan cache
        assert plan.sigma == ctx.sigma

    def test_wider_knob_space_never_reuses_the_narrow_verdict(self):
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        ctx.best_plan(csr)
        ctx.best_plan(csr, sigmas=(1, 64))
        assert ctx.autotune_sweeps == 2
        ctx.best_plan(csr, sigmas=(1, 64))
        assert ctx.autotune_sweeps == 2  # same knob space: cache hit

    def test_sigma_scope_wins_on_the_long_tail(self):
        # Single-core pricing is compute-leg dominated, where the padding
        # a sigma-sorted window removes is real work removed (Section 5.4).
        csr = irregular_rows(160, min_len=2, max_len=40, alpha=1.1, seed=3)
        ctx = ExecutionContext(model=make_model(KNL_7230), nprocs=1)
        plan = ctx.best_plan(csr, candidates=(SELL_AVX512,), sigmas=(1, 64))
        assert plan.sigma == 64

    def test_block_shape_knob_reaches_the_plan(self):
        csr = MATRICES["stencil"]
        ctx = ExecutionContext()
        plan = ctx.best_plan(
            csr, candidates=(BETA_AVX512,), block_shapes=((2, 4), (2, 8))
        )
        assert plan.variant is BETA_AVX512
        assert plan.block_shape in ((2, 4), (2, 8))

    def test_reformat_uses_the_context_block_shape(self):
        csr = MATRICES["stencil"]
        ctx = ExecutionContext(
            default_variant="BETA using AVX512", block_shape=(4, 4)
        )
        mat = ctx.reformat(csr)
        assert isinstance(mat, BetaMat)
        assert mat.block_shape == (4, 4)

    def test_default_block_shape_matches_the_converter_default(self):
        assert ExecutionContext().block_shape == DEFAULT_BLOCK_SHAPE

    def test_papers_choice_stands_on_its_own_operator(self):
        """For the regular Gray-Scott matrix, C=8/sigma=1 is (within the
        sweep noise) the winner the paper hard-codes: sorting a regular
        matrix buys nothing."""
        csr = gray_scott_jacobian(16)  # 512 rows
        ctx = ExecutionContext()
        plan = ctx.best_plan(
            csr, candidates=(SELL_AVX512,), scale=64.0,
            slice_heights=(8, 16), sigmas=(1, 32, 64, 128, 256, 512),
        )
        paper = next(
            r for r in plan.sweep if (r.slice_height, r.sigma) == (8, 1)
        )
        assert plan.gflops <= paper.gflops * 1.02
        won = ctx.measure(
            SELL_AVX512, csr, slice_height=plan.slice_height, sigma=plan.sigma
        )
        assert won.mat.padding_fraction == 0.0

    def test_sorting_wins_on_a_power_law_matrix_at_full_node(self):
        csr = irregular_rows(512, min_len=2, max_len=48, seed=9)
        ctx = ExecutionContext(nprocs=64)
        plan = ctx.best_plan(
            csr, candidates=(SELL_AVX512,),
            slice_heights=(8, 16), sigmas=(1, 32, 64, 128, 256, 512),
        )
        assert plan.sigma > 1
        padding = {
            (r.slice_height, r.sigma): ctx.measure(
                SELL_AVX512, csr, slice_height=r.slice_height, sigma=r.sigma
            ).mat.padding_fraction
            for r in plan.sweep
        }
        assert padding[plan.slice_height, plan.sigma] < padding[8, 1]

    def test_sweep_skips_scopes_that_split_a_slice(self):
        csr = gray_scott_jacobian(8)
        plan = ExecutionContext().best_plan(
            csr, candidates=(SELL_AVX512,),
            slice_heights=(8, 16), sigmas=(1, 8, 16),
        )
        # sigma = 8 is not a multiple of C = 16: SellMat rejects it.
        assert [(r.slice_height, r.sigma) for r in plan.sweep] == [
            (8, 1), (8, 8), (8, 16), (16, 1), (16, 16),
        ]
        assert plan in plan.sweep
        assert plan.gflops == max(r.gflops for r in plan.sweep)

    def test_empty_sweep_raises(self):
        csr = gray_scott_jacobian(4)
        with pytest.raises(ValueError):
            ExecutionContext().best_plan(
                csr, candidates=(SELL_AVX512,), slice_heights=()
            )

    def test_formats_are_swept_only_over_their_declared_knobs(self):
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext()
        plan = ctx.best_plan(
            csr, candidates=(CSR_AVX512, SELL_AVX512), sigmas=(1, 16, 64)
        )
        csr_rows = [r for r in plan.sweep if r.variant is CSR_AVX512]
        assert len(csr_rows) == 1
        assert [r.sigma for r in plan.sweep if r.variant is SELL_AVX512] == [
            1, 16, 64,
        ]
        # CSR ignores sigma, so every sigma shares the one measurement.
        assert ctx.measure(CSR_AVX512, csr, sigma=16) is ctx.measure(
            CSR_AVX512, csr, sigma=1
        )

    def test_verify_gate_checks_every_swept_knob(self):
        """Under ``verify_variants`` each candidate is verified at its own
        declared knobs, not at the context's defaults."""
        csr = gray_scott_jacobian(8)
        ctx = ExecutionContext(verify_variants=True)
        sigmas, shapes = (1, 16), ((2, 4), (4, 4))
        ctx.best_plan(
            csr, candidates=(SELL_AVX512, BETA_AVX512),
            sigmas=sigmas, block_shapes=shapes,
        )
        # verify_key: (variant, structure, slice_height, sigma, strict, shape)
        verified = {(k[0], k[3], k[5]) for k in ctx.registry.keys("verify")}
        assert verified == {
            (SELL_AVX512.name, s, None) for s in sigmas
        } | {(BETA_AVX512.name, None, b) for b in shapes}


class TestA64fxContext:
    """The first non-x86 machine: SVE is its widest modeled ISA."""

    def test_widest_isa_is_sve(self):
        ctx = ExecutionContext(model=make_model(A64FX))
        assert ctx.isa.name == "SVE"
        assert ctx.nprocs == A64FX.cores

    def test_supported_variants_are_sve_or_scalar(self):
        ctx = ExecutionContext(model=make_model(A64FX))
        pool = ctx.supported_variants()
        assert pool, "A64FX must support at least the SVE and novec kernels"
        assert all(v.isa.name in ("SVE", "novec") for v in pool)
        assert any(v.name == "SELL using SVE" for v in pool)
        assert any(v.name == "BETA using SVE" for v in pool)

    def test_autotunes_to_an_sve_kernel_on_the_stencil(self):
        ctx = ExecutionContext(model=make_model(A64FX))
        plan = ctx.best_plan(gray_scott_jacobian(8))
        assert plan.variant.isa.name == "SVE"


class TestShootoutSmoke:
    """The bench module's sweep and gates, on one trimmed family."""

    def test_long_tail_sweep_and_sigma_gate(self):
        from repro.bench.format_shootout import (
            _gate_sigma_sorting,
            _sweep_family,
            families,
        )

        csr = families()["long-tail"]
        ctx = ExecutionContext(model=make_model(KNL_7230), nprocs=1)
        entries, winner = _sweep_family(ctx, "KNL", "long-tail", csr)
        assert entries
        sell = [e for e in entries if e.variant == "SELL using AVX512"]
        assert {e.sigma for e in sell} == {1, 16, 64}
        assert [e.variant for e in entries].count("CSR using AVX512") == 1
        beta = [e for e in entries if e.variant == "BETA using AVX512"]
        assert beta and all(e.padded_flops == 0 for e in beta)
        assert {e.sigma for e in beta} == {1}
        # The winner is the plan: the first sweep entry at the best gflops.
        assert winner == max(entries, key=lambda e: e.gflops)
        assert ctx.autotune_sweeps == 1
        gate = _gate_sigma_sorting(entries)
        assert gate["ok"], gate

    def test_families_cover_the_documented_structures(self):
        from repro.bench.format_shootout import families

        mats = families()
        assert set(mats) == {
            "stencil", "banded", "long-tail", "block", "near-empty",
        }
        near_empty = mats["near-empty"]
        lengths = np.diff(near_empty.rowptr)
        assert (lengths == 0).any(), "family must contain empty rows"
