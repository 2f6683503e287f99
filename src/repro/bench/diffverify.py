"""Cross-format differential verification under certified rounding bounds.

``python -m repro.bench.diffverify`` runs every registered kernel variant
through three execution tiers — the interpreted engine
(``ExecutionContext.measure``), replay of the recorded trace, and replay
of its fused megakernel — over a four-structure panel and holds the outputs to the *analytically derived*
tolerances of :mod:`repro.analysis.numlint` — the "tolerances are
derived, not guessed" discipline of the SpMV verification literature
(Zhang, arXiv 2510.13427).  Three layers of checking replace the ad-hoc
``atol`` a cross-format comparison would otherwise need:

* **certification** — every variant's recorded trace must certify clean
  (no ``NUM0xx`` findings) on every panel structure;
* **reference check** — each output is compared per-row against an
  ``np.longdouble`` re-accumulation of the same product:
  ``|y - y_ref| <= bound(variant) + bound(reference)``, both bounds
  evaluated from the actual ``|a|``/``|x|`` magnitudes;
* **differential check** — every *pair* of outputs over one structure
  (formats x ISAs x tiers) must satisfy
  ``|y_i - y_j| <= bound_i + bound_j``: two correct kernels may
  legitimately reorder a row's additions, but only within what their
  accumulation trees certify.

Within one variant the record/replay contract is gated too: replay and
megakernel tiers execute the recorded accumulation order bit-identically,
so their outputs must *exactly* equal the interpreted one.  The
sweep writes ``BENCH_diffverify.json`` and exits nonzero when any gate
fails — the CI job ``diffverify`` runs exactly this.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from ..analysis.kernel import default_structures
from ..analysis.numlint import LONGDOUBLE_ROUNDOFF, gamma
from ..core.context import ExecutionContext
from ..core.dispatch import registered_variants
from ..core.traced import trace_buffers
from ..mat.aij import AijMat
from ..pde.problems import irregular_rows
from ..simd.megakernel import compile_megakernel
from ..simd.trace import TraceError

#: Output file CI uploads.
REPORT_PATH = "BENCH_diffverify.json"

#: Execution tiers the sweep runs each variant through.
TIERS = ("interpret", "replay", "megakernel")


def panel() -> tuple[tuple[str, AijMat, int, int], ...]:
    """The differential panel: the analysis structures plus a pathology.

    Extends :func:`repro.analysis.kernel.default_structures` (stencil,
    trailing partial slice, sigma-sorted SELL window) with a near-empty-row
    structure whose row lengths hug the minimum — the padding-dominated
    case where most lanes carry exact zeros and a sloppy bound would be
    orders of magnitude off.
    """
    return default_structures() + (
        ("near-empty", irregular_rows(21, max_len=3, seed=11), 8, 1),
    )


def _input_for(n: int, seed: int = 2018) -> np.ndarray:
    """A seeded input with ~4 decades of magnitude spread.

    Uniform-magnitude inputs make every tolerance look generous; the
    spread exercises the magnitude envelope the certificates carry.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0, n)


def _reference(csr: AijMat, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extended-precision reference product and its own rounding bound.

    Rows are re-accumulated in ``np.longdouble``; the bound charges every
    term the conservative ``gamma(nnz_row)`` at the longdouble roundoff
    (each addend passes through at most ``nnz-1`` additions plus its
    multiply).
    """
    m = csr.shape[0]
    y_ref = np.zeros(m, dtype=np.longdouble)
    env = np.zeros(m)
    xl = x.astype(np.longdouble)
    for r in range(m):
        lo, hi = int(csr.rowptr[r]), int(csr.rowptr[r + 1])
        vals = csr.val[lo:hi]
        cols = csr.colidx[lo:hi]
        y_ref[r] = np.sum(vals.astype(np.longdouble) * xl[cols])
        env[r] = float(np.sum(np.abs(vals) * np.abs(x[cols])))
    nnz = np.maximum(np.diff(csr.rowptr), 1)
    return y_ref, gamma(nnz, LONGDOUBLE_ROUNDOFF) * env


def _tier_outputs(ctx, variant, csr, x) -> dict[str, np.ndarray]:
    """``y`` from each tier: ``measure()`` interprets; its prepared matrix's
    recorded trace replays plainly and as a fused megakernel (an
    unfusable trace's megakernel tier is plain replay)."""
    meas = ctx.measure(variant, csr, x=x)
    trace, _, _ = variant.record(meas.mat, x)
    replayed, _ = variant.replay(trace, meas.mat, x)
    try:
        fused, _ = variant.replay(compile_megakernel(trace), meas.mat, x)
    except TraceError:
        fused = replayed
    return {"interpret": meas.y, "replay": replayed, "megakernel": fused}


def _certified_bound(variant, csr, x, slice_height, sigma, cert) -> np.ndarray:
    """Evaluate a certificate against the buffers the kernel actually ran on."""
    mat = variant.prepare(csr, slice_height=slice_height, sigma=sigma)
    mp, np_ = mat.shape
    xp = np.zeros(np_)
    xp[: csr.shape[1]] = x
    buffers = dict(trace_buffers(variant.fmt, mat))
    buffers["x"] = xp
    buffers["y"] = np.zeros(mp)
    return cert.bound(buffers)


def run_sweep() -> dict:
    """The full variants x tiers x panel sweep; a JSON-ready record."""
    variants = registered_variants()
    structures = panel()
    cert_stats = {"count": 0, "certified": 0, "max_depth": 0, "max_roundings": 0}
    uncertified: list[str] = []
    ref_failures: list[dict] = []
    pair_failures: list[dict] = []
    tier_mismatches: list[str] = []
    structure_records = []
    worst_ref_margin = 0.0
    worst_pair_margin = 0.0
    outputs_total = 0
    pairs_total = 0

    for label, csr, slice_height, sigma in structures:
        x = _input_for(csr.shape[1])
        y_ref, ref_bound = _reference(csr, x)
        ctx = ExecutionContext(slice_height=slice_height, sigma=sigma)
        outputs: list[tuple[str, str, np.ndarray, np.ndarray]] = []
        for variant in variants:
            try:
                cert = ctx.certify_variant(variant, csr)
            except (ValueError, NotImplementedError):
                continue  # format constraint, same skip rule as tuning
            cert_stats["count"] += 1
            cert_stats["max_depth"] = max(cert_stats["max_depth"], cert.max_depth)
            cert_stats["max_roundings"] = max(
                cert_stats["max_roundings"], cert.max_roundings
            )
            if cert.ok:
                cert_stats["certified"] += 1
            else:
                uncertified.append(f"{variant.name} on {label}")
                continue
            bound = _certified_bound(variant, csr, x, slice_height, sigma, cert)
            tier_ys = _tier_outputs(ctx, variant, csr, x)
            for tier in TIERS:
                y = np.asarray(tier_ys[tier], dtype=np.float64)
                tier_ys[tier] = y
                outputs.append((variant.name, tier, y, bound))
                err = np.abs(y.astype(np.longdouble) - y_ref).astype(np.float64)
                tol = bound + ref_bound
                margin = float(np.max(np.where(tol > 0, err / np.maximum(tol, 1e-300), 0.0)))
                worst_ref_margin = max(worst_ref_margin, margin)
                if np.any(err > tol):
                    row = int(np.argmax(err - tol))
                    ref_failures.append({
                        "structure": label, "variant": variant.name,
                        "tier": tier, "row": row,
                        "error": float(err[row]), "bound": float(tol[row]),
                    })
            base = tier_ys["interpret"]
            for tier in ("replay", "megakernel"):
                if not np.array_equal(tier_ys[tier], base):
                    tier_mismatches.append(
                        f"{variant.name} on {label}: {tier} != interpret"
                    )
        outputs_total += len(outputs)
        for i in range(len(outputs)):
            name_i, tier_i, y_i, b_i = outputs[i]
            for j in range(i + 1, len(outputs)):
                name_j, tier_j, y_j, b_j = outputs[j]
                pairs_total += 1
                err = np.abs(y_i - y_j)
                tol = b_i + b_j
                margin = float(np.max(np.where(
                    err > 0, err / np.maximum(tol, 1e-300), 0.0
                )))
                worst_pair_margin = max(worst_pair_margin, margin)
                if np.any(err > tol):
                    row = int(np.argmax(err - tol))
                    pair_failures.append({
                        "structure": label,
                        "a": f"{name_i}/{tier_i}", "b": f"{name_j}/{tier_j}",
                        "row": row,
                        "error": float(err[row]), "bound": float(tol[row]),
                    })
        structure_records.append({
            "structure": label,
            "rows": int(csr.shape[0]),
            "nnz": int(csr.nnz),
            "outputs": len(outputs),
            "max_reference_bound": float(np.max(ref_bound)),
        })

    gates = {
        "all_certified": not uncertified,
        "reference_within_bounds": not ref_failures,
        "pairwise_within_bounds": not pair_failures,
        "tiers_bit_identical": not tier_mismatches,
    }
    return {
        "panel": structure_records,
        "tiers": list(TIERS),
        "variants": len(variants),
        "outputs": outputs_total,
        "pairs_checked": pairs_total,
        "certificates": cert_stats,
        "worst_reference_margin": worst_ref_margin,
        "worst_pairwise_margin": worst_pair_margin,
        "uncertified": uncertified,
        "reference_failures": ref_failures,
        "pairwise_failures": pair_failures,
        "tier_mismatches": tier_mismatches,
        "gates": gates,
        "ok": all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    record = run_sweep()
    with open(REPORT_PATH, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(
        f"diffverify: {record['outputs']} outputs over "
        f"{len(record['panel'])} structures x {len(record['tiers'])} tiers, "
        f"{record['pairs_checked']} pairs checked"
    )
    print(
        f"  certificates: {record['certificates']['certified']}/"
        f"{record['certificates']['count']} clean "
        f"(max depth {record['certificates']['max_depth']}, "
        f"max roundings {record['certificates']['max_roundings']})"
    )
    print(
        f"  worst margin: reference {record['worst_reference_margin']:.3f}, "
        f"pairwise {record['worst_pairwise_margin']:.3f} "
        f"(1.0 = at the certified bound)"
    )
    for gate, held in record["gates"].items():
        print(f"  gate {gate}: {'ok' if held else 'FAILED'}")
    if not record["ok"]:
        for f in (
            record["uncertified"][:5]
            + record["reference_failures"][:5]
            + record["pairwise_failures"][:5]
            + record["tier_mismatches"][:5]
        ):
            print(f"  failure: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
