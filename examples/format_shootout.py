#!/usr/bin/env python
"""Format shootout: choose a sparse format for *your* matrix, KNL-style.

A downstream-user scenario: you have a matrix — one of the gallery
generators, or any Matrix Market ``.mtx`` file — and want to know
(a) which format/ISA combination the calibrated KNL model favours,
(b) how the padding economics look, (c) whether sigma-sorting would pay,
and (d) which slice height and sorting scope the autotuner picks.  This
exercises the format zoo, Matrix Market I/O, and the one tuning sweep
(``ExecutionContext.best_plan``) on matrices very unlike the paper's
friendly banded operator.

Run:  python examples/format_shootout.py [gray-scott|irregular|tridiag|nine-point|/path/to/matrix.mtx]
"""

import sys

from repro import FIGURE8_VARIANTS, ExecutionContext
from repro.core.sell import SellMat
from repro.machine import KNL_7230, make_model
from repro.mat.sparsity import profile, sliced_padding
from repro.pde.problems import (
    gray_scott_jacobian,
    irregular_rows,
    nine_point_2d,
    tridiagonal,
)

GALLERY = {
    "gray-scott": lambda: gray_scott_jacobian(32),
    "irregular": lambda: irregular_rows(2048, min_len=2, max_len=64, seed=1),
    "tridiag": lambda: tridiagonal(2048),
    "nine-point": lambda: nine_point_2d(48),
}


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "gray-scott"
    if name.endswith(".mtx"):
        from repro.mat.io import read_matrix_market

        csr = read_matrix_market(name)
    elif name in GALLERY:
        csr = GALLERY[name]()
    else:
        raise SystemExit(
            f"unknown matrix {name!r}; choose from {sorted(GALLERY)} or "
            "pass a .mtx path"
        )
    p = profile(csr)
    print(f"matrix {name!r}: {p.rows} rows, {p.nnz} nnz, row lengths "
          f"{p.min_row}..{p.max_row} (mean {p.mean_row:.1f}, std {p.std_row:.1f})\n")

    # Padding economics per slice height.
    print("SELL padding by slice height:")
    for c in (1, 2, 4, 8, 16):
        pad = sliced_padding(csr, c)
        print(f"  C={c:<3d} padding {pad:7d} slots "
              f"({100 * pad / (pad + csr.nnz):5.1f}%)")
    print()

    # Would sigma-sorting pay?
    base = sliced_padding(csr, 8, sigma=1)
    sigma_gain = {
        sigma: sliced_padding(csr, 8, sigma) for sigma in (8, 64, 512)
        if sigma <= p.rows
    }
    print("padding with sigma-window sorting (C=8):")
    print(f"  sigma=1 (no sorting): {base}")
    for sigma, pad in sigma_gain.items():
        print(f"  sigma={sigma:<4d}          : {pad}")
    print()

    # One autotune sweep on a full KNL node: every Figure 8 variant, with
    # the SELL kernels also swept over slice height and sorting scope
    # (scopes that are not a multiple of C are skipped).
    ctx = ExecutionContext(model=make_model(KNL_7230), nprocs=64)
    sigmas = tuple(s for s in (1, 32, 64, 128, 256, 512) if s <= p.rows)
    plan = ctx.best_plan(
        csr, candidates=FIGURE8_VARIANTS, slice_heights=(8, 16), sigmas=sigmas
    )
    print(f"{'variant':22s} {'Gflop/s':>8s}  bound  (paper's C=8, sigma=1)")
    default = {}
    for row in plan.sweep:
        if (row.slice_height, row.sigma) != (8, 1):
            continue
        default[row.variant.name] = row
        meas = ctx.measure(row.variant, csr)  # a memo hit of the sweep
        print(f"{row.variant.name:22s} {row.gflops:8.1f}  "
              f"{ctx.predict(meas).bound}")

    print(f"\nautotuner: {plan.variant.name} at C={plan.slice_height}, "
          f"sigma={plan.sigma} ({plan.gflops:.1f} Gflop/s", end="")
    if plan.variant.fmt == "SELL":
        tuned = ctx.measure(
            plan.variant, csr, slice_height=plan.slice_height, sigma=plan.sigma
        ).mat
        print(f", padding {100 * tuned.padding_fraction:.1f}%", end="")
    print(")", end="")
    paper = default[plan.variant.name]
    if plan.gflops > 1.05 * paper.gflops:
        print(f" -- {plan.gflops / paper.gflops:.2f}x over the paper's "
              "C=8/sigma=1 default on this matrix")
    else:
        print(" -- the paper's C=8/sigma=1 default stands")

    sell = SellMat.from_csr(csr, 8)
    if sell.padding_fraction > 0.3:
        print("note: heavy padding -- consider sigma-sorting or the "
              "hybrid ELL+COO format for this structure")


if __name__ == "__main__":
    main()
