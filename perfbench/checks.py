"""Output checks, one per workload.

Each check takes what a workload pass produced and returns the number of
failed checks; none raises on a wrong output, so a corrupted answer is
counted as failed and the run goes on.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: SHA-256 of the text ``repro.bench.run_all.main()`` prints.  The paper
#: evaluation is deterministic, so any change to a figure, table or
#: claim changes this digest.
PAPER_EVAL_SHA256 = "6cdba9ba32d719872284735280ee292ad447ebaa29acc87461345da3ea21921c"

#: The README quickstart's plan, padding and predicted rate on
#: ``gray_scott_jacobian(64)`` priced at the paper's 2048^2 scale.
QUICKSTART_PLAN = "SELL using AVX512"
QUICKSTART_PADDING = 0.0
QUICKSTART_GFLOPS = 47.04920409751367


def paper_eval(text: str) -> int:
    """1 unless the rendered evaluation is byte-identical to the reference."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    return int(digest != PAPER_EVAL_SHA256)


def gray_scott(state, reference: np.ndarray, bound: float) -> int:
    """1 unless the final state is within ``bound`` (max norm) of the reference.

    ``state`` is ``None`` when the solve did not reach the final step.
    """
    if state is None or np.shape(state) != reference.shape:
        return 1
    diff = np.abs(np.asarray(state) - reference)
    return int(not bool(np.all(diff <= bound)))


def quickstart(plan: str, padding: float, y, y_ref: np.ndarray, gflops: float) -> int:
    """Failed count over the four quickstart checks."""
    return (
        int(plan != QUICKSTART_PLAN)
        + int(padding != QUICKSTART_PADDING)
        + int(not np.array_equal(y, y_ref))
        + int(gflops != QUICKSTART_GFLOPS)
    )


def serve_answer(ok: bool, result, reference: np.ndarray) -> int:
    """1 unless the request succeeded and its answer equals the reference bitwise."""
    return int(not (ok and np.array_equal(result, reference)))
