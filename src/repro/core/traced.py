"""Record/replay wiring: per-format buffer maps and variant-level helpers.

The trace layer (:mod:`repro.simd.trace` / :mod:`repro.simd.replay`)
identifies the arrays a kernel touches by *name* so a recorded trace can be
re-bound to fresh data.  Which arrays those are is a property of the
matrix *format*, so this module keeps a registry parallel to the format
converter table: :func:`register_trace_buffers` maps a format name to a
function returning the format's value-carrying float buffers.  Only float
buffers appear — column indices, slice pointers, row lengths and mask bits
are structure-derived and get baked into the trace by value.

:func:`record_trace` runs a kernel once through a
:class:`~repro.simd.trace.TraceRecorder` (returning the compiled trace
*and* that run's exact y/counters), and :func:`replay_trace` executes a
compiled trace against a same-structure matrix and a new input vector.
No execution path dispatches to them: :meth:`ExecutionContext.measure
<repro.core.context.ExecutionContext.measure>` always interprets.  They
serve the static analyzers (which lint the recorded stream), the
differential verifier and the bench smoke gates.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..mat.base import Mat
from ..memory.spaces import aligned_alloc
from ..simd.counters import KernelCounters
from ..simd.replay import KernelTrace, compile_trace
from ..simd.trace import TraceError, TraceRecorder

#: format name -> fn(mat) returning the format's named value buffers.
TRACE_BUFFERS: dict[str, Callable[[Mat], dict[str, np.ndarray]]] = {}


def register_trace_buffers(*fmts: str):
    """Register a format's value-buffer map (decorator).

    The returned dict must name every float array the kernel loads matrix
    values from or stores results to, excluding ``x``/``y`` (bound by the
    harness).  A format without a registered map cannot be traced.
    """

    def decorate(fn: Callable[[Mat], dict[str, np.ndarray]]):
        for fmt in fmts:
            TRACE_BUFFERS[fmt] = fn
        return fn

    return decorate


def trace_buffers(fmt: str, mat: Mat) -> dict[str, np.ndarray]:
    """The named value buffers of a prepared matrix, by format name."""
    fn = TRACE_BUFFERS.get(fmt)
    if fn is None:
        raise TraceError(f"format {fmt!r} has no registered trace buffers")
    return fn(mat)


@register_trace_buffers("SELL", "ESB", "CSR", "MKL", "BETA")
def _val_buffer(mat: Mat) -> dict[str, np.ndarray]:
    return {"val": mat.val}


@register_trace_buffers("CSRPerm")
def _csrperm_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.csr.val}


@register_trace_buffers("BAIJ")
def _baij_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.val}


@register_trace_buffers("ELLPACK", "ELLPACK-R")
def _ellpack_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.val_f}


@register_trace_buffers("HYB")
def _hybrid_buffers(mat) -> dict[str, np.ndarray]:
    return {"val": mat.ell.val_f, "coo_vals": mat.coo.vals}


def record_trace(
    variant, mat: Mat, x: np.ndarray, strict_alignment: bool = False
) -> tuple[KernelTrace, np.ndarray, KernelCounters]:
    """Record one kernel execution; return (trace, y, counters).

    ``y`` and ``counters`` come from the recording run itself — the
    recorder defers every instruction to the interpreted engine, so they
    are exactly what :meth:`KernelVariant.run` would have produced.
    """
    recorder = TraceRecorder(variant.isa, strict_alignment=strict_alignment)
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    recorder.bind_buffers(trace_buffers(variant.fmt, mat))
    recorder.bind("x", x)
    recorder.bind("y", y)
    variant.kernel(recorder, mat, x, y)
    return compile_trace(recorder), y, recorder.counters


def replay_trace(
    variant, trace: KernelTrace, mat: Mat, x: np.ndarray
) -> tuple[np.ndarray, KernelCounters]:
    """Replay a compiled trace against a same-structure matrix and new x."""
    y = aligned_alloc(mat.shape[0], np.float64, 64)
    buffers = trace_buffers(variant.fmt, mat)
    buffers["x"] = x
    buffers["y"] = y
    counters = trace.replay(buffers)
    return y, counters
