"""Per-layer wrappers for the traced run, and the per-layer metric table.

:func:`install` wraps the public calls into each ``repro`` module with
spans of a :class:`~spans.Recorder`; :func:`layer_metrics` turns the
recorded spans and counters into the per-layer metrics listed in
:data:`LAYER_METRICS`.  Nothing here changes what the wrapped calls
compute: every wrapper passes arguments and results through unchanged.

Each row of :data:`LAYER_METRICS` also records which end-to-end metric
the layer metric should move, on which workload, and where it should
not move (the workload that bypasses the layer).
"""

from __future__ import annotations

import importlib
import sys

import numpy as np

#: Namespaces of ``repro.core.registry.SignatureRegistry`` reported as hit rates.
REGISTRY_NAMESPACES = (
    "measure", "prepare", "trace", "mega", "tune", "best", "verify",
    "numcert", "default_x",
)

#: The ``repro.bench.experiments`` modules ``run_all`` renders, in order.
BENCH_SECTIONS = (
    "table1", "fig4", "fig7", "fig8", "fig9", "fig10", "fig11",
    "ablations", "headline",
)

_GS = "wall_s on gray-scott"
_PE = "wall_s on paper-eval"
_QS = "wall_s on quickstart"
_SV = "ops_per_s and op_p99_ms on serve"

#: (name, unit, better, should move, should not move)
LAYER_METRICS: tuple[tuple[str, str, str, str, str], ...] = (
    ("pde.jacobian.self_s", "s", "lower", _GS, "serve"),
    ("pde.jacobian.calls", "count", "lower", _GS, "serve"),
    ("pde.rhs.self_s", "s", "lower", _GS, "serve"),
    ("mat.assembly.self_s", "s", "lower", _GS, "serve"),
    ("mat.assembly.calls", "count", "lower", _GS, "serve"),
    ("mat.convert.self_s", "s", "lower", _GS, "paper-eval, serve"),
    ("mat.convert.calls", "count", "lower", _GS, "paper-eval, serve"),
    ("mat.to_csr.self_s", "s", "lower", _GS, "paper-eval"),
    ("mat.diagonal.self_s", "s", "lower", _GS, "serve"),
    ("mat.diagonal.calls", "count", "lower", _GS, "serve"),
    ("mat.mult.self_s", "s", "lower", _GS, "paper-eval"),
    ("mat.mult.calls", "count", "lower", _GS, "paper-eval"),
    ("mat.mult.flops", "flop", "lower", _GS, "paper-eval"),
    ("mat.mult.bytes_computed", "B", "lower", _GS, "paper-eval"),
    ("mat.mult.gflops", "Gflop/s", "higher", _GS, "paper-eval"),
    ("mat.spmm.self_s", "s", "lower", _SV, "gray-scott"),
    ("mat.spmm.calls", "count", "lower", _SV, "gray-scott"),
    ("mat.spmm.width", "count", "higher", _SV, "gray-scott"),
    ("ksp.solve.self_s", "s", "lower", _GS, "serve"),
    ("ksp.solve.calls", "count", "lower", _GS, "serve"),
    ("ksp.iterations", "count", "lower", _GS, "serve"),
    ("snes.iterations", "count", "lower", _GS, "serve"),
    ("pc.setup.self_s", "s", "lower", _GS, "serve"),
    ("pc.galerkin.self_s", "s", "lower", _GS, "serve"),
    ("pc.apply.self_s", "s", "lower", _GS, "serve"),
    ("core.autotune.self_s", "s", "lower", f"{_QS}, {_PE}", "gray-scott"),
    ("core.autotune.sweeps", "count", "lower", f"{_QS}, {_PE}", "gray-scott"),
    ("core.measure.self_s", "s", "lower", f"{_QS}, {_PE}", "gray-scott"),
    ("core.measure.calls", "count", "lower", f"{_QS}, {_PE}", "gray-scott"),
    *(
        (f"core.registry.hit_rate.{ns}", "ratio", "higher",
         _SV if ns == "prepare" else f"{_QS}, {_PE}", "gray-scott")
        for ns in REGISTRY_NAMESPACES
    ),
    ("simd.record.self_s", "s", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.record.calls", "count", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.interpret.self_s", "s", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.compile.self_s", "s", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.compile.calls", "count", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.megakernel.self_s", "s", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.megakernel.calls", "count", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.replay.self_s", "s", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.replay.calls", "count", "higher", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.replays_per_record", "ratio", "higher", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("simd.instructions", "count", "lower", f"{_PE}, {_QS}", "gray-scott, serve"),
    ("machine.predict.self_s", "s", "lower", _PE, "gray-scott, serve"),
    ("machine.predict.calls", "count", "lower", _PE, "gray-scott, serve"),
    *(
        (f"bench.{section}.self_s", "s", "lower", _PE, "gray-scott, serve")
        for section in BENCH_SECTIONS
    ),
    ("comm.spmd.self_s", "s", "lower", f"{_SV}, {_PE}", "gray-scott"),
    ("comm.spmd.calls", "count", "lower", f"{_SV}, {_PE}", "gray-scott"),
    ("comm.messages", "count", "lower", f"{_SV}, {_PE}", "gray-scott"),
    ("comm.bytes", "B", "lower", f"{_SV}, {_PE}", "gray-scott"),
    ("serve.passes", "count", "lower", _SV, "gray-scott"),
    ("serve.occupancy", "count", "higher", _SV, "gray-scott"),
    ("serve.queue_wait_ms.p50", "ms", "lower", _SV, "gray-scott"),
    ("serve.queue_wait_ms.p99", "ms", "lower", _SV, "gray-scott"),
    ("serve.rejected", "count", "lower", _SV, "gray-scott"),
    ("trace.coverage", "ratio", "higher", "all: share of traced wall in named spans", "-"),
    ("trace.wall_s", "s", "lower", "all: traced wall time of one pass", "-"),
    ("trace.overhead_s", "s", "lower", "all: traced wall minus untraced wall", "-"),
)


class Probe:
    """Objects and samples the wrappers collect during one traced pass."""

    def __init__(self, services=()):
        """``services``: ``SolveService`` objects built before the pass."""
        self.services = list(services)
        self.registries = [s.registry for s in self.services]
        self.contexts: list = []
        self.worlds: list = []
        self.queue_waits: list[float] = []
        self._admitted: dict[int, float] = {}
        self._base_registry = {id(r): _registry_counts(r) for r in self.registries}
        self._base_service = {id(s): dict(s.stats()) for s in self.services}


def _registry_counts(registry) -> dict[str, tuple[int, int]]:
    stats = registry.stats()
    return {
        ns: (stats["hits"].get(ns, 0), stats["misses"].get(ns, 0))
        for ns in REGISTRY_NAMESPACES
    }


def _wrap_function(rec, module_name: str, attr: str, name: str, after=None):
    """Wrap a module-level function in every ``repro`` module that binds it."""
    fn = getattr(sys.modules[module_name], attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                rec.wrap(mod, key, name, after)


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _wrap_everywhere(rec, base, attr: str, name: str, after=None):
    """Wrap ``attr`` on ``base`` and every subclass that defines its own."""
    for cls in _subclasses(base):
        if attr in vars(cls):
            rec.wrap(cls, attr, name, after)


def install(rec, probe: Probe) -> None:
    """Wrap the public calls into each layer with spans of ``rec``."""
    import repro  # noqa: F401  (registers every format and variant)
    import repro.bench.experiments as experiments
    from repro.comm.communicator import World
    from repro.core.context import ExecutionContext
    from repro.core.dispatch import KernelVariant
    from repro.core.registry import SignatureRegistry
    from repro.core.sell import SellMat
    from repro.ksp.base import KSP
    from repro.ksp.pc.jacobi import JacobiPC
    from repro.ksp.pc.mg import MGPC
    from repro.ksp.snes import NewtonSolver
    from repro.mat.aij import AijMat
    from repro.mat.base import Mat
    from repro.pde.grayscott import GrayScottProblem
    from repro.serve.batcher import SignatureBatcher
    from repro.serve.qos import AdmissionController
    from repro.serve.server import SolveService
    from repro.simd.megakernel import MegakernelTrace
    from repro.simd.replay import KernelTrace
    import repro.comm.spmd  # noqa: F401  (loaded for _wrap_function)
    import repro.core.traced  # noqa: F401

    count = rec.count

    # pde
    rec.wrap(GrayScottProblem, "jacobian", "pde.jacobian")
    rec.wrap(GrayScottProblem, "rhs", "pde.rhs")

    # mat
    rec.wrap(AijMat, "from_coo", "mat.assembly")
    rec.wrap(SellMat, "from_csr", "mat.convert")
    rec.wrap(KernelVariant, "prepare", "mat.convert")
    _wrap_everywhere(rec, Mat, "to_csr", "mat.to_csr")
    _wrap_everywhere(rec, Mat, "diagonal", "mat.diagonal")

    def after_mult(y, mat, x, *args, **kwargs):
        m, n = mat.shape
        count("mat.mult.flops", 2 * mat.nnz)
        count("mat.mult.bytes_computed", mat.memory_bytes() + 8 * (m + n))

    _wrap_everywhere(rec, Mat, "multiply", "mat.mult", after_mult)

    def after_spmm(ys, mat, xs, *args, **kwargs):
        count("mat.spmm.columns", np.shape(xs)[1])

    _wrap_everywhere(rec, Mat, "multiply_multi", "mat.spmm", after_spmm)

    # ksp
    def after_ksp(result, *args, **kwargs):
        count("ksp.iterations", result.iterations)

    _wrap_everywhere(rec, KSP, "solve", "ksp.solve", after_ksp)
    for pc in (MGPC, JacobiPC):
        rec.wrap(pc, "setup", "pc.setup")
        rec.wrap(pc, "apply", "pc.apply")
    _wrap_function(rec, "repro.ksp.pc.mg", "csr_matmul", "pc.galerkin")

    def after_newton(result, *args, **kwargs):
        count("snes.iterations", result.iterations)

    rec.wrap(NewtonSolver, "solve", None, after_newton)

    # core
    rec.wrap(ExecutionContext, "best_plan", "core.autotune")
    rec.wrap(ExecutionContext, "measure", "core.measure")
    rec.wrap(
        ExecutionContext, "__post_init__", None,
        lambda _, ctx, *a, **k: probe.contexts.append(ctx),
    )
    rec.wrap(
        SignatureRegistry, "__init__", None,
        lambda _, reg, *a, **k: probe.registries.append(reg),
    )

    # simd
    def instructions(counters) -> int:
        return (
            counters.total_vector_instructions + counters.scalar_load
            + counters.scalar_store + counters.scalar_fma
        )

    def after_run(result, variant, mat, x, *args, trace=None, **kwargs):
        if trace is None and len(args) < 3:
            count("simd.instructions", instructions(result[1]))

    def after_record(result, *args, **kwargs):
        count("simd.instructions", instructions(result[2]))

    rec.wrap(KernelVariant, "run", "simd.interpret", after_run)
    rec.wrap(KernelVariant, "replay", "simd.replay")
    rec.wrap(KernelTrace, "replay", "simd.replay")
    rec.wrap(MegakernelTrace, "replay", "simd.replay")
    _wrap_function(rec, "repro.core.traced", "record_trace", "simd.record", after_record)
    _wrap_function(rec, "repro.simd.replay", "compile_trace", "simd.compile")
    _wrap_function(rec, "repro.simd.megakernel", "compile_megakernel", "simd.megakernel")

    # machine
    rec.wrap(ExecutionContext, "predict", "machine.predict")

    # bench
    for section in BENCH_SECTIONS:
        module = importlib.import_module(f"{experiments.__name__}.{section}")
        rec.wrap(module, "render", f"bench.{section}")

    # comm
    _wrap_function(rec, "repro.comm.spmd", "run_spmd", "comm.spmd")
    rec.wrap(World, "__init__", None, lambda _, w, *a, **k: probe.worlds.append(w))

    # serve: queue wait runs from admission to the batch plan that takes it
    def after_admit(reason, controller, request, *args, **kwargs):
        if reason is None:
            probe._admitted[id(request)] = rec.clock()

    def after_plan(batches, batcher, requests, *args, **kwargs):
        now = rec.clock()
        for request in requests:
            t0 = probe._admitted.pop(id(request), None)
            if t0 is not None:
                probe.queue_waits.append(now - t0)

    rec.wrap(SolveService, "submit", "serve.submit")
    rec.wrap(AdmissionController, "try_admit", None, after_admit)
    rec.wrap(SignatureBatcher, "plan", None, after_plan)


def layer_metrics(rec, probe: Probe) -> dict[str, float]:
    """Every name in :data:`LAYER_METRICS` except the ``trace.*`` rows."""
    totals = rec.totals()
    out: dict[str, float] = {}

    def span_stat(name: str, stat: str) -> float:
        return float(totals.get(name, {}).get(stat, 0.0))

    for metric, *_ in LAYER_METRICS:
        base, _, stat = metric.rpartition(".")
        if stat in ("self_s", "calls"):  # every such row is a span name
            out[metric] = span_stat(base, stat)
    c = rec.counters
    for name in ("mat.mult.flops", "mat.mult.bytes_computed", "ksp.iterations",
                 "snes.iterations", "simd.instructions"):
        out[name] = float(c.get(name, 0.0))
    mult_s = out["mat.mult.self_s"]
    out["mat.mult.gflops"] = out["mat.mult.flops"] / mult_s / 1e9 if mult_s else 0.0
    spmm_calls = out["mat.spmm.calls"]
    out["mat.spmm.width"] = c.get("mat.spmm.columns", 0.0) / spmm_calls if spmm_calls else 0.0
    records = out["simd.record.calls"]
    out["simd.replays_per_record"] = (
        out["simd.replay.calls"] / records if records else 0.0
    )
    out["core.autotune.sweeps"] = float(sum(ctx.autotune_sweeps for ctx in probe.contexts))

    seen, hits, misses = set(), dict.fromkeys(REGISTRY_NAMESPACES, 0), dict.fromkeys(REGISTRY_NAMESPACES, 0)
    for reg in probe.registries:
        if id(reg) in seen:
            continue
        seen.add(id(reg))
        base = probe._base_registry.get(id(reg), {})
        for ns, (h, m) in _registry_counts(reg).items():
            h0, m0 = base.get(ns, (0, 0))
            hits[ns] += h - h0
            misses[ns] += m - m0
    for ns in REGISTRY_NAMESPACES:
        lookups = hits[ns] + misses[ns]
        out[f"core.registry.hit_rate.{ns}"] = hits[ns] / lookups if lookups else 0.0

    out["comm.messages"] = float(sum(w.stats.messages for w in probe.worlds))
    out["comm.bytes"] = float(sum(w.stats.bytes for w in probe.worlds))

    passes = batched = rejected = 0
    for svc in probe.services:
        now, base = svc.stats(), probe._base_service[id(svc)]
        passes += now["spmv_batches"] - base["spmv_batches"]
        batched += now["spmv_batched_requests"] - base["spmv_batched_requests"]
        rejected += now["rejected"] - base["rejected"]
    out["serve.passes"] = float(passes)
    out["serve.occupancy"] = batched / passes if passes else 0.0
    out["serve.rejected"] = float(rejected)
    waits = np.asarray(probe.queue_waits) * 1e3
    out["serve.queue_wait_ms.p50"] = float(np.percentile(waits, 50)) if waits.size else 0.0
    out["serve.queue_wait_ms.p99"] = float(np.percentile(waits, 99)) if waits.size else 0.0
    return out

