"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gray-scott --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run times passes of the workload with no wrappers
installed and reports the end-to-end metrics.  With ``--trace 1`` it
runs a warm-up pass, times one untraced pass, then one pass with the
per-layer span wrappers of ``layers.py`` installed, and reports the
per-layer metrics, the share of the traced pass covered by named spans,
and the tracing overhead (traced wall minus untraced wall).  The spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero, printing no result, when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}


# NumPy is imported inside functions so that main() pins its thread pools first.
def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _setup(workload, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def _timed_pass(workload):
    workload.reset()
    return workload.run_pass()


def _check(workload, passes) -> None:
    """Count each pass's output checks into its attempted/failed tallies."""
    for result in passes:
        attempted, failed = workload.check(result.outputs)
        result.attempted += attempted
        result.failed += failed
        result.outputs = None


def _end_to_end(workload, seconds: float, import_s: float, setup_times):
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(_timed_pass(workload))
    # Read before the checks, whose reference solves are not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check(workload, passes)
    walls = [p.wall_s for p in passes]
    ops = sum(len(p.latencies) for p in passes)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": ops / sum(walls),
        # Per-pass percentiles, then the median over passes, so one
        # disturbed pass does not move the figure.
        "op_p50_ms": statistics.median(_percentile(p.latencies, 50) for p in passes) * 1e3,
        "op_p99_ms": statistics.median(_percentile(p.latencies, 99) for p in passes) * 1e3,
    }
    samples = {
        "setup_s": [import_s + t for t in setup_times],
        "wall_s": walls,
        f"ms per {workload.op}": [x * 1e3 for p in passes for x in p.latencies],
    }
    return metrics, passes, samples


def _traced(workload, args) -> tuple[dict, list]:
    import layers
    from spans import Recorder

    # The first pass after set-up pays one-time costs (lazy imports, heap
    # growth); the untraced and traced passes both come after it.
    warm = _timed_pass(workload)
    untraced = _timed_pass(workload)
    rec = Recorder()
    service = getattr(workload, "service", None)
    probe = layers.Probe(services=[service] if service is not None else [])
    layers.install(rec, probe)
    try:
        workload.reset()
        rec.run = f"{workload.name}:{args.seed}"
        with rec.span("workload") as root:
            result = workload.run_pass()
    finally:
        rec.uninstall()
    passes = [warm, untraced, result]
    _check(workload, passes)
    metrics = layers.layer_metrics(rec, probe)
    metrics["trace.coverage"] = rec.coverage(root)
    metrics["trace.wall_s"] = root.duration
    metrics["trace.overhead_s"] = root.duration - untraced.wall_s
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    rec.dump(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
    return metrics, passes


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin BLAS and OpenMP pools before NumPy loads: all load comes from
    # this process, with the solver's own threads only.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # A plan cache from the environment would make first-touch workloads
    # warm and write outside the checkout.
    os.environ.pop("REPRO_PLAN_CACHE", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    env = _environment()
    import_s = time.perf_counter() - T_START
    try:
        setup_times = _setup(workload, args.seed)
        if args.trace:
            from layers import LAYER_METRICS

            metrics, passes = _traced(workload, args)
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
        else:
            metrics, passes, samples = _end_to_end(workload, args.seconds, import_s, setup_times)
            units = END_TO_END
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.6g}")
    if not args.trace:
        for key, values in samples.items():
            print(f"  {key:18s} median {statistics.median(values):.6g}  "
                  f"p99 {_percentile(values, 99):.6g}  n {len(values)}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
