"""Tests of the benchmark's span recorder and output checks.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


# -- span recorder -----------------------------------------------------------
def test_nested_spans_self_time_and_coverage():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("root") as root:
        clock.tick(1.0)
        with rec.span("a") as a:
            clock.tick(2.0)
            with rec.span("b") as b:
                clock.tick(3.0)
            clock.tick(1.0)
        clock.tick(4.0)
    selfs = rec.self_times()
    assert (root.duration, a.duration, b.duration) == (11.0, 6.0, 3.0)
    assert selfs[root.id] == 5.0
    assert selfs[a.id] == 3.0
    assert selfs[b.id] == 3.0
    assert (a.parent, b.parent) == (root.id, a.id)
    assert rec.coverage(root) == pytest.approx(6.0 / 11.0)
    totals = rec.totals()
    assert totals["a"] == {"calls": 1, "self_s": 3.0}


def test_raise_inside_span_closes_it_and_propagates():
    clock = FakeClock()
    rec = Recorder(clock)

    class Boom(Exception):
        pass

    class Target:
        def work(self):
            clock.tick(2.0)
            raise Boom

    rec.wrap(Target, "work", "layer.work")
    with rec.span("root") as root:
        with pytest.raises(Boom):
            Target().work()
        clock.tick(1.0)
        with rec.span("after") as after:
            clock.tick(1.0)
    work = next(s for s in rec.spans if s.name == "layer.work")
    assert work.end == 2.0 and work.parent == root.id
    # The stack unwound: the next span is a child of root, not of work.
    assert after.parent == root.id
    assert rec.self_times()[root.id] == 1.0


def test_same_name_nesting_collapses_and_uninstall_restores():
    clock = FakeClock()
    rec = Recorder(clock)

    class Base:
        def multiply(self, x):
            clock.tick(1.0)
            return x * 2

        @classmethod
        def build(cls, n):
            return n + 1

    class Child(Base):
        def multiply(self, x):
            return super().multiply(x) + 1

    originals = (Base.__dict__["multiply"], Child.__dict__["multiply"], Base.__dict__["build"])
    for cls in (Base, Child):
        rec.wrap(cls, "multiply", "mat.mult")
    rec.wrap(Base, "build", "mat.assembly")
    assert Child().multiply(3) == 7
    assert Child.build(1) == 2
    totals = rec.totals()
    assert totals["mat.mult"]["calls"] == 1
    assert totals["mat.mult"]["self_s"] == 1.0
    assert totals["mat.assembly"]["calls"] == 1
    rec.uninstall()
    assert (Base.__dict__["multiply"], Child.__dict__["multiply"], Base.__dict__["build"]) == originals


def test_after_hook_counts_and_async_spans_are_detached():
    clock = FakeClock()
    rec = Recorder(clock)

    class Service:
        async def submit(self, n):
            clock.tick(0.5)
            await asyncio.sleep(0)
            return n

    rec.wrap(Service, "submit", "serve.submit", lambda r, svc, n: rec.count("n", r))

    async def drive():
        return await asyncio.gather(*(Service().submit(i) for i in range(3)))

    with rec.span("root") as root:
        assert asyncio.run(drive()) == [0, 1, 2]
    submits = [s for s in rec.spans if s.name == "serve.submit"]
    assert len(submits) == 3 and all(s.parent is None for s in submits)
    assert rec.counters["n"] == 3
    assert rec.coverage(root) == 1.0


def test_dump_writes_every_span(tmp_path):
    rec = Recorder(FakeClock())
    rec.run = "w:1"
    with rec.span("root"):
        with rec.span("child"):
            pass
    path = tmp_path / "spans.jsonl"
    rec.dump(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["root", "child"]
    assert rows[1]["parent"] == rows[0]["id"] and rows[1]["run"] == "w:1"


# -- output checks: a corrupted output counts as failed ----------------------
def test_paper_eval_check_rejects_changed_text():
    assert checks.paper_eval("not the evaluation") == 1
    assert workloads.PaperEval().check("") == (1, 1)


def test_gray_scott_check():
    ref = np.linspace(0.0, 1.0, 16)
    assert checks.gray_scott(ref.copy(), ref, 1e-9) == 0
    bad = ref.copy()
    bad[3] += 1e-6
    assert checks.gray_scott(bad, ref, 1e-9) == 1
    nan = ref.copy()
    nan[0] = np.nan
    assert checks.gray_scott(nan, ref, 1e-9) == 1
    assert checks.gray_scott(None, ref, 1e-9) == 1


class _SmallGrayScott(workloads.GrayScott):
    GRID = 16
    STEPS = 2


def test_gray_scott_pass_counts_failures_without_aborting(monkeypatch):
    wl = _SmallGrayScott()
    wl.setup(3)
    result = wl.run_pass()
    assert (result.attempted, result.failed) == (2, 0)
    assert wl.check(result.outputs) == (1, 0)
    corrupted = result.outputs.copy()
    corrupted[7] += 1e-4
    assert wl.check(corrupted) == (1, 1)

    from repro.ksp import ThetaMethod

    def diverge(self, w):
        raise RuntimeError("nonlinear solve failed")

    monkeypatch.setattr(ThetaMethod, "step", diverge)
    result = wl.run_pass()
    assert (result.attempted, result.failed) == (2, 2)
    assert wl.check(result.outputs) == (1, 1)


def test_quickstart_check():
    from repro import gray_scott_jacobian

    wl = workloads.Quickstart()
    wl.setup(5)
    wl.x = wl.x[: 2 * 8 * 8]
    csr = gray_scott_jacobian(8)
    y = csr.to_scipy() @ wl.x
    good = (checks.QUICKSTART_PLAN, 0.0, y, csr, checks.QUICKSTART_GFLOPS)
    assert wl.check(good) == (4, 0)
    y_bad = y.copy()
    y_bad[0] = np.nextafter(y_bad[0], np.inf)
    assert wl.check((good[0], good[1], y_bad, csr, good[4])) == (4, 1)
    assert wl.check(("CSR baseline", 0.1, y_bad, csr, 22.5)) == (4, 4)


def test_serve_check_is_bitwise():
    ref = np.arange(8, dtype=float) / 3.0
    assert checks.serve_answer(True, ref.copy(), ref) == 0
    bad = ref.copy()
    bad[5] = np.nextafter(bad[5], 0.0)
    assert checks.serve_answer(True, bad, ref) == 1
    assert checks.serve_answer(False, None, ref) == 1


class _SmallServe(workloads.Serve):
    TENANTS = 4
    REQUESTS_PER_TENANT = 5


def test_serve_pass_counts_wrong_answers_without_aborting():
    wl = _SmallServe()
    try:
        wl.setup(2)
        result = wl.run_pass()
        assert (result.attempted, result.failed) == (20, 0)
        # Corrupt every reference of one operator: each request for it fails.
        hot = int(wl.inputs.schedules[0][0][0])
        wl.inputs.banks[hot] = [(x, ref + 1.0) for x, ref in wl.inputs.banks[hot]]
        expected = sum(
            int(np.sum(idxs[: wl.REQUESTS_PER_TENANT] == hot))
            for idxs, _, _ in wl.inputs.schedules
        )
        result = wl.run_pass()
        assert (result.attempted, result.failed) == (20, expected)
    finally:
        wl.close()


# -- the metric lists agree with BENCHMARK.json ------------------------------
def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in layers.LAYER_METRICS
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
