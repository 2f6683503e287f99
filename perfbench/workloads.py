"""The four benchmark workloads.

Every workload follows one protocol:

* ``setup(seed)`` builds the inputs from the seed and warms up whatever
  users would not pay on every run; the runner repeats it and times it.
* ``reset()`` restores the cold state a pass must start from.
* ``run_pass()`` runs one timed pass and returns a :class:`PassResult`
  with the latency of each operation the pass completed.
* ``check(outputs)`` checks a pass's outputs outside the timed region and
  returns ``(attempted, failed)``; it never raises on a wrong output.
* ``close()`` stops anything ``setup`` started.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

import checks
from repro import ExecutionContext, Grid2D, GrayScottProblem, SellMat, gray_scott_jacobian
from repro.bench import run_all
from repro.bench.serve_traffic import TrafficConfig, build_pool, tenant_schedule
from repro.ksp import GMRES, MGPC, ThetaMethod
from repro.serve import AdmissionController, RequestKind, SolveRequest, SolveService

clock = time.perf_counter


@dataclass
class PassResult:
    """One timed pass: its wall time and per-operation latencies (s)."""

    wall_s: float
    latencies: list[float]
    outputs: object = None
    attempted: int = 0
    failed: int = 0


class Workload:
    """Defaults for the protocol steps a workload has no use for."""

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class GrayScott(Workload):
    """The SELL run of ``examples/gray_scott_simulation.py`` on a 64^2 grid."""

    name = "gray-scott"
    op = "time step"
    GRID = 64
    STEPS = 8
    RTOL = 1.0e-8  # Newton and GMRES relative tolerance
    THETA = 0.5
    DT = 1.0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self._reference = None
        self.grid = Grid2D(self.GRID, self.GRID, dof=2)
        self.problem = GrayScottProblem(self.grid)
        self.w0 = self.problem.initial_state(seed=seed)
        # Warm-up: one step on a small grid loads every lazily imported
        # solver module before the clock starts.
        small = Grid2D(16, 16, dof=2)
        sp = GrayScottProblem(small)
        self._stepper(sp, small).step(sp.initial_state(seed=seed))

    def _stepper(self, problem, grid):
        def ksp_factory():
            return GMRES(pc=MGPC(grids=grid.hierarchy(3)), rtol=self.RTOL, restart=30)

        return ThetaMethod(
            rhs=problem.rhs,
            jacobian=problem.jacobian,
            ksp_factory=ksp_factory,
            operator_wrapper=lambda m: SellMat.from_csr(m.to_csr(), 8),
            theta=self.THETA,
            dt=self.DT,
            snes_rtol=self.RTOL,
        )

    def run_pass(self) -> PassResult:
        ts = self._stepper(self.problem, self.grid)
        w, latencies, failed = self.w0, [], 0
        t0 = clock()
        for k in range(self.STEPS):
            t = clock()
            try:
                w, _ = ts.step(w)
            except RuntimeError:  # Newton did not converge: this and later steps fail
                failed = self.STEPS - k
                w = None
                break
            latencies.append(clock() - t)
        wall = clock() - t0
        return PassResult(wall, latencies, w, attempted=self.STEPS, failed=failed)

    def reference(self) -> tuple[np.ndarray, float]:
        """SciPy-CSR trajectory (direct solves) and the tolerance it implies.

        Both runs stop Newton once ``||F|| <= RTOL * ||F0||``; with
        ``||J^-1|| <= 2`` for the Crank-Nicolson matrix ``I - J_f/2`` each
        step's iterate is within ``2 * RTOL * ||F0||`` of the exact step,
        so two runs differ by at most ``4 * RTOL * sum ||F0||`` over the
        steps.
        """
        if self._reference is None:
            problem, theta, dt = self.problem, self.THETA, self.DT
            w = self.w0.copy()
            f0_sum = 0.0
            for _ in range(self.STEPS):
                w_n, f_n = w.copy(), problem.rhs(w)

                def g(v, w_n=w_n, f_n=f_n):
                    return (v - w_n) / dt - (theta * problem.rhs(v) + (1 - theta) * f_n)

                f = g(w)
                fnorm0 = float(np.linalg.norm(f))
                f0_sum += fnorm0
                for _ in range(25):
                    if np.linalg.norm(f) <= self.RTOL * fnorm0:
                        break
                    jac = problem.jacobian(w, 1.0 / dt, -theta).to_scipy().tocsc()
                    w = w - spla.spsolve(jac, f)
                    f = g(w)
            self._reference = (w, 4.0 * self.RTOL * f0_sum)
        return self._reference

    def check(self, outputs) -> tuple[int, int]:
        reference, bound = self.reference()
        return 1, checks.gray_scott(outputs, reference, bound)


class PaperEval(Workload):
    """``python -m repro all``: the paper's whole evaluation section, cold."""

    name = "paper-eval"
    op = "evaluation"

    def setup(self, seed: int) -> None:
        self.seed = seed

    def reset(self) -> None:
        # The figure harnesses memoize contexts and measurements in
        # functools caches; clearing them makes every pass as cold as a
        # fresh ``python -m repro all``.
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()

    def run_pass(self) -> PassResult:
        buf = io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            run_all.main()
        wall = clock() - t0
        return PassResult(wall, [wall], buf.getvalue())

    def check(self, outputs) -> tuple[int, int]:
        return 1, checks.paper_eval(outputs)


class Quickstart(Workload):
    """The README quickstart on a fresh context: first autotune included."""

    name = "quickstart"
    op = "quickstart"
    GRID = 64

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.x = np.random.default_rng(seed).standard_normal(2 * self.GRID * self.GRID)

    def run_pass(self) -> PassResult:
        t0 = clock()
        ctx = ExecutionContext()
        csr = gray_scott_jacobian(self.GRID)
        best = ctx.best_variant(csr)
        sell = ctx.reformat(csr)
        meas = ctx.measure(best, csr, x=self.x)
        perf = ctx.predict(meas, scale=(2048 / self.GRID) ** 2)
        wall = clock() - t0
        outputs = (best.name, sell.padding_fraction, meas.y, csr, perf.gflops)
        return PassResult(wall, [wall], outputs)

    def check(self, outputs) -> tuple[int, int]:
        name, padding, y, csr, gflops = outputs
        y_ref = csr.to_scipy() @ self.x
        return 4, checks.quickstart(name, padding, y, y_ref, gflops)


@dataclass
class _ServeInputs:
    pool: list
    banks: list  # per operator: [(x, SciPy reference product), ...]
    schedules: list


class Serve(Workload):
    """Closed-loop ``SolveService`` traffic: 64 tenants, Zipf over 4 operators."""

    name = "serve"
    op = "request"
    TENANTS = 64
    REQUESTS_PER_TENANT = 100  # per pass
    WORLD_SIZE = 1

    def __init__(self):
        self.loop = None
        self.service = None

    def setup(self, seed: int) -> None:
        self.close()
        self.seed = seed
        self.cfg = TrafficConfig(
            tenants=self.TENANTS,
            requests_per_tenant=self.REQUESTS_PER_TENANT,
            pool=((32, seed), (32, seed + 1), (24, seed), (24, seed + 1)),
            world_size=self.WORLD_SIZE,
            seed=seed,
        )
        pool, weights, banks = build_pool(self.cfg)
        banks = [
            [(x, mat.to_scipy() @ x) for x, _ in bank]
            for mat, bank in zip(pool, banks)
        ]
        schedules = [
            tenant_schedule(self.cfg, t, len(pool), weights)
            for t in range(self.TENANTS)
        ]
        self.inputs = _ServeInputs(pool, banks, schedules)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        cfg = self.cfg
        self.service = SolveService(
            shards=cfg.shards,
            world_size=cfg.world_size,
            batch_window=cfg.batch_window,
            max_batch=cfg.max_batch,
            admission=AdmissionController(queue_cap=cfg.queue_cap),
        )
        await self.service.start()
        # Warm-up: prepare every operator once, as a long-running server has.
        for mat, bank in zip(self.inputs.pool, self.inputs.banks):
            await self.service.submit(SolveRequest(
                tenant="warmup", mat=mat, payload=bank[0][0], kind=RequestKind.SPMV,
            ))

    async def _tenant(self, t: int, latencies: list, failed: list) -> None:
        idxs, picks, thinks = self.inputs.schedules[t]
        for i in range(self.REQUESTS_PER_TENANT):
            idx = int(idxs[i])
            x, reference = self.inputs.banks[idx][int(picks[i])]
            request = SolveRequest(
                tenant=f"tenant-{t}", mat=self.inputs.pool[idx], payload=x,
                kind=RequestKind.SPMV, priority=t % 3,
            )
            t0 = clock()
            response = await self.service.submit(request)
            latencies.append(clock() - t0)
            failed[0] += checks.serve_answer(response.ok, response.result, reference)
            think = float(thinks[i])
            # Sub-half-millisecond thinks are below the event loop's timer
            # granularity; sleep(0) yields without a timer.
            await asyncio.sleep(think if think >= 5.0e-4 else 0)

    async def _pass(self) -> PassResult:
        latencies: list[float] = []
        failed = [0]
        t0 = clock()
        await asyncio.gather(*(
            self._tenant(t, latencies, failed) for t in range(self.TENANTS)
        ))
        wall = clock() - t0
        n = self.TENANTS * self.REQUESTS_PER_TENANT
        return PassResult(wall, latencies, None, attempted=n, failed=failed[0])

    def run_pass(self) -> PassResult:
        return self.loop.run_until_complete(self._pass())

    def check(self, outputs) -> tuple[int, int]:
        return 0, 0  # every answer was checked as it arrived

    def close(self) -> None:
        if self.loop is not None:
            if self.service is not None:
                self.loop.run_until_complete(self.service.stop())
            self.loop.close()
        self.loop = self.service = None


WORKLOADS = {w.name: w for w in (GrayScott, PaperEval, Quickstart, Serve)}
