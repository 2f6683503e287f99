"""Elastic GMRES: survive rank death and grow events with bit-identity.

The driver runs GMRES over an :class:`~repro.elastic.world.ElasticWorld`
in *epochs*.  Within an epoch every rank executes the **replicated
recurrence / distributed MatMult** scheme: each rank owns one contiguous
row block of the operator and contributes its rows to every matvec
(gathered in rank order), while the Gram-Schmidt and Givens arithmetic
runs identically on every rank from the replicated global vectors.  Row
slicing preserves each row's accumulation order, so the distributed
matvec is bit-identical to the sequential one — which makes the whole
solve *partition-invariant*: killing a rank, repartitioning onto fewer
(or more) ranks, and resuming from the last checkpoint reproduces the
uninterrupted run's iterates to the last bit.  That is the property the
chaos campaign and the recovery test panel assert, and the reason every
repartition is differentially verified against a fresh sequential slice
("Verification Challenges in SpMV" — reconfiguration paths are where
silent errors hide).

An epoch ends three ways: converged (done), a scripted or injected
:class:`~repro.comm.communicator.RankDeath` (shrink), or a
:class:`_PlannedGrow` control signal from rank 0 (grow).  On either
resize the driver rebuilds the partition through
:meth:`ElasticWorld.shrink`/``grow``, executes the checked row-block
migration over a live world, reloads the newest valid checkpoint, and
starts the next epoch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..comm.communicator import RankDeath
from ..comm.spmd import SpmdError, run_spmd
from ..core.registry import SignatureRegistry
from ..faults.events import emit
from ..ksp.checkpoint import Checkpointer, CheckpointStore
from ..ksp.gmres import GMRES
from ..ksp.pc.jacobi import JacobiPC
from ..mat.aij import AijMat
from ..obs.observer import obs_counter
from .world import (
    ElasticWorld,
    ResizeEvent,
    Transfer,
    assemble_block,
    csr_rows_payload,
    execute_migration,
    row_block,
)


@dataclass(frozen=True)
class ElasticEvent:
    """One scripted chaos action against a running elastic solve.

    ``kind`` is ``"kill"`` (rank ``rank`` dies) or ``"grow"`` (``add``
    ranks join); the event fires at the first solver iteration at or
    past ``at_iteration`` of the epoch that reaches it.
    """

    kind: str
    at_iteration: int
    rank: int = 1
    add: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "grow"):
            raise ValueError(f"unknown elastic event kind {self.kind!r}")
        if self.at_iteration < 1:
            raise ValueError("events fire at iteration 1 or later")


class _PlannedGrow(Exception):
    """Control-flow signal: rank 0 requests a world grow at an iteration.

    Deliberately NOT a CommunicatorError: :func:`~repro.comm.spmd.run_spmd`
    prefers non-communicator failures as the primary error, so the grow
    signal wins over the secondary poisoned-world errors of the peers.
    """

    def __init__(self, iteration: int):
        super().__init__(f"planned grow at iteration {iteration}")
        self.iteration = iteration


class _DistributedOperator:
    """Row-distributed MatMult over replicated global vectors.

    Each rank multiplies its contiguous row block and the ranks allgather
    the pieces in rank order — per-row arithmetic identical to the
    sequential CSR pass, so the concatenated product is bit-identical to
    ``csr.multiply(x)`` for any world size.  The diagonal is the
    precomputed global diagonal (shared by every rank), so Jacobi setup
    is trivially partition-invariant too.
    """

    def __init__(self, comm, block: AijMat, diag: np.ndarray):
        self.comm = comm
        self.block = block
        self._diag = diag
        n = diag.shape[0]
        self.shape = (n, n)

    def multiply(
        self, x: np.ndarray, y: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather the per-rank row-block products into the global y."""
        local = self.block.multiply(np.asarray(x, dtype=np.float64))
        out = np.concatenate(self.comm.allgather(local))
        if y is not None:
            y[:] = out
            return y
        return out

    def diagonal(self) -> np.ndarray:
        """The (replicated) global diagonal."""
        return self._diag


@dataclass
class EpochRecord:
    """How one epoch of an elastic solve ended."""

    epoch: int
    size: int
    start_iteration: int
    end: str
    resumed_from: int | None = None


@dataclass
class ElasticResult:
    """Outcome of an elastic solve: the KSP answer plus the history."""

    x: np.ndarray
    reason: object
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)
    resizes: list[ResizeEvent] = field(default_factory=list)
    migration_ok: bool = True

    @property
    def schedule_ok(self) -> bool:
        """True when every repartition passed both schedule checks."""
        return self.migration_ok and all(
            ev.report is None or ev.report.ok for ev in self.resizes
        )


@dataclass
class ElasticGMRES:
    """GMRES over an elastic world: checkpoint, shrink/grow, resume.

    ``cadence`` is the checkpoint cadence in solver iterations (written
    by rank 0 into the shared store).  ``max_epochs`` bounds how many
    resume cycles a chaotic run may take before the driver gives up.
    """

    restart: int = 20
    rtol: float = 1.0e-8
    atol: float = 1.0e-50
    max_it: int = 400
    cadence: int = 5
    max_epochs: int = 8
    retry_seed: int = 0
    max_send_retries: int | None = None

    def __post_init__(self) -> None:
        if self.cadence < 1:
            raise ValueError("checkpoint cadence must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")

    def solve(
        self,
        csr: AijMat,
        b: np.ndarray,
        store: CheckpointStore,
        size: int,
        events: tuple[ElasticEvent, ...] = (),
        registry: SignatureRegistry | None = None,
    ) -> ElasticResult:
        """Run the elastic solve to convergence across resize epochs."""
        n = csr.shape[0]
        diag = csr.diagonal()
        ew = ElasticWorld(
            n,
            size,
            registry=registry,
            max_send_retries=self.max_send_retries,
            retry_seed=self.retry_seed,
        )
        queue = deque(sorted(events, key=lambda e: e.at_iteration))
        resume = None
        epochs: list[EpochRecord] = []
        migration_ok = True
        for _ in range(self.max_epochs):
            event = queue[0] if queue else None
            start_it = resume.iteration if resume is not None else 0
            world = ew.make_world()
            try:
                ranks = run_spmd(
                    ew.size,
                    self._rank_solve,
                    csr,
                    b,
                    diag,
                    ew.layout,
                    registry,
                    store,
                    resume,
                    event,
                    start_it,
                    world=world,
                )
            except SpmdError as err:
                end, dead = self._classify(err, event)
                queue.popleft()
                epochs.append(
                    EpochRecord(
                        epoch=ew.epoch,
                        size=ew.size,
                        start_iteration=start_it,
                        end=end,
                        resumed_from=(
                            resume.iteration if resume is not None else None
                        ),
                    )
                )
                rev = (
                    ew.shrink([dead])
                    if dead is not None
                    else ew.grow(event.add)
                )
                migration_ok = self._migrate(csr, ew, rev) and migration_ok
                resume = store.latest("gmres")
                obs_counter("elastic.epochs")
                continue
            result = ranks[0]
            epochs.append(
                EpochRecord(
                    epoch=ew.epoch,
                    size=ew.size,
                    start_iteration=start_it,
                    end=f"converged:{result.reason.name}",
                    resumed_from=(
                        resume.iteration if resume is not None else None
                    ),
                )
            )
            return ElasticResult(
                x=result.x,
                reason=result.reason,
                iterations=result.iterations,
                residual_norms=result.residual_norms,
                epochs=epochs,
                resizes=list(ew.resizes),
                migration_ok=migration_ok,
            )
        raise RuntimeError(
            f"elastic solve did not finish within {self.max_epochs} epochs"
        )

    @staticmethod
    def _classify(
        err: SpmdError, event: ElasticEvent | None
    ) -> tuple[str, int | None]:
        """Map an epoch failure to (record label, dead rank or None)."""
        orig = err.original
        if isinstance(orig, _PlannedGrow):
            if event is None or event.kind != "grow":
                raise err
            return f"grow@{orig.iteration}", None
        if isinstance(orig, RankDeath) and event is not None and (
            event.kind == "kill"
        ):
            return f"kill@rank{err.rank}", err.rank
        raise err

    def _rank_solve(
        self,
        comm,
        csr: AijMat,
        b: np.ndarray,
        diag: np.ndarray,
        layout,
        registry: SignatureRegistry | None,
        store: CheckpointStore,
        resume,
        event: ElasticEvent | None,
        start_it: int,
    ):
        """One rank's epoch: block, operator, chaos monitor, GMRES."""
        if registry is not None:
            content = SignatureRegistry.content_key(csr)
            block = registry.get_or_compute(
                "prepare",
                ("rowblock", comm.size, comm.rank, content),
                lambda: row_block(csr, layout, comm.rank),
            )
        else:
            block = row_block(csr, layout, comm.rank)
        op = _DistributedOperator(comm, block, diag)
        fired = [False]

        def monitor(it: int, _rnorm: float) -> None:
            if event is None or fired[0]:
                return
            if it >= event.at_iteration and it > start_it:
                fired[0] = True
                if event.kind == "kill":
                    if comm.rank == event.rank % comm.size:
                        comm.world.kill(comm.rank, f"gmres iteration {it}")
                elif comm.rank == 0:
                    raise _PlannedGrow(it)

        checkpointer = (
            Checkpointer(store, cadence=self.cadence)
            if comm.rank == 0
            else None
        )
        solver = GMRES(
            restart=self.restart,
            rtol=self.rtol,
            atol=self.atol,
            max_it=self.max_it,
            pc=JacobiPC(),
            monitor=monitor,
        )
        return solver.solve(op, b, checkpointer=checkpointer, resume=resume)

    def _migrate(
        self, csr: AijMat, ew: ElasticWorld, rev: ResizeEvent
    ) -> bool:
        """Execute the checked migration; differentially verify blocks.

        Every moving row range really crosses the new world's
        communicator (fault sites and retry jitter included); each
        rank's assembled block is then compared bit-for-bit against a
        fresh sequential slice of the operator — the differential check
        that catches a wrong repartition before it can poison the
        resumed solve.
        """

        def source_of(t: Transfer):
            return csr_rows_payload(csr, t.start, t.end)

        world = ew.make_world()
        pieces, log_report = execute_migration(world, rev.transfers, source_of)
        ok = log_report.ok and (rev.report is None or rev.report.ok)
        for rank, rank_pieces in enumerate(pieces):
            assembled = assemble_block(rank_pieces, csr.shape[1])
            fresh = row_block(csr, rev.new_layout, rank)
            if not (
                np.array_equal(assembled.rowptr, fresh.rowptr)
                and np.array_equal(assembled.colidx, fresh.colidx)
                and np.array_equal(assembled.val, fresh.val)
            ):
                emit(
                    "detected", "world.resize", "migration",
                    detail=f"rank {rank} block mismatch after repartition "
                    f"to {rev.new_size} ranks",
                )
                ok = False
        return ok
