"""Supervised branch-parallel mining: timeouts, retries, recovery, resume.

:func:`mine_pfci_parallel` (repro.core.parallel) assumes a perfect world —
one crashed or hung worker aborts the whole run and discards every finished
branch.  This module wraps the same branch decomposition
(:func:`~repro.core.parallel.plan_root_branches`) in a supervision loop that
treats worker failure as a normal event:

* **per-branch timeouts** — each branch's wall-clock deadline starts when
  it begins *running* on a worker (queued branches cannot time out while
  they wait for a slot); when a branch overruns it, the pool's worker
  processes are terminated (a hung worker cannot be cancelled through
  ``ProcessPoolExecutor``), the pool is rebuilt, and only unfinished
  branches are re-dispatched.  Only the timed-out branch is charged an
  attempt — other in-flight branches lost to the kill are collateral and
  are re-dispatched without consuming their retry budget
  (``branch_collateral_restarts``);
* **bounded retries with backoff** — a failed/timed-out branch is retried up
  to ``max_retries`` times with exponential backoff; its derived seed
  (``config.seed + rank``, the same rule the plain parallel driver uses) is
  preserved across retries, so a retry computes exactly what the first
  attempt would have;
* **``BrokenProcessPool`` recovery** — a worker that dies hard (OOM killer,
  segfault, injected ``os._exit``) breaks the pool and poisons every
  in-flight future; the breakage cannot be attributed to a single branch, so
  every unfinished branch is charged one attempt, the pool is rebuilt, and
  the unfinished branches are re-dispatched;
* **inline last resort** — a branch that exhausts its retry budget runs
  in-process in the supervisor (where a poisoned-pool or pickling problem
  cannot recur); if even that fails, the branch is reported as failed in the
  :class:`SupervisorReport` and counted in ``MiningStats.branches_failed``
  without killing the run (set ``fail_fast=True`` to raise instead);
* **checkpoint/resume** — with a checkpoint path, every completed branch is
  durably appended to a JSONL file (:mod:`repro.runtime.checkpoint`);
  resuming validates the config fingerprint and skips finished branches, so
  an interrupted run continues bit-identically;
* **cooperative cancellation** — a ``cancel_event`` (any
  ``threading.Event``) stops the run at the next supervision tick: finished
  branches are kept, in-flight workers are killed without being charged an
  attempt, the rest resolve as ``"cancelled"`` outcomes, and the checkpoint
  is durably marked cancelled so resume refuses it
  (:class:`~repro.runtime.checkpoint.CheckpointCancelledError`) — a killed
  job can never masquerade as an interrupted one.

Every recovery action increments a ``MiningStats`` counter
(``branches_dispatched``, ``branch_retries``, ``branch_timeouts``,
``branch_collateral_restarts``, ``pool_rebuilds``,
``branches_recovered_inline``, ``branches_failed``,
``checkpoint_branches_written``, ``checkpoint_branches_skipped``), all
surfaced in ``MiningStats.report()["runtime"]``.

Determinism: branch results depend only on (database, config, rank), never
on scheduling, retry count, or which recovery path ran — so a supervised
run under fault injection returns exactly the serial miner's results on the
exact-check configuration (asserted in ``tests/test_runtime_faults.py``).
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.config import MinerConfig
from ..core.database import UncertainDatabase
from ..core.itemsets import Item
from ..core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from ..core.parallel import BranchTask, plan_root_branches
from ..core.stats import MiningStats
from .checkpoint import (
    CheckpointCancelledError,
    CheckpointError,
    CheckpointWriter,
    config_fingerprint,
    deserialize_result,
    has_checkpoint_header,
    load_checkpoint,
    serialize_result,
    validate_fingerprint,
)
from .faults import FaultPlan

__all__ = [
    "BranchFailedError",
    "BranchOutcome",
    "SupervisorConfig",
    "SupervisorReport",
    "mine_pfci_supervised",
    "resume",
    "run_supervised",
]

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]


class BranchFailedError(RuntimeError):
    """Raised under ``fail_fast`` when a branch exhausts every recovery path."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery policy of the supervised runtime.

    Attributes:
        branch_timeout_seconds: wall-clock budget per branch, measured from
            the moment it starts running on a worker, so queue wait never
            counts against it (``None`` = no timeout).  An overrun branch
            is treated as hung: the pool is killed and rebuilt, and only
            the overrun branch is charged an attempt.
        max_retries: pool attempts per branch beyond the first; after the
            budget is spent the branch falls back to inline execution.
        backoff_base_seconds / backoff_multiplier / backoff_cap_seconds:
            exponential backoff before re-dispatching retried branches
            (``base * multiplier**(attempt-1)``, capped).
        inline_fallback: run retry-exhausted branches in-process as a last
            resort instead of failing them outright.
        fail_fast: raise :class:`BranchFailedError` on the first branch that
            fails every recovery path, instead of recording it and
            continuing with the surviving branches.
        poll_interval_seconds: supervision loop wake-up period for deadline
            checks.
    """

    branch_timeout_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 2.0
    inline_fallback: bool = True
    fail_fast: bool = False
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.branch_timeout_seconds is not None and not (
            self.branch_timeout_seconds > 0.0
        ):
            raise ValueError("branch_timeout_seconds must be > 0 when set")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0.0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_cap_seconds < 0.0:
            raise ValueError("backoff_cap_seconds must be >= 0")
        if self.poll_interval_seconds <= 0.0:
            raise ValueError("poll_interval_seconds must be > 0")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff before dispatching ``attempt`` (1-based retry index)."""
        if attempt <= 0 or self.backoff_base_seconds == 0.0:
            return 0.0
        return min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1),
        )


@dataclass
class BranchOutcome:
    """How one root branch eventually completed (or didn't)."""

    rank: int
    item: Item
    # "completed" | "checkpointed" | "recovered-inline" | "failed" | "cancelled"
    status: str
    attempts: int
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {
            "rank": self.rank,
            "item": self.item,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BranchOutcome":
        return cls(
            rank=payload["rank"],
            item=payload["item"],
            status=payload["status"],
            attempts=payload["attempts"],
            error=payload.get("error"),
        )


@dataclass
class SupervisorReport:
    """Everything a supervised run produced, including partial-failure detail."""

    results: List[ProbabilisticFrequentClosedItemset]
    outcomes: List[BranchOutcome] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)

    @property
    def failed(self) -> List[BranchOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status == "failed"]

    @property
    def cancelled_branches(self) -> List[BranchOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status == "cancelled"]

    @property
    def cancelled(self) -> bool:
        """True when the run was stopped cooperatively before finishing."""
        return bool(self.cancelled_branches)

    @property
    def complete(self) -> bool:
        """True when every branch produced results (none were lost)."""
        return not self.failed and not self.cancelled_branches

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: results via the checkpoint serializer (item values
        preserved, floats shortest-exact), outcomes, and a stats snapshot.

        This is the *only* sanctioned way to ship a report across a process
        or serialization boundary — job-status endpoints read this, never
        private fields.  Round-trips through :meth:`from_dict`.
        """
        return {
            "results": [serialize_result(result) for result in self.results],
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "stats": self.stats.snapshot(),
            "complete": self.complete,
            "cancelled": self.cancelled,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SupervisorReport":
        return cls(
            results=[deserialize_result(entry) for entry in payload["results"]],
            outcomes=[
                BranchOutcome.from_dict(entry) for entry in payload.get("outcomes", [])
            ],
            stats=MiningStats.from_snapshot(payload.get("stats", {})),
        )


# ----------------------------------------------------------------------
# worker entry points (module-level: ProcessPoolExecutor pickles by name)
# ----------------------------------------------------------------------
def _mine_one_branch(
    database: UncertainDatabase,
    config: MinerConfig,
    item: Item,
    extensions: Tuple[Item, ...],
    rank: int,
) -> Tuple[List[ProbabilisticFrequentClosedItemset], MiningStats]:
    """Mine one root branch under its derived seed (shared by pool + inline).

    The seed rule (``config.seed + rank``) matches
    :func:`repro.core.parallel.mine_pfci_parallel` and depends only on the
    rank — never on the attempt — so retries are bit-reproducible.
    """
    branch_config = config.variant(
        seed=None if config.seed is None else config.seed + rank
    )
    miner = MPFCIMiner(database, branch_config)
    results = miner.mine_branch(item, extensions)
    return results, miner.stats


def _supervised_branch_worker(
    database: UncertainDatabase,
    config: MinerConfig,
    item: Item,
    extensions: Tuple[Item, ...],
    rank: int,
    attempt: int,
    fault_plan: Optional[FaultPlan],
) -> Tuple[List[ProbabilisticFrequentClosedItemset], MiningStats]:
    """Pool worker: apply any scripted fault, then mine the branch."""
    if fault_plan is not None:
        fault_plan.apply(rank, attempt)
    return _mine_one_branch(database, config, item, extensions, rank)


# ----------------------------------------------------------------------
# pool lifecycle helpers
# ----------------------------------------------------------------------
# How often a pool worker checks that the process that started it is alive.
_ORPHAN_POLL_SECONDS = 0.5


def _exit_when_orphaned(parent: int) -> None:
    """Exit the worker once ``parent`` is gone (the worker was reparented)."""
    while os.getppid() == parent:
        time.sleep(_ORPHAN_POLL_SECONDS)
    os._exit(1)


def _worker_process_init() -> None:
    """Pool-worker initializer: shed the host's signal plumbing, die with it.

    Fork-started workers inherit the parent's signal handlers *and* its
    ``signal.set_wakeup_fd`` pipe.  When the parent is an asyncio host
    (e.g. the mining service), a ``terminate()`` delivered to a worker
    would fire the inherited handler, which writes the signal number into
    the *shared* wakeup pipe — and the parent's event loop reads it as if
    the host itself had been signalled.  Resetting to the default
    disposition (and detaching the wakeup fd) keeps worker lifecycle
    signals inside the worker.

    A parent killed with SIGKILL never terminates its pool, so each worker
    also runs a daemon watcher that exits the worker once its parent is
    gone, instead of leaving it running reparented.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread or closed fd: nothing to shed
        pass
    threading.Thread(
        target=_exit_when_orphaned,
        args=(os.getppid(),),
        name="orphan-watch",
        daemon=True,
    ).start()


def _new_pool(processes: Optional[int]) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=processes, initializer=_worker_process_init
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool, killing hung workers.

    ``ProcessPoolExecutor`` has no public way to cancel a *running* task, so
    a hung worker would otherwise block ``shutdown`` forever.  Terminating
    the worker processes (private ``_processes``, guarded for absence)
    breaks the pool immediately; the subsequent ``shutdown`` then returns.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# the supervisor
# ----------------------------------------------------------------------
class _Supervision:
    """One supervised run's mutable state and recovery loop."""

    def __init__(
        self,
        database: UncertainDatabase,
        config: MinerConfig,
        tasks: List[BranchTask],
        processes: Optional[int],
        supervisor: SupervisorConfig,
        fault_plan: Optional[FaultPlan],
        writer: Optional[CheckpointWriter],
        merged: MiningStats,
        cancel_event: Optional[threading.Event] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        self.writer = writer
        self.merged = merged
        self.cancel_event = cancel_event
        self.processes = processes
        self.pending: Dict[int, BranchTask] = {task.rank: task for task in tasks}
        self.attempts: Dict[int, int] = {task.rank: 0 for task in tasks}
        self.results: List[ProbabilisticFrequentClosedItemset] = []
        self.outcomes: Dict[int, BranchOutcome] = {}

    # -- branch completion paths ---------------------------------------
    def _record_success(
        self,
        task: BranchTask,
        branch_results: List[ProbabilisticFrequentClosedItemset],
        branch_stats: MiningStats,
        status: str,
    ) -> None:
        if self.writer is not None:
            # Checkpoint *before* keeping the results: a branch whose record
            # could not be made durable (disk full, read-only volume) is a
            # failed branch — counting it as completed would let a resumed
            # run silently lose it.  The writer is retired after the first
            # failure; the durable prefix on disk stays resumable, later
            # branches complete uncheckpointed, and the run reports >= 1
            # failed branch so the job ends failed instead of hanging.
            try:
                self.writer.write_branch(
                    task.rank, task.item, branch_results, branch_stats
                )
            except CheckpointError as error:
                self.writer = None
                self._record_failure(task, error)
                return
            self.merged.checkpoint_branches_written += 1
        self.pending.pop(task.rank, None)
        self.results.extend(branch_results)
        self.merged.merge(branch_stats)
        self.outcomes[task.rank] = BranchOutcome(
            rank=task.rank,
            item=task.item,
            status=status,
            attempts=self.attempts[task.rank] + 1,
        )

    def _record_failure(self, task: BranchTask, error: BaseException) -> None:
        self.pending.pop(task.rank, None)
        self.merged.branches_failed += 1
        self.outcomes[task.rank] = BranchOutcome(
            rank=task.rank,
            item=task.item,
            status="failed",
            attempts=self.attempts[task.rank],
            error=f"{type(error).__name__}: {error}",
        )
        logger.error(
            "branch %d (%r) failed after %d attempt(s): %s",
            task.rank, task.item, self.attempts[task.rank], error,
        )
        if self.supervisor.fail_fast:
            raise BranchFailedError(
                f"branch {task.rank} ({task.item!r}) failed after "
                f"{self.attempts[task.rank]} attempt(s): {error}"
            ) from error

    def _cancelled(self) -> bool:
        return self.cancel_event is not None and self.cancel_event.is_set()

    def _record_cancellation(self) -> None:
        """Resolve every still-pending branch as cancelled, durably.

        The checkpoint gets one ``cancelled`` record naming the abandoned
        ranks, so the file can never be mistaken for a merely *interrupted*
        run: resume refuses it, and a service restart will not resurrect —
        or cache the eventual results of — deliberately killed work.
        """
        ranks = sorted(self.pending)
        for rank in ranks:
            task = self.pending.pop(rank)
            self.merged.branches_cancelled += 1
            self.outcomes[rank] = BranchOutcome(
                rank=rank,
                item=task.item,
                status="cancelled",
                attempts=self.attempts[rank],
            )
        logger.info("run cancelled with %d branch(es) unfinished", len(ranks))
        if self.writer is not None and ranks:
            self.writer.write_cancelled(ranks)

    def _charge_attempt(self, rank: int) -> None:
        """Consume one attempt; count the retry if the branch stays eligible."""
        self.attempts[rank] += 1
        if self.attempts[rank] <= self.supervisor.max_retries:
            self.merged.branch_retries += 1

    def _resolve_exhausted(self) -> None:
        """Inline-execute (or fail) every branch that is out of pool retries."""
        for rank in sorted(self.pending):
            if self._cancelled():
                return
            if self.attempts[rank] <= self.supervisor.max_retries:
                continue
            task = self.pending[rank]
            if not self.supervisor.inline_fallback:
                self._record_failure(
                    task,
                    RuntimeError("retry budget exhausted (inline fallback disabled)"),
                )
                continue
            logger.warning(
                "branch %d (%r): retry budget exhausted, running inline",
                rank, task.item,
            )
            try:
                if self.fault_plan is not None:
                    self.fault_plan.apply(rank, self.attempts[rank], inline=True)
                branch_results, branch_stats = _mine_one_branch(
                    self.database, self.config, task.item, task.extensions, rank
                )
            except BaseException as error:  # noqa: BLE001 - reported, not hidden
                if isinstance(error, (KeyboardInterrupt, SystemExit, BranchFailedError)):
                    raise
                self._record_failure(task, error)
            else:
                self.merged.branches_recovered_inline += 1
                self._record_success(task, branch_results, branch_stats, "recovered-inline")

    # -- the dispatch loop ---------------------------------------------
    def run(self) -> None:
        if not self.pending:
            return
        if self._cancelled():
            self._record_cancellation()
            return
        pool = _new_pool(self.processes)
        try:
            while self.pending:
                self._resolve_exhausted()
                if not self.pending or self._cancelled():
                    break
                pool = self._run_round(pool)
            if self._cancelled() and self.pending:
                self._record_cancellation()
        finally:
            _terminate_pool(pool)

    def _run_round(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Dispatch every pending branch once; handle one failure wave.

        Returns the pool to use next round (a fresh one after breakage or a
        timeout kill).
        """
        supervisor = self.supervisor
        backoff = max(
            (supervisor.backoff_seconds(self.attempts[rank]) for rank in self.pending),
            default=0.0,
        )
        if backoff > 0.0:
            time.sleep(backoff)

        futures: Dict[Future, BranchTask] = {}
        deadlines: Dict[Future, float] = {}
        for rank in sorted(self.pending):
            task = self.pending[rank]
            future = pool.submit(
                _supervised_branch_worker,
                self.database,
                self.config,
                task.item,
                task.extensions,
                rank,
                self.attempts[rank],
                self.fault_plan,
            )
            self.merged.branches_dispatched += 1
            futures[future] = task

        pool_broken = False
        timeout_kill = False
        while futures:
            done, _ = wait(
                set(futures),
                timeout=supervisor.poll_interval_seconds,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                task = futures.pop(future)
                deadlines.pop(future, None)
                try:
                    branch_results, branch_stats = future.result()
                except BrokenExecutor:
                    # The pool is poisoned; every in-flight future is lost
                    # and none of them can be blamed individually.  This
                    # branch is charged here, the still-pending ones below.
                    pool_broken = True
                    self._charge_attempt(task.rank)
                except Exception as error:  # clean per-branch failure
                    self._charge_attempt(task.rank)
                    logger.warning(
                        "branch %d (%r) attempt %d raised: %s",
                        task.rank, task.item, self.attempts[task.rank], error,
                    )
                    if (
                        self.attempts[task.rank] > supervisor.max_retries
                        and not supervisor.inline_fallback
                    ):
                        self._record_failure(task, error)
                else:
                    self._record_success(task, branch_results, branch_stats, "completed")
            if pool_broken:
                break

            if self._cancelled():
                # Cooperative cancel: keep everything that finished before
                # the signal (already recorded and checkpointed above), kill
                # the in-flight workers, and leave their branches pending for
                # run() to resolve as cancelled.  Nothing is charged an
                # attempt — cancellation is not a failure.
                _terminate_pool(pool)
                return pool

            if supervisor.branch_timeout_seconds is None:
                continue

            # Deadline sweep: a branch's clock starts when it begins
            # running on a worker, so queued branches never time out while
            # they wait for a slot.  Any overdue branch means a hung worker
            # that only a pool kill can dislodge.
            now = time.monotonic()
            for future in futures:
                if future not in deadlines and future.running():
                    deadlines[future] = now + supervisor.branch_timeout_seconds
            overdue = [
                future for future, deadline in deadlines.items() if now > deadline
            ]
            if overdue:
                for future in overdue:
                    task = futures.pop(future)
                    deadlines.pop(future, None)
                    self.merged.branch_timeouts += 1
                    self._charge_attempt(task.rank)
                    logger.warning(
                        "branch %d (%r) attempt %d timed out after %.3fs",
                        task.rank, task.item, self.attempts[task.rank],
                        supervisor.branch_timeout_seconds,
                    )
                pool_broken = True
                timeout_kill = True
                break

        if pool_broken:
            for future, task in futures.items():
                if timeout_kill:
                    # The kill is attributable to the timed-out branch(es),
                    # already charged above; everything else in flight is
                    # collateral and keeps its full retry budget.
                    self.merged.branch_collateral_restarts += 1
                else:
                    # Unattributable breakage (BrokenProcessPool): no single
                    # branch can be blamed, so every in-flight branch is
                    # charged one attempt.
                    self._charge_attempt(task.rank)
            _terminate_pool(pool)
            self.merged.pool_rebuilds += 1
            return _new_pool(self.processes)
        return pool


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def run_supervised(
    database: UncertainDatabase,
    config: MinerConfig,
    processes: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_path: Optional[PathLike] = None,
    resume_from_checkpoint: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    live_stats: Optional[MiningStats] = None,
    cancel_event: Optional[threading.Event] = None,
    plan: Optional[List[BranchTask]] = None,
    fingerprint_override: Optional[Dict[str, Any]] = None,
) -> SupervisorReport:
    """Mine under supervision and return the full :class:`SupervisorReport`.

    Args:
        database / config / processes: as :func:`mine_pfci_parallel`.
        supervisor: recovery policy (defaults to :class:`SupervisorConfig`).
        checkpoint_path: when set, append every completed branch to this
            JSONL checkpoint.  Without ``resume_from_checkpoint``, a path
            that already holds a checkpoint is refused
            (:class:`~repro.runtime.checkpoint.CheckpointError`) instead of
            silently truncated.
        resume_from_checkpoint: load ``checkpoint_path`` first, validate its
            config fingerprint against (database, config), skip the branches
            it already holds, and keep appending to the same file.  A
            checkpoint carrying a cancellation record is refused
            (:class:`~repro.runtime.checkpoint.CheckpointCancelledError`).
        fault_plan: deterministic fault injection (tests only).
        live_stats: when provided, used as the run's merged-counter
            accumulator *in place* — another thread can watch progress via
            ``live_stats.snapshot()`` while the run executes (this is how
            the service's job-status endpoint streams counters).  The same
            object is returned as ``report.stats``.
        cancel_event: cooperative cancellation.  When set (any thread), the
            run keeps every branch that already finished, kills in-flight
            workers, resolves the rest as ``"cancelled"`` outcomes, and
            durably marks the checkpoint cancelled so it cannot be resumed.
        plan: precomputed root-branch decomposition.  When provided,
            :func:`~repro.core.parallel.plan_root_branches` is skipped and
            the caller owns the planner's candidate-phase stats — this is
            how the sharded runtime reuses the supervisor after computing
            the candidate screen from per-shard scans.
        fingerprint_override: checkpoint identity to use instead of
            ``config_fingerprint(database, config)`` — the sharded runtime
            extends the fingerprint with shard layout and loss policy so a
            sharded checkpoint can never be resumed unsharded (or vice
            versa).
    """
    supervisor = supervisor or SupervisorConfig()
    started = time.perf_counter()
    if plan is None:
        tasks, planner_stats = plan_root_branches(database, config)
    else:
        tasks, planner_stats = list(plan), MiningStats()

    merged = live_stats if live_stats is not None else MiningStats()
    merged.merge(planner_stats)

    writer: Optional[CheckpointWriter] = None
    completed: Dict[int, BranchOutcome] = {}
    recovered_results: List[ProbabilisticFrequentClosedItemset] = []
    remaining = tasks
    if checkpoint_path is not None:
        fingerprint = (
            fingerprint_override
            if fingerprint_override is not None
            else config_fingerprint(database, config)
        )
        if resume_from_checkpoint:
            checkpoint = load_checkpoint(checkpoint_path)
            if checkpoint.cancelled:
                raise CheckpointCancelledError(
                    f"{checkpoint_path}: this run was cancelled with "
                    f"{len(checkpoint.cancelled_ranks)} branch(es) abandoned; "
                    "a cancelled checkpoint cannot be resumed — delete the "
                    "file and start a fresh run"
                )
            validate_fingerprint(checkpoint.fingerprint, fingerprint, checkpoint_path)
            known_ranks = {task.rank for task in tasks}
            for rank, record in sorted(checkpoint.branches.items()):
                if rank not in known_ranks:
                    raise CheckpointError(
                        f"{checkpoint_path}: checkpoint holds branch {rank} but "
                        f"this run only plans {len(tasks)} branches"
                    )
                recovered_results.extend(record.results)
                merged.merge(record.stats)
                merged.checkpoint_branches_skipped += 1
                completed[rank] = BranchOutcome(
                    rank=rank, item=record.item, status="checkpointed", attempts=0
                )
            remaining = [task for task in tasks if task.rank not in completed]
            writer = CheckpointWriter(
                checkpoint_path,
                fingerprint,
                fresh=False,
                truncate_to=checkpoint.valid_bytes,
            )
        else:
            if has_checkpoint_header(checkpoint_path):
                raise CheckpointError(
                    f"{checkpoint_path}: already holds a checkpoint; resume "
                    "from it (CLI: --resume) or delete the file to start over"
                )
            writer = CheckpointWriter(checkpoint_path, fingerprint, fresh=True)

    supervision = _Supervision(
        database=database,
        config=config,
        tasks=remaining,
        processes=processes,
        supervisor=supervisor,
        fault_plan=fault_plan,
        writer=writer,
        merged=merged,
        cancel_event=cancel_event,
    )
    supervision.results.extend(recovered_results)
    supervision.outcomes.update(completed)
    try:
        supervision.run()
    finally:
        if writer is not None:
            writer.close()

    results = sorted(
        supervision.results,
        key=lambda result: (len(result.itemset), result.itemset),
    )
    merged.elapsed_seconds = time.perf_counter() - started
    outcomes = [supervision.outcomes[rank] for rank in sorted(supervision.outcomes)]
    return SupervisorReport(results=results, outcomes=outcomes, stats=merged)


def mine_pfci_supervised(
    database: UncertainDatabase,
    config: MinerConfig,
    processes: Optional[int] = None,
    stats: Optional[MiningStats] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_path: Optional[PathLike] = None,
    resume_from_checkpoint: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    cancel_event: Optional[threading.Event] = None,
) -> List[ProbabilisticFrequentClosedItemset]:
    """Drop-in, fault-tolerant counterpart of :func:`mine_pfci_parallel`.

    Same signature conventions (``stats`` accumulates the merged run
    counters; the return value matches :meth:`MPFCIMiner.mine`'s ordering),
    plus the supervision keywords of :func:`run_supervised`.
    """
    report = run_supervised(
        database,
        config,
        processes=processes,
        supervisor=supervisor,
        checkpoint_path=checkpoint_path,
        resume_from_checkpoint=resume_from_checkpoint,
        fault_plan=fault_plan,
        cancel_event=cancel_event,
    )
    if stats is not None:
        stats.merge(report.stats)
        stats.elapsed_seconds = report.stats.elapsed_seconds
    return report.results


def resume(
    database: UncertainDatabase,
    config: MinerConfig,
    checkpoint_path: PathLike,
    processes: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SupervisorReport:
    """Continue an interrupted run from its checkpoint.

    Validates the checkpoint's config fingerprint against ``(database,
    config)`` — a mismatch raises
    :class:`~repro.runtime.checkpoint.CheckpointMismatchError` — then mines
    only the branches the checkpoint does not already hold, appending new
    completions to the same file.
    """
    return run_supervised(
        database,
        config,
        processes=processes,
        supervisor=supervisor,
        checkpoint_path=checkpoint_path,
        resume_from_checkpoint=True,
        fault_plan=fault_plan,
    )
