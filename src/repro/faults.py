"""Deterministic fault injection and recovery policies.

Production training runs fail: a NIC drops a collective, a node dies, a
checkpoint write is cut short.  This module makes those failures *first
class and reproducible* so the recovery paths in
:mod:`repro.distributed` and :mod:`repro.pipeline.trainers` can be
exercised in tests rather than discovered in outages — the same spirit
as the NaN-guard tests, extended to the communication and I/O layers.

Everything here is deterministic: faults fire at a chosen collective
call index (and rank), retry backoff runs on a simulated clock
(:class:`SimClock`) so no test ever sleeps wall-time, and the file
corrupters flip exactly the requested bit.

Components
----------
* :class:`CommError` — the typed failure raised by injected collective
  faults; carries the failing rank and whether the fault is transient.
* :class:`CommFault` / :class:`IOFault` / :class:`FaultPlan` — a
  deterministic schedule of failures, consulted by
  :class:`repro.distributed.SimCommunicator` (collectives) and the
  trainer checkpoint writer (I/O).
* :class:`NumericFault` — inject NaN into a planned training step's loss
  or gradients, so the stability watchdog's rollback path
  (:mod:`repro.guard.watchdog`) is reproducibly testable.
* :class:`StageFault` / :class:`StageError` — fail a planned invocation
  of a named serving stage, exercising the circuit breaker
  (:mod:`repro.guard.breaker`).
* :class:`DiskFault` — physically corrupt an event-store shard (bit
  flip or truncation) just before its ``at_map``-th mmap, so the
  store's integrity checks (:class:`repro.store.StoreCorruptError`)
  are exercised against real on-disk damage.
* :class:`SimClock`, :class:`RetryPolicy`, :func:`call_with_retries` —
  retry-with-exponential-backoff for *transient* faults; exhaustion
  re-raises the original error.  :class:`WallClock` is the real-time
  implementation of the same ``now`` protocol.
* :func:`truncate_file`, :func:`flip_bit` — checkpoint corrupters for
  durability tests.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TypeVar

__all__ = [
    "CommError",
    "CommTimeoutError",
    "RankDeadError",
    "StageError",
    "CommFault",
    "IOFault",
    "NumericFault",
    "StageFault",
    "ProcessFault",
    "DiskFault",
    "FaultPlan",
    "SimClock",
    "WallClock",
    "RetryPolicy",
    "call_with_retries",
    "truncate_file",
    "flip_bit",
]

T = TypeVar("T")


class CommError(RuntimeError):
    """A collective failed.

    Parameters
    ----------
    rank:
        The global rank that failed (or ``None`` when unattributed).
    transient:
        ``True`` for faults a retry can clear (dropped packet, timeout);
        ``False`` for a permanently lost rank, which demands elastic
        recovery instead of a retry.
    """

    def __init__(self, message: str, rank: Optional[int] = None, transient: bool = True):
        super().__init__(message)
        self.rank = rank
        self.transient = transient


class CommTimeoutError(CommError):
    """A collective did not complete within its deadline.

    Raised by real communication backends (``ProcCommunicator``) when a
    collective times out while every participating worker still looks
    alive — the straggler may recover, so the error is *transient* and
    maps onto the existing retry path of
    :meth:`repro.distributed.DistributedDataParallel.synchronize_gradients`.
    """

    def __init__(self, message: str, rank: Optional[int] = None):
        super().__init__(message, rank=rank, transient=True)


class RankDeadError(CommError):
    """A rank's worker process is gone (crashed, killed, or heartbeat-dead).

    *Permanent* by construction: the failure detector only raises this
    once the process has exited or its heartbeat has been silent past the
    deadline, so the DDP layer responds with elastic eviction rather than
    a retry.
    """

    def __init__(self, message: str, rank: Optional[int] = None):
        super().__init__(message, rank=rank, transient=False)


@dataclass
class CommFault:
    """One scheduled collective failure.

    ``at_call`` counts *attempts* of the collective (0-based, including
    attempts that themselves failed), so a transient fault with
    ``times=2`` fails attempts ``at_call`` and ``at_call + 1`` and lets
    the third retry through.
    """

    at_call: int
    rank: int = 0
    transient: bool = True
    times: int = 1

    def should_fire(self, call_index: int) -> bool:
        if self.transient:
            return self.at_call <= call_index < self.at_call + self.times
        # a permanent fault keeps firing for its rank until the rank is
        # removed from the communicator (elastic recovery)
        return call_index >= self.at_call


@dataclass
class IOFault:
    """Fail the ``at_write``-th checkpoint write with an ``OSError``."""

    at_write: int
    times: int = 1
    message: str = "injected transient I/O error"

    def should_fire(self, write_index: int) -> bool:
        return self.at_write <= write_index < self.at_write + self.times


@dataclass
class NumericFault:
    """Corrupt the ``at_step``-th training step with NaN.

    ``at_step`` counts *forward/backward executions* (0-based, one per
    :meth:`repro.pipeline.trainers._Rank.step` call — with ``world_size`` P
    every optimisation step consumes P indices, one per rank).  The
    counter keeps advancing across watchdog rollbacks, so a step
    re-executed after a rollback consumes a *new* index and the fault
    does not re-fire — which is what makes recovery deterministic
    instead of an infinite divergence loop.

    ``target`` selects what is corrupted: ``"loss"`` overwrites the loss
    value with NaN before the finiteness check (the step fails before
    ``backward``); ``"grad"`` lets the step run and overwrites the first
    parameter gradient with NaN afterwards (caught by the watchdog's
    grad-norm probe, or poisoning the weights when no watchdog runs).
    """

    at_step: int
    target: str = "loss"
    times: int = 1

    def __post_init__(self) -> None:
        if self.target not in ("loss", "grad"):
            raise ValueError(f"unknown NumericFault target {self.target!r}")
        if self.at_step < 0 or self.times < 1:
            raise ValueError("at_step must be >= 0 and times >= 1")

    def should_fire(self, step_index: int) -> bool:
        return self.at_step <= step_index < self.at_step + self.times


_PROCESS_FAULT_KINDS = ("sigkill", "hang", "slow")


@dataclass
class ProcessFault:
    """Physically disturb a rank's *worker process* at a chosen collective.

    The chaos-harness counterpart of :class:`CommFault`: instead of
    raising an exception in the driver, the fault is *executed* against a
    live worker by the ``proc`` backend
    (:class:`repro.distributed.ProcCommunicator`) at the top of collective
    attempt ``at_call`` — the same 0-based attempt counter
    :meth:`FaultPlan.before_collective` advances, so a SIGKILL at
    ``at_call=N`` on the ``proc`` backend is the replayable twin of a
    permanent ``CommFault(at_call=N)`` on :class:`SimCommunicator`.

    Kinds
    -----
    ``"sigkill"``
        SIGKILL the worker — an OOM-killed / crashed node.  Detected by
        the supervisor via the process sentinel and surfaced as
        :class:`RankDeadError` (permanent → elastic eviction).
    ``"hang"``
        SIGSTOP the worker — a wedged process.  Its heartbeat goes silent,
        the deadline detector fires, and the rank is evicted exactly like
        a crash (the supervisor SIGKILLs the stopped process on eviction).
    ``"slow"``
        Inject ``duration`` seconds of pre-collective delay into the
        worker (a straggler).  The collective completes late; if it blows
        the collective timeout the driver sees a *transient*
        :class:`CommTimeoutError` and retries.
    """

    at_call: int
    rank: int = 0
    kind: str = "sigkill"
    duration: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _PROCESS_FAULT_KINDS:
            raise ValueError(
                f"unknown ProcessFault kind {self.kind!r}; "
                f"choose from {_PROCESS_FAULT_KINDS}"
            )
        if self.at_call < 0 or self.times < 1:
            raise ValueError("at_call must be >= 0 and times >= 1")
        if self.kind == "slow" and self.duration <= 0:
            raise ValueError("slow faults need a positive duration")

    def should_fire(self, call_index: int) -> bool:
        if self.kind == "slow":
            return self.at_call <= call_index < self.at_call + self.times
        # sigkill / hang are one-shot: the process does not come back
        return call_index == self.at_call


class StageError(RuntimeError):
    """An injected serving-stage failure (see :class:`StageFault`)."""

    def __init__(self, message: str, stage: str = ""):
        super().__init__(message)
        self.stage = stage


@dataclass
class StageFault:
    """Fail the ``at_call``-th invocation of serving stage ``stage``.

    ``at_call`` counts *attempted* invocations of that stage (0-based).
    While the circuit breaker is open the stage is not attempted at all,
    so the counter does not advance — a schedule of ``times`` failures
    therefore outlasts the open period and can also fail the first
    half-open probe, which is exactly the recovery path worth testing.
    """

    stage: str
    at_call: int
    times: int = 1
    message: str = "injected stage failure"

    def should_fire(self, call_index: int) -> bool:
        return self.at_call <= call_index < self.at_call + self.times


_DISK_FAULT_MODES = ("flip", "truncate")


@dataclass
class DiskFault:
    """Physically corrupt an event-store shard before its ``at_map``-th mmap.

    ``at_map`` counts shard *map attempts* across the whole store
    (0-based, one per :meth:`repro.store.EventStore` shard mapping,
    including re-maps after an LRU eviction).  When the fault fires the
    shard file on disk is genuinely damaged — via :func:`flip_bit`
    (``mode="flip"``: silent media corruption, caught by checksum or
    bounds audits) or :func:`truncate_file` (``mode="truncate"``: a torn
    write / lost tail, caught at map time or when an array spec runs past
    the mapped bytes) — so the typed :class:`repro.store.StoreCorruptError`
    path is exercised against real bytes, not a mock.
    """

    at_map: int
    mode: str = "flip"
    byte_offset: int = 0
    bit: int = 0
    keep_bytes: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.mode not in _DISK_FAULT_MODES:
            raise ValueError(
                f"unknown DiskFault mode {self.mode!r}; choose from {_DISK_FAULT_MODES}"
            )
        if self.at_map < 0 or self.times < 1:
            raise ValueError("at_map must be >= 0 and times >= 1")
        if self.byte_offset < 0 or self.keep_bytes < 0:
            raise ValueError("byte_offset and keep_bytes must be >= 0")
        if not 0 <= self.bit < 8:
            raise ValueError("bit must be in [0, 8)")

    def should_fire(self, map_index: int) -> bool:
        return self.at_map <= map_index < self.at_map + self.times

    def corrupt(self, path: str) -> None:
        """Damage ``path`` in place according to ``mode``."""
        if self.mode == "truncate":
            truncate_file(path, self.keep_bytes)
        else:
            flip_bit(path, self.byte_offset, self.bit)


@dataclass
class FaultPlan:
    """A deterministic failure schedule shared by comm and I/O layers.

    The plan keeps its own attempt counters (one per injection point,
    advanced under one lock: concurrent callers draw distinct indices),
    so the same plan object must not be reused across training runs.
    """

    comm_faults: List[CommFault] = field(default_factory=list)
    io_faults: List[IOFault] = field(default_factory=list)
    numeric_faults: List[NumericFault] = field(default_factory=list)
    stage_faults: List[StageFault] = field(default_factory=list)
    process_faults: List[ProcessFault] = field(default_factory=list)
    disk_faults: List[DiskFault] = field(default_factory=list)
    _attempts: Dict[str, int] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def _next(self, point: str) -> int:
        """This attempt's 0-based index at injection ``point``; advances it."""
        with self._lock:
            index = self._attempts.get(point, 0)
            self._attempts[point] = index + 1
        return index

    # -- collectives ---------------------------------------------------
    def before_collective(
        self,
        active_ranks: List[int],
        process_fault_executor: Optional[Callable[[ProcessFault], None]] = None,
    ) -> None:
        """Raise :class:`CommError` if a fault is scheduled for this attempt.

        Called by the communicator at the top of every collective; the
        attempt counter advances whether or not a fault fires.  Permanent
        faults for ranks that have already been evicted are ignored.

        ``process_fault_executor`` is supplied by backends that own real
        worker processes (the ``proc`` backend): any scheduled
        :class:`ProcessFault` for a live rank is handed to it for physical
        execution (SIGKILL / SIGSTOP / delay injection) *before* the
        exception-style ``comm_faults`` are considered.  Backends without
        one must reject plans carrying process faults at construction.
        """
        index = self._next("collective")
        if process_fault_executor is not None:
            for pfault in self.process_faults:
                if pfault.should_fire(index) and pfault.rank in active_ranks:
                    process_fault_executor(pfault)
        for fault in self.comm_faults:
            if not fault.should_fire(index):
                continue
            if not fault.transient and fault.rank not in active_ranks:
                continue  # already evicted
            kind = "transient" if fault.transient else "permanent"
            raise CommError(
                f"injected {kind} collective failure on rank {fault.rank} "
                f"(attempt {index})",
                rank=fault.rank,
                transient=fault.transient,
            )

    # -- checkpoint I/O ------------------------------------------------
    def before_checkpoint_write(self, path: str) -> None:
        """Raise ``OSError`` if this checkpoint write is scheduled to fail."""
        index = self._next("checkpoint_write")
        for fault in self.io_faults:
            if fault.should_fire(index):
                raise OSError(f"{fault.message} (write {index} of {path!r})")

    # -- numeric training faults ---------------------------------------
    def numeric_fault_target(self) -> Optional[str]:
        """Advance the step counter; return ``"loss"``/``"grad"`` or None.

        Called by the trainer once per forward/backward execution; the
        first scheduled :class:`NumericFault` covering this index wins.
        """
        index = self._next("step")
        for fault in self.numeric_faults:
            if fault.should_fire(index):
                return fault.target
        return None

    # -- serving-stage faults ------------------------------------------
    def before_stage(self, stage: str) -> None:
        """Raise :class:`StageError` if this stage invocation should fail.

        The per-stage attempt counter advances whether or not a fault
        fires; invocations skipped by an open circuit breaker never
        reach this call and therefore do not advance it.
        """
        index = self._next(f"stage:{stage}")
        for fault in self.stage_faults:
            if fault.stage == stage and fault.should_fire(index):
                raise StageError(
                    f"{fault.message} (stage {stage!r}, attempt {index})",
                    stage=stage,
                )


    # -- event-store shard maps ----------------------------------------
    def before_shard_map(self, path: str) -> None:
        """Corrupt the shard at ``path`` if a disk fault covers this map.

        Called by :class:`repro.store.EventStore` immediately before a
        shard file is memory-mapped; the map counter advances whether or
        not a fault fires.  Unlike the exception-style faults above, a
        disk fault damages the file *on disk* and returns — the store's
        own integrity machinery is expected to detect the corruption and
        raise :class:`repro.store.StoreCorruptError`.
        """
        index = self._next("shard_map")
        for fault in self.disk_faults:
            if fault.should_fire(index):
                fault.corrupt(path)


class SimClock:
    """Deterministic clock: ``sleep`` advances time without waiting."""

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self.now += seconds


class WallClock:
    """The real clock in the :class:`SimClock` shape (``now`` in seconds).

    The default wherever a clock is injectable (serving engine, circuit
    breaker); a component handed a ``WallClock`` reads time, one handed
    a ``SimClock`` models it.
    """

    @property
    def now(self) -> float:
        return time.perf_counter()


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient faults.

    ``max_retries`` counts *retries*, so an operation is attempted at
    most ``max_retries + 1`` times; retry ``i`` (0-based) waits
    ``base_delay * multiplier**i`` simulated seconds, capped at
    ``max_delay`` when set.  Without the cap the exponential is unbounded
    — a long transient outage with a generous retry budget would back off
    for hours; production retry loops always clamp.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.multiplier <= 0:
            raise ValueError("base_delay must be >= 0 and multiplier > 0")
        if self.max_delay is not None and self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")

    def delay(self, retry_index: int) -> float:
        delay = self.base_delay * self.multiplier**retry_index
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay


def call_with_retries(
    fn: Callable[[], T],
    policy: RetryPolicy,
    clock: SimClock,
    retry_on: tuple = (CommError, OSError),
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
) -> T:
    """Run ``fn``, retrying transient failures with backoff.

    A :class:`CommError` with ``transient=False`` is never retried (it
    needs elastic recovery, not patience).  When the retry budget is
    exhausted the *original* error propagates unchanged, so callers and
    tests see the root cause rather than a retry wrapper's summary.
    """
    for attempt in range(policy.max_retries + 1):
        try:
            return fn()
        except retry_on as exc:
            if isinstance(exc, CommError) and not exc.transient:
                raise
            if attempt >= policy.max_retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            clock.sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# file corrupters (durability-test utilities)
# ----------------------------------------------------------------------
def truncate_file(path: str, keep_bytes: int) -> None:
    """Cut ``path`` down to its first ``keep_bytes`` bytes (torn write)."""
    size = os.path.getsize(path)
    if keep_bytes >= size:
        raise ValueError(f"keep_bytes={keep_bytes} >= file size {size}")
    with open(path, "r+b") as fh:
        fh.truncate(keep_bytes)


def flip_bit(path: str, byte_offset: int, bit: int = 0) -> None:
    """Flip one bit of ``path`` in place (silent media corruption)."""
    if not 0 <= bit < 8:
        raise ValueError("bit must be in [0, 8)")
    with open(path, "r+b") as fh:
        fh.seek(byte_offset)
        original = fh.read(1)
        if not original:
            raise ValueError(f"byte_offset {byte_offset} beyond end of {path!r}")
        fh.seek(byte_offset)
        fh.write(bytes([original[0] ^ (1 << bit)]))
