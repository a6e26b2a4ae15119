"""Worker supervision for the multi-process comm backend.

The ``proc`` backend (:mod:`repro.distributed.proc_backend`) runs one
worker process per rank; this module owns everything about *keeping those
processes honest*:

* :class:`ControlBlock` — a small ``shared_memory`` segment mapping the
  coordination state every participant needs: per-rank heartbeat
  timestamps, barrier arrival counters, the live-rank mask, the abort
  generation (bumped by the driver to cancel an in-flight collective),
  the membership epoch (bumped on eviction), and per-rank injected-delay
  slots for the ``slow`` chaos fault.
* :class:`HeartbeatMonitor` — the deadline-based failure detector: a
  rank whose heartbeat is older than ``deadline`` seconds is declared
  dead (covers SIGKILL *and* SIGSTOP/wedged processes, which keep their
  process object alive but stop beating).
* :class:`WorkerHandle` / :class:`Supervisor` — spawn, message, abort,
  drain, kill, and gracefully shut down the worker fleet.  The
  supervisor classifies collective failures into the typed errors the
  DDP layer understands: :class:`repro.faults.RankDeadError` (permanent
  → elastic eviction) vs :class:`repro.faults.CommTimeoutError`
  (transient → retry with backoff).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..faults import CommTimeoutError, RankDeadError
from ..obs import get_metrics, get_tracer

__all__ = [
    "ControlBlock",
    "HeartbeatMonitor",
    "WorkerHandle",
    "Supervisor",
    "attach_shared_memory",
    "record_supervisor_event",
]

#: Indices into :attr:`ControlBlock.flags`.
FLAG_ABORT = 0
FLAG_EPOCH = 1


def record_supervisor_event(name: str, **attrs: Any) -> None:
    """Emit a supervision event into the installed telemetry (if any).

    Every failure-detector decision (stale heartbeat, rank death,
    collective timeout, abort/drain, eviction, resync broadcast) lands
    twice: as an instantaneous tracer event named
    ``comm.supervisor.<name>`` — visible at the exact timestamp in the
    merged trace next to the per-rank lanes — and as a
    ``comm.supervisor.<name>`` counter, so live ``/metrics`` scrapes and
    post-run snapshots can alert on supervision activity.  No-op when
    telemetry is not installed.
    """
    get_tracer().event(f"comm.supervisor.{name}", category="supervisor", **attrs)
    get_metrics().counter(f"comm.supervisor.{name}").add(1)


def attach_shared_memory(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* resource-tracker tracking.

    Workers only ever attach to segments the driver created and will
    unlink.  Letting the worker's resource tracker register them too
    triggers spurious "leaked shared_memory" cleanup at exit (bpo-38119);
    Python 3.13 added ``track=False`` for exactly this, which we use when
    available and emulate otherwise.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class ControlBlock:
    """Shared coordination state for ``world0`` ranks.

    Layout (all 8-byte aligned, fixed at creation):

    ========== ======== =======================================================
    field      dtype    meaning
    ========== ======== =======================================================
    heartbeats float64  per-rank ``time.monotonic()`` of the last beat
    slow       float64  per-rank injected pre-collective delay [s] (chaos)
    arrive     int64    per-rank highest barrier sequence reached (monotonic)
    live       int64    per-rank liveness mask (1 = live, 0 = evicted)
    flags      int64[2] ``[abort generation, membership epoch]``
    ========== ======== =======================================================

    Plain aligned 8-byte loads/stores are used for cross-process
    signalling; barrier waits poll ``arrive`` with a deadline rather than
    blocking on OS primitives, so an abort or a dead neighbour can never
    wedge a survivor forever.
    """

    def __init__(self, shm: shared_memory.SharedMemory, world0: int, owner: bool):
        self._shm = shm
        self._owner = owner
        self.world0 = world0
        self.name = shm.name
        p = world0
        self.heartbeats = np.ndarray((p,), dtype=np.float64, buffer=shm.buf, offset=0)
        self.slow = np.ndarray((p,), dtype=np.float64, buffer=shm.buf, offset=8 * p)
        self.arrive = np.ndarray((p,), dtype=np.int64, buffer=shm.buf, offset=16 * p)
        self.live = np.ndarray((p,), dtype=np.int64, buffer=shm.buf, offset=24 * p)
        self.flags = np.ndarray((2,), dtype=np.int64, buffer=shm.buf, offset=32 * p)

    @classmethod
    def nbytes(cls, world0: int) -> int:
        return 8 * (4 * world0 + 2)

    @classmethod
    def create(cls, world0: int) -> "ControlBlock":
        shm = shared_memory.SharedMemory(create=True, size=cls.nbytes(world0))
        block = cls(shm, world0, owner=True)
        now = time.monotonic()
        block.heartbeats[:] = now  # freshly spawned ranks are not stale
        block.slow[:] = 0.0
        block.arrive[:] = 0
        block.live[:] = 1
        block.flags[:] = 0
        return block

    @classmethod
    def attach(cls, name: str, world0: int) -> "ControlBlock":
        return cls(attach_shared_memory(name), world0, owner=False)

    # ------------------------------------------------------------------
    def beat(self, rank: int) -> None:
        self.heartbeats[rank] = time.monotonic()

    def bump_abort(self) -> int:
        self.flags[FLAG_ABORT] += 1
        return int(self.flags[FLAG_ABORT])

    @property
    def abort_generation(self) -> int:
        return int(self.flags[FLAG_ABORT])

    def bump_epoch(self) -> int:
        """Advance the membership epoch (called on every eviction)."""
        self.flags[FLAG_EPOCH] += 1
        return int(self.flags[FLAG_EPOCH])

    @property
    def epoch(self) -> int:
        return int(self.flags[FLAG_EPOCH])

    def close(self) -> None:
        # numpy views hold pointers into shm.buf; release them before
        # closing or SharedMemory.close() raises BufferError
        self.heartbeats = self.slow = self.arrive = self.live = self.flags = None
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


@dataclass
class HeartbeatMonitor:
    """Deadline-based failure detector over the control block."""

    control: ControlBlock
    deadline: float

    def is_stale(self, rank: int, now: Optional[float] = None) -> bool:
        if now is None:
            now = time.monotonic()
        return (now - float(self.control.heartbeats[rank])) > self.deadline

    def stale_ranks(self, ranks: Iterable[int]) -> List[int]:
        now = time.monotonic()
        return [r for r in ranks if self.is_stale(r, now)]


@dataclass
class WorkerHandle:
    """One rank's worker process plus its command pipe."""

    rank: int
    process: Any  # multiprocessing.Process (context-specific class)
    conn: Any  # multiprocessing.connection.Connection

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()


class Supervisor:
    """Spawns and polices the per-rank worker fleet.

    The supervisor is deliberately mechanism-only: *when* to abort or
    evict is the communicator/DDP layer's decision; the supervisor
    detects failures, classifies them, and executes process-level actions
    (abort, drain, kill, graceful shutdown).
    """

    def __init__(
        self,
        control: ControlBlock,
        heartbeat_deadline: float,
        poll_interval: float = 0.005,
    ) -> None:
        self.control = control
        self.monitor = HeartbeatMonitor(control, heartbeat_deadline)
        self.poll_interval = poll_interval
        self.handles: Dict[int, WorkerHandle] = {}

    # -- lifecycle -----------------------------------------------------
    def spawn(self, ctx, target, ranks: Sequence[int], extra_args: tuple) -> None:
        """Start one worker per rank: ``target(rank, conn, *extra_args)``."""
        for rank in ranks:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=target,
                args=(rank, child_conn) + tuple(extra_args),
                daemon=True,
                name=f"repro-comm-rank{rank}",
            )
            proc.start()
            child_conn.close()
            self.handles[rank] = WorkerHandle(rank=rank, process=proc, conn=parent_conn)

    def wait_ready(self, ranks: Sequence[int], timeout: float) -> None:
        """Block until every worker has attached and reported ready."""
        deadline = time.monotonic() + timeout
        for rank in ranks:
            handle = self.handles[rank]
            remaining = max(deadline - time.monotonic(), 0.0)
            if not handle.conn.poll(remaining):
                raise RankDeadError(
                    f"rank {rank} worker did not come up within {timeout}s",
                    rank=rank,
                )
            msg = handle.conn.recv()
            if msg.get("status") != "ready":  # pragma: no cover - defensive
                raise RankDeadError(
                    f"rank {rank} worker failed during startup: {msg}", rank=rank
                )

    # -- messaging -----------------------------------------------------
    def send(self, rank: int, message: dict) -> None:
        """Send a command; a broken pipe means the worker is already gone."""
        try:
            self.handles[rank].conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            record_supervisor_event("rank_death", rank=rank, cause="pipe_broken")
            raise RankDeadError(
                f"rank {rank} worker is gone (command pipe broken)", rank=rank
            ) from exc

    def gather(self, seq: int, ranks: Sequence[int], timeout: float) -> None:
        """Wait for every rank's ``ok`` response to collective ``seq``.

        Raises :class:`RankDeadError` as soon as a pending rank's process
        exits or its heartbeat goes stale past the deadline, and
        :class:`CommTimeoutError` when the collective overruns ``timeout``
        with all participants still apparently alive.  Responses from
        earlier (aborted) collectives are drained and discarded.
        """
        from multiprocessing.connection import wait as conn_wait

        pending = set(ranks)
        deadline = time.monotonic() + timeout
        while pending:
            conn_by_obj = {}
            objects = []
            for rank in pending:
                handle = self.handles[rank]
                conn_by_obj[handle.conn] = rank
                conn_by_obj[handle.process.sentinel] = rank
                objects.append(handle.conn)
                objects.append(handle.process.sentinel)
            ready = conn_wait(objects, timeout=self.poll_interval)
            for obj in ready:
                rank = conn_by_obj[obj]
                if rank not in pending:
                    continue
                handle = self.handles[rank]
                if obj is handle.conn:
                    try:
                        msg = handle.conn.recv()
                    except (EOFError, OSError):
                        record_supervisor_event("rank_death", rank=rank, seq=seq,
                                                cause="pipe_eof")
                        raise RankDeadError(
                            f"rank {rank} worker closed its pipe mid-collective",
                            rank=rank,
                        )
                    if msg.get("seq") != seq:
                        continue  # stale response from an aborted collective
                    status = msg.get("status")
                    if status == "ok":
                        pending.discard(rank)
                    elif status == "aborted":
                        # the worker's own barrier deadline expired —
                        # usually because a neighbour stopped participating.
                        # Blame a dead/stale rank when there is one, else
                        # report a (transient) timeout.
                        dead = [r for r in ranks if not self.handles[r].is_alive()]
                        stale = self.monitor.stale_ranks(
                            r for r in ranks if r != rank
                        )
                        culprit = (dead or stale or [None])[0]
                        if culprit is not None:
                            record_supervisor_event(
                                "rank_death", rank=culprit, seq=seq,
                                cause="dead_process" if dead else "stale_heartbeat",
                            )
                            raise RankDeadError(
                                f"rank {culprit} stopped participating in "
                                f"collective {seq} (rank {rank} aborted its "
                                "barrier wait)",
                                rank=culprit,
                            )
                        record_supervisor_event(
                            "collective_timeout", rank=rank, seq=seq,
                            cause="worker_barrier_deadline",
                        )
                        raise CommTimeoutError(
                            f"rank {rank} aborted collective {seq} after its "
                            "barrier deadline",
                            rank=rank,
                        )
                    else:
                        record_supervisor_event("rank_death", rank=rank, seq=seq,
                                                cause="worker_error")
                        raise RankDeadError(
                            f"rank {rank} worker failed in collective {seq}: "
                            f"{msg.get('error', status)}",
                            rank=rank,
                        )
                else:  # sentinel: the process exited
                    record_supervisor_event("rank_death", rank=rank, seq=seq,
                                            cause="process_exit")
                    raise RankDeadError(
                        f"rank {rank} worker process died mid-collective "
                        f"(exitcode {handle.process.exitcode})",
                        rank=rank,
                    )
            stale = self.monitor.stale_ranks(pending)
            if stale:
                record_supervisor_event("stale_heartbeat", rank=stale[0], seq=seq)
                raise RankDeadError(
                    f"rank {stale[0]} heartbeat silent for more than "
                    f"{self.monitor.deadline}s (hung or wedged worker)",
                    rank=stale[0],
                )
            if time.monotonic() > deadline:
                slowest = min(pending)
                record_supervisor_event(
                    "collective_timeout", rank=slowest, seq=seq,
                    cause="driver_deadline",
                )
                raise CommTimeoutError(
                    f"collective {seq} timed out after {timeout}s waiting on "
                    f"rank(s) {sorted(pending)}",
                    rank=slowest,
                )

    # -- failure handling ----------------------------------------------
    def abort_and_drain(
        self, seq: int, ranks: Sequence[int], exclude: Sequence[int], timeout: float
    ) -> None:
        """Cancel an in-flight collective and wait for survivors to bail.

        Bumps the abort generation (waking workers parked in barrier
        loops), then collects one response per surviving rank so no
        worker is still touching its buffers when the caller retries.
        Ranks in ``exclude`` (the dead) are not waited for.
        """
        record_supervisor_event(
            "abort_drain", seq=seq, excluded=list(exclude)
        )
        self.control.bump_abort()
        deadline = time.monotonic() + timeout
        for rank in ranks:
            if rank in exclude:
                continue
            handle = self.handles[rank]
            while time.monotonic() < deadline:
                if handle.conn.poll(self.poll_interval):
                    try:
                        msg = handle.conn.recv()
                    except (EOFError, OSError):
                        break  # died while draining; eviction will follow
                    if msg.get("seq") == seq:
                        break  # ok or aborted — either way it is out
                elif not handle.is_alive():
                    break

    def kill(self, rank: int) -> None:
        """Forcibly terminate a rank's worker (idempotent).

        SIGKILL rather than terminate(): the target may be SIGSTOPped
        (the ``hang`` chaos fault), and only SIGKILL removes a stopped
        process.
        """
        handle = self.handles.get(rank)
        if handle is None:
            return
        if handle.process.pid is not None and handle.is_alive():
            try:
                os.kill(handle.process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def shutdown(self, ranks: Sequence[int], timeout: float = 5.0) -> None:
        """Graceful drain: ask workers to exit, escalate to SIGKILL."""
        for rank in ranks:
            handle = self.handles.get(rank)
            if handle is None or not handle.is_alive():
                continue
            try:
                handle.conn.send({"op": "shutdown"})
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for rank in ranks:
            handle = self.handles.get(rank)
            if handle is None:
                continue
            handle.process.join(timeout=max(deadline - time.monotonic(), 0.1))
        for rank in ranks:
            self.kill(rank)
