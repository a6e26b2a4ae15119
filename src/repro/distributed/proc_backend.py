"""Real multi-process communication backend (``--backend proc``).

One ``multiprocessing`` worker per rank executes its share of the
schedule of :mod:`repro.distributed.ring` over ``shared_memory``
segments with genuine inter-process barriers — so collectives run under
true parallelism, with real wall-clock, real crashes, and real
stragglers.  The backend is **bit-exact** with the in-process simulator
by construction: chunk boundaries, accumulation order, the float64
staging and the epilogue are the simulator's own code, so a seeded
``proc`` run reproduces a ``sim`` run to the last bit (the
elastic-recovery smoke suite, ``scripts/validate.py elastic``, depends
on this).

Crash tolerance
---------------
The driver never blocks indefinitely on a worker: every collective has a
deadline, every worker beats a heartbeat slot in the shared
:class:`~repro.distributed.supervisor.ControlBlock`, and the
:class:`~repro.distributed.supervisor.Supervisor` classifies failures:

* worker process exited (SIGKILL, crash) → process sentinel fires →
  :class:`repro.faults.RankDeadError` (permanent);
* worker wedged (SIGSTOP, livelock) → heartbeat silent past the deadline
  → :class:`RankDeadError` (permanent);
* collective overran its deadline with everyone still alive (straggler)
  → :class:`repro.faults.CommTimeoutError` (transient).

Both map onto the existing :class:`repro.faults.CommError`
transient/permanent split, so
:meth:`repro.distributed.DistributedDataParallel.synchronize_gradients`
retries or evicts without backend-specific code.  On eviction the driver
bumps the membership epoch, SIGKILLs the dead worker, shrinks the ring
to the survivors, and the DDP layer re-broadcasts parameters from the
lowest live rank (``requires_resync``).

Chaos harness
-------------
A :class:`repro.faults.FaultPlan` carrying
:class:`~repro.faults.ProcessFault` entries physically disturbs workers
at chosen collective attempts — SIGKILL, SIGSTOP ("hang"), or injected
delay ("slow") — using the same attempt counter as ``CommFault``, which
is what makes a proc-backend chaos run replayable on the simulator.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import signal
import threading
import time
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..faults import CommTimeoutError, ProcessFault, RankDeadError
from ..obs import RunTelemetry, get_metrics, get_telemetry, get_tracer, set_telemetry
from .backend import CommBackend
from .costmodel import CommCostModel, NVLINK_A100
from .ring import ring_barriers, ring_schedule, staged_allreduce
from .supervisor import (
    FLAG_ABORT,
    ControlBlock,
    Supervisor,
    attach_shared_memory,
    record_supervisor_event,
)

__all__ = ["ProcCommunicator"]


class _Aborted(Exception):
    """Internal: the in-flight collective was cancelled (or timed out)."""


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _segment_view(segments: Dict[str, shared_memory.SharedMemory], name: str):
    shm = segments.get(name)
    if shm is None:
        shm = attach_shared_memory(name)
        segments[name] = shm
    return shm


def _prune_segments(
    segments: Dict[str, shared_memory.SharedMemory], keep: Sequence[str]
) -> None:
    for name in list(segments):
        if name not in keep:
            try:
                segments[name].close()
            except (BufferError, OSError):  # pragma: no cover - defensive
                pass
            del segments[name]


def _barrier_wait(
    ctrl: ControlBlock,
    rank: int,
    seq: int,
    live: Sequence[int],
    abort0: int,
    timeout: float,
) -> None:
    """Arrive at barrier ``seq`` and wait for every live rank.

    Polls shared arrival counters (no OS primitives a dead neighbour
    could hold), refreshing this rank's heartbeat on every iteration,
    and bails out via :class:`_Aborted` on an abort-generation bump or
    deadline overrun — a survivor can never be wedged by a dead peer.
    """
    with get_tracer().span(
        "comm.worker.barrier_wait", category="comm.worker", seq=seq
    ) as span:
        ctrl.arrive[rank] = seq
        t0 = time.monotonic()
        deadline = t0 + timeout
        spins = 0
        try:
            while True:
                now = time.monotonic()
                ctrl.heartbeats[rank] = now
                arrived = True
                for r in live:
                    if ctrl.arrive[r] < seq:
                        arrived = False
                        break
                if arrived:
                    return
                if int(ctrl.flags[FLAG_ABORT]) != abort0:
                    raise _Aborted()
                if now > deadline:
                    raise _Aborted()
                spins += 1
                if spins > 2000:
                    time.sleep(5e-5)
        finally:
            span.set(spins=spins)
            get_metrics().histogram("comm.worker.barrier_wait_ms").observe(
                (time.monotonic() - t0) * 1e3
            )


def _consume_injected_delay(ctrl: ControlBlock, rank: int) -> None:
    """Apply (and clear) a pending ``slow`` chaos fault for this rank."""
    delay = float(ctrl.slow[rank])
    if delay > 0.0:
        ctrl.slow[rank] = 0.0
        time.sleep(delay)


def _check_abort(ctrl: ControlBlock, abort0: int) -> None:
    if int(ctrl.flags[FLAG_ABORT]) != abort0:
        raise _Aborted()


def _op_allreduce(ctrl: ControlBlock, rank: int, cmd: dict, segments: dict) -> None:
    """Worker's share of one ring all-reduce: this ring position's
    :func:`~repro.distributed.ring.ring_schedule`, each step on the
    float64 segments of this rank and its left neighbour, with a shared
    barrier wherever the schedule asks for one."""
    live: List[int] = cmd["live"]
    names: Dict[int, str] = cmd["names"]
    n: int = cmd["nelems"]

    tracer = get_tracer()
    pos = live.index(rank)
    mine = np.ndarray(
        (n,), np.float64, buffer=_segment_view(segments, names[rank]).buf
    )
    theirs = np.ndarray(
        (n,), np.float64, buffer=_segment_view(segments, names[live[pos - 1]]).buf
    )
    seq = cmd["seq0"]
    for step in ring_schedule(pos, len(live), n):
        if step.barrier:
            _barrier_wait(ctrl, rank, seq, live, cmd["abort0"], cmd["timeout"])
            seq += 1
        with tracer.span(
            "comm.worker.reduce" if step.reduce else "comm.worker.copy",
            category="comm.worker", step=step.step, chunk=step.chunk,
        ):
            step.run(mine, theirs)


def _op_broadcast(ctrl: ControlBlock, rank: int, cmd: dict, segments: dict) -> None:
    """Copy the root rank's raw bytes into this rank's segment."""
    names: Dict[int, str] = cmd["names"]
    nbytes: int = cmd["nbytes"]
    root: int = cmd["root"]
    if rank != root:
        dst = np.ndarray(
            (nbytes,), np.uint8, buffer=_segment_view(segments, names[rank]).buf
        )
        src = np.ndarray(
            (nbytes,), np.uint8, buffer=_segment_view(segments, names[root]).buf
        )
        with get_tracer().span("comm.worker.copy", category="comm.worker",
                               nbytes=nbytes):
            dst[:] = src
    _op_barrier(ctrl, rank, cmd, segments)  # nobody returns before all copied


def _op_barrier(ctrl: ControlBlock, rank: int, cmd: dict, segments: dict) -> None:
    _barrier_wait(
        ctrl, rank, cmd["seq0"], cmd["live"], cmd["abort0"], cmd["timeout"]
    )


#: The collectives a worker executes: op -> (handler, the command's size
#: field, echoed on the op span beside ``world_size``; ``None`` for an op
#: that moves no data).  ``ProcCommunicator._roundtrip`` sends these ops
#: and nothing else; ``shutdown`` / ``telemetry`` are control messages
#: answered by the command loop itself.
_WORKER_OPS = {
    "allreduce": (_op_allreduce, "nelems"),
    "broadcast": (_op_broadcast, "nbytes"),
    "barrier": (_op_barrier, None),
}


def _run_op(ctrl: ControlBlock, rank: int, cmd: dict, segments: dict) -> None:
    """One collective, worker side: the shared preamble (``comm.worker.<op>``
    span; inside it the injected ``slow`` delay, the abort check and the
    pruning of segments the driver has since replaced), then the handler."""
    op = cmd["op"]
    if op not in _WORKER_OPS:
        raise ValueError(f"unknown worker op {op!r}")
    handler, size_field = _WORKER_OPS[op]
    attrs = {"seq": cmd["seq"]}
    if size_field is not None:
        attrs[size_field] = cmd[size_field]
        attrs["world_size"] = len(cmd["live"])
    with get_tracer().span(f"comm.worker.{op}", category="comm.worker", **attrs):
        _consume_injected_delay(ctrl, rank)
        _check_abort(ctrl, cmd["abort0"])
        if "names" in cmd:
            _prune_segments(segments, list(cmd["names"].values()))
        handler(ctrl, rank, cmd, segments)


def _telemetry_payload(rank: int) -> Optional[dict]:
    """Drain this worker's span/metric buffers into a picklable delta."""
    telemetry = get_telemetry()
    if telemetry is None:
        return None
    spans, events = telemetry.tracer.drain_records()
    return {
        "rank": rank,
        "origin": telemetry.tracer.origin,
        "spans": spans,
        "events": events,
        "metrics": telemetry.metrics.drain_state(),
    }


def _worker_main(
    rank: int,
    conn,
    ctrl_name: str,
    world0: int,
    heartbeat_interval: float,
    trace: bool = False,
) -> None:
    """Per-rank worker: heartbeat + command loop (runs until shutdown).

    SIGTERM requests a graceful drain: the current command finishes and
    the loop exits at the next poll instead of mid-collective.

    With ``trace=True`` the worker installs its *own*
    :class:`~repro.obs.RunTelemetry` (the driver's inherited-via-fork
    install is cleared first — a forked copy of the driver's buffers
    would double-record and never reach the merged trace) and answers
    ``telemetry`` commands with drained span/metric deltas.
    """
    # Under the fork start method this process inherits the driver's
    # installed telemetry; always clear it so worker spans never land in
    # a dead copy of the driver's buffers.
    set_telemetry(None)
    if trace:
        set_telemetry(RunTelemetry(metadata={"rank": rank}))

    draining = {"flag": False}

    def _on_sigterm(signum, frame):  # pragma: no cover - signal path
        draining["flag"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    ctrl = ControlBlock.attach(ctrl_name, world0)
    segments: Dict[str, shared_memory.SharedMemory] = {}
    stop = threading.Event()

    def _beat() -> None:
        last = time.monotonic()
        while not stop.is_set():
            now = time.monotonic()
            ctrl.heartbeats[rank] = now
            metrics = get_metrics()
            metrics.counter("comm.worker.heartbeats").add(1)
            metrics.histogram("comm.worker.heartbeat_interval_ms").observe(
                (now - last) * 1e3
            )
            last = now
            stop.wait(heartbeat_interval)

    beater = threading.Thread(target=_beat, daemon=True, name=f"hb-rank{rank}")
    beater.start()
    try:
        conn.send({"status": "ready", "rank": rank})
        while not draining["flag"]:
            if not conn.poll(0.05):
                continue
            try:
                cmd = conn.recv()
            except (EOFError, OSError):
                break  # driver went away
            op = cmd.get("op")
            if op == "shutdown":
                break
            if op == "telemetry":
                status = {
                    "seq": cmd["seq"],
                    "status": "ok",
                    "rank": rank,
                    "telemetry": _telemetry_payload(rank),
                }
                try:
                    conn.send(status)
                except (BrokenPipeError, OSError):
                    break
                continue
            try:
                _run_op(ctrl, rank, cmd, segments)
                get_metrics().counter("comm.worker.collectives").add(1)
                status = {"seq": cmd["seq"], "status": "ok", "rank": rank}
            except _Aborted:
                get_tracer().event(
                    "comm.worker.aborted", category="comm.worker",
                    seq=cmd.get("seq"), op=op,
                )
                get_metrics().counter("comm.worker.aborts").add(1)
                status = {"seq": cmd["seq"], "status": "aborted", "rank": rank}
            except Exception as exc:  # surfaced as a rank failure driver-side
                status = {
                    "seq": cmd["seq"],
                    "status": "error",
                    "error": repr(exc),
                    "rank": rank,
                }
            try:
                conn.send(status)
            except (BrokenPipeError, OSError):
                break
    finally:
        stop.set()
        _prune_segments(segments, [])
        ctrl.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
class ProcCommunicator(CommBackend):
    """Driver for the multi-process ring backend.

    Parameters
    ----------
    world_size:
        Number of worker processes (one per rank).
    cost_model, algorithm:
        The α–β model is still charged per collective (``modeled_s``) so
        measured wall-clock can be validated against it; only the
        ``"ring"`` algorithm is implemented by the workers.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`.  ``comm_faults`` raise
        exactly as on the simulator; ``process_faults`` are *executed*
        against live workers (SIGKILL / SIGSTOP / injected delay).
    collective_timeout:
        Deadline per collective; overrun with all workers alive raises a
        transient :class:`~repro.faults.CommTimeoutError`.
    heartbeat_interval / heartbeat_deadline:
        Worker beat cadence and the failure detector's staleness bound;
        a silent rank raises a permanent
        :class:`~repro.faults.RankDeadError`.
    start_method:
        ``multiprocessing`` start method (default ``"fork"`` where
        available — workers need no re-import — else ``"spawn"``).
    """

    requires_resync = True
    measured_backend = "proc"

    def __init__(
        self,
        world_size: int,
        cost_model: CommCostModel = NVLINK_A100,
        algorithm: str = "ring",
        fault_plan=None,
        collective_timeout: float = 30.0,
        heartbeat_interval: float = 0.05,
        heartbeat_deadline: float = 2.0,
        start_method: Optional[str] = None,
        startup_timeout: float = 30.0,
    ) -> None:
        if algorithm != "ring":
            raise ValueError(
                "the proc backend implements the ring algorithm only "
                f"(got {algorithm!r}); use the sim backend for others"
            )
        if collective_timeout <= 0 or heartbeat_deadline <= 0:
            raise ValueError("timeouts must be positive")
        super().__init__(world_size, cost_model, algorithm, fault_plan)
        self.collective_timeout = collective_timeout
        self.heartbeat_deadline = heartbeat_deadline
        self._seq = 0  # collective id (response matching)
        self._barrier_seq = 1  # barrier sequence allocator (arrive starts at 0)

        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._control = ControlBlock.create(world_size)
        self._supervisor = Supervisor(self._control, heartbeat_deadline)
        self._segments: Dict[int, shared_memory.SharedMemory] = {}
        # Workers trace iff the driver does: each rank then runs its own
        # tracer/metrics and ships deltas back on collect_worker_telemetry().
        self._trace_workers = get_telemetry() is not None
        try:
            self._supervisor.spawn(
                self._ctx,
                _worker_main,
                self.ranks,
                (
                    self._control.name,
                    world_size,
                    heartbeat_interval,
                    self._trace_workers,
                ),
            )
            self._supervisor.wait_ready(self.ranks, timeout=startup_timeout)
        except BaseException:
            self.close()
            raise
        atexit.register(self.close)

    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _ensure_segment(self, rank: int, nbytes: int) -> shared_memory.SharedMemory:
        seg = self._segments.get(rank)
        if seg is not None and seg.size >= nbytes:
            return seg
        size = max(nbytes, 4096, 2 * seg.size if seg is not None else 0)
        if seg is not None:
            seg.close()
            seg.unlink()
        seg = shared_memory.SharedMemory(create=True, size=size)
        self._segments[rank] = seg
        return seg

    # -- chaos execution ----------------------------------------------
    def _execute_process_fault(self, fault: ProcessFault) -> None:
        handle = self._supervisor.handles.get(fault.rank)
        if handle is None or handle.pid is None:
            return
        if fault.kind == "sigkill":
            self.stats.record_event(
                f"chaos: SIGKILL rank {fault.rank} (attempt {fault.at_call})"
            )
            try:
                os.kill(handle.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - already dead
                pass
        elif fault.kind == "hang":
            self.stats.record_event(
                f"chaos: SIGSTOP (hang) rank {fault.rank} (attempt {fault.at_call})"
            )
            try:
                os.kill(handle.pid, signal.SIGSTOP)
            except ProcessLookupError:  # pragma: no cover - already dead
                pass
        else:  # slow
            self.stats.record_event(
                f"chaos: slow rank {fault.rank} by {fault.duration}s "
                f"(attempt {fault.at_call})"
            )
            self._control.slow[fault.rank] = fault.duration

    # -- collective plumbing ------------------------------------------
    def _roundtrip(self, op: str, barriers: int, live: List[int], **fields) -> None:
        """Send one ``_WORKER_OPS`` command to every live worker and wait
        for all of them to acknowledge it.

        ``barriers`` is how many shared-barrier sequence numbers the op
        consumes worker-side (allocated here, so they never repeat).  On
        a failure the in-flight collective is aborted and the workers
        that received it are drained before the error propagates, so a
        retry never races a worker still touching its segment.
        """
        seq = self._next_seq()
        cmd = {
            "op": op,
            "seq": seq,
            "seq0": self._barrier_seq,
            "live": live,
            "abort0": self._control.abort_generation,
            "timeout": self.collective_timeout,
            **fields,
        }
        self._barrier_seq += barriers
        sent: List[int] = []
        try:
            for rank in live:
                self._supervisor.send(rank, cmd)
                sent.append(rank)
            self._supervisor.gather(seq, live, self.collective_timeout)
        except (RankDeadError, CommTimeoutError) as err:
            # a dead rank cannot answer the abort; a straggler still does
            dead = [err.rank] if isinstance(err, RankDeadError) else []
            self._supervisor.abort_and_drain(
                seq, sent, exclude=dead,
                timeout=max(self.collective_timeout, self.heartbeat_deadline) + 1.0,
            )
            self.stats.record_event(str(err))
            raise

    # -- transports ----------------------------------------------------
    def _run_allreduce(
        self, buffers: Sequence[np.ndarray], average: bool
    ) -> List[np.ndarray]:
        """Ring all-reduce executed by the worker fleet; bit-exact with
        :class:`SimCommunicator` on the same inputs."""
        return staged_allreduce(buffers, average, self._exchange)

    def _exchange(self, work: List[np.ndarray]) -> List[np.ndarray]:
        """Staged float64 buffers into the ranks' segments, one
        ``allreduce`` round trip, reduced buffers back out."""
        p, n = len(work), work[0].shape[0]
        live = list(self.ranks)
        names: Dict[int, str] = {}
        with get_tracer().span(
            "comm.shm_write", category="comm", nelems=n, world_size=p
        ):
            for rank, staged in zip(live, work):
                seg = self._ensure_segment(rank, n * 8)
                np.ndarray((n,), np.float64, buffer=seg.buf)[:] = staged
                names[rank] = seg.name
        self._roundtrip("allreduce", ring_barriers(p), live, nelems=n, names=names)
        with get_tracer().span(
            "comm.shm_read", category="comm", nelems=n, world_size=p
        ):
            return [
                np.ndarray((n,), np.float64, buffer=self._segments[rank].buf).copy()
                for rank in live
            ]

    def _run_broadcast(self, buffer: np.ndarray) -> List[np.ndarray]:
        """Copy ``buffer`` (the lowest live rank's state) into every
        live rank's segment."""
        p = self.world_size
        if p == 1:
            return [buffer.copy()]
        live = list(self.ranks)
        root = live[0]
        raw = np.ascontiguousarray(buffer)
        nbytes = raw.nbytes
        names: Dict[int, str] = {}
        for rank in live:
            seg = self._ensure_segment(rank, nbytes)
            names[rank] = seg.name
        root_view = np.ndarray(
            (nbytes,), np.uint8, buffer=self._segments[root].buf
        )
        root_view[:] = raw.view(np.uint8).reshape(-1)
        self._roundtrip("broadcast", 1, live, nbytes=nbytes, names=names, root=root)
        out = []
        for rank in live:
            seg = self._segments[rank]
            data = bytes(seg.buf[:nbytes])
            out.append(
                np.frombuffer(data, dtype=buffer.dtype).reshape(buffer.shape).copy()
            )
        return out

    def _run_barrier(self) -> None:
        """Real inter-process barrier over the live ranks."""
        if self.world_size > 1:
            self._roundtrip("barrier", 1, list(self.ranks))

    # -- telemetry collection ------------------------------------------
    def _recv_telemetry(self, rank: int, seq: int, timeout: float) -> Optional[dict]:
        """Poll one rank's pipe for the ``telemetry`` response to ``seq``.

        Stale responses from earlier (aborted) collectives are discarded.
        Returns ``None`` if the worker dies or the deadline passes — a
        lost telemetry delta must never fail the run.
        """
        handle = self._supervisor.handles.get(rank)
        if handle is None:
            return None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not handle.is_alive() and not handle.conn.poll(0):
                return None
            if not handle.conn.poll(0.005):
                continue
            try:
                msg = handle.conn.recv()
            except (EOFError, OSError):
                return None
            if msg.get("seq") == seq:
                return msg.get("telemetry")
        return None

    def collect_worker_telemetry(self, timeout: float = 5.0) -> int:
        """Pull each live worker's span/metric deltas into the driver's
        installed telemetry (one merged trace, one lane per rank).

        Called by the trainer at epoch boundaries and by :meth:`close`.
        Worker timestamps are rebased by the origin difference — both
        sides read ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so a
        plain shift aligns the lanes.  Returns the number of ranks that
        answered; silent or dead ranks are skipped, never fatal.
        """
        telemetry = get_telemetry()
        if telemetry is None or not self._trace_workers or self._closed:
            return 0
        collected = 0
        with telemetry.tracer.span(
            "comm.collect_telemetry", category="comm", world_size=self.world_size
        ) as span:
            for rank in list(self.ranks):
                seq = self._next_seq()
                try:
                    self._supervisor.send(rank, {"op": "telemetry", "seq": seq})
                except RankDeadError:
                    continue
                payload = self._recv_telemetry(rank, seq, timeout)
                if payload is None:
                    continue
                shift = float(payload["origin"]) - telemetry.tracer.origin
                telemetry.tracer.ingest_remote(
                    payload["spans"],
                    payload["events"],
                    pid=rank + 1,
                    process_name=f"rank {rank}",
                    time_shift=shift,
                    rank=rank,
                )
                telemetry.metrics.merge_state(
                    payload["metrics"], gauge_suffix=f".rank{rank}"
                )
                collected += 1
            span.set(collected=collected)
        return collected

    # -- elasticity ----------------------------------------------------
    def _evict(self, rank: int) -> str:
        """Epoch bump + worker teardown for an evicted rank.

        Bumps the shared membership epoch and SIGKILLs the dead worker
        (it may be merely SIGSTOPped); subsequent collectives ring over
        the survivors only.
        """
        self._control.live[rank] = 0
        epoch = self._control.bump_epoch()
        record_supervisor_event(
            "rank_evicted", rank=rank, epoch=epoch,
            survivors=list(self.ranks),
        )
        self._supervisor.kill(rank)
        seg = self._segments.pop(rank, None)
        if seg is not None:
            seg.close()
            seg.unlink()
        return f", epoch {epoch}"

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Graceful drain: ask live workers to exit, then release shm.

        Any span/metric deltas still buffered in the workers are pulled
        in first (best-effort), so the merged trace covers the full run.
        """
        if self._closed:
            return
        try:
            self.collect_worker_telemetry()
        except Exception:  # pragma: no cover - shutdown must not fail
            pass
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - defensive
            pass
        self._supervisor.shutdown(list(self._supervisor.handles))
        for seg in self._segments.values():
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._segments.clear()
        self._control.close()
