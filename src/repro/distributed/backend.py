"""Pluggable communication backends.

:class:`repro.distributed.DistributedDataParallel` talks to its
communicator exclusively through this interface, so the *same* gradient
synchronisation, retry, and elastic-eviction logic runs against:

* ``"sim"`` — :class:`repro.distributed.SimCommunicator`: ``P`` logical
  ranks in one process, deterministic, fault injection by raised
  exceptions, communication *time* from the α–β cost model.  The test
  and replay backend.
* ``"proc"`` — :class:`repro.distributed.ProcCommunicator`: one
  ``multiprocessing`` worker per rank, ring all-reduce over
  ``shared_memory`` segments, heartbeat-based failure detection, and
  crash tolerance against real process death (SIGKILL, hangs,
  stragglers).  The genuine-parallelism backend; bit-exact with ``sim``
  on the same seeded run.

Both backends accumulate the same :class:`repro.distributed.CommStats`,
so modeled α–β time and (for ``proc``) measured wall-clock land in the
same telemetry sink and benchmarks can validate the cost model against
reality (``benchmarks/bench_allreduce.py``).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..obs import get_tracer
from .costmodel import NVLINK_A100, CommCostModel

__all__ = ["CommBackend", "CommStats", "COMM_BACKENDS", "create_communicator"]

#: Registered backend names accepted by :func:`create_communicator` and
#: the CLI's ``--backend`` flag.
COMM_BACKENDS = ("sim", "proc")


@dataclass
class CommStats:
    """Accumulated communication accounting.

    Beyond the α–β byte/call counters this also records the
    fault-tolerance history: transient-fault retries (and the simulated
    seconds spent backing off), permanently lost ranks, and a
    human-readable event log — the audit trail a production run's
    post-mortem would read.
    """

    num_allreduce_calls: int = 0
    bytes_reduced: int = 0
    num_broadcast_calls: int = 0
    bytes_broadcast: int = 0
    num_barrier_calls: int = 0
    modeled_seconds: float = 0.0
    measured_seconds: float = 0.0  # wall-clock; stays 0 on the sim backend
    num_retries: int = 0
    retry_backoff_seconds: float = 0.0
    rank_failures: List[int] = field(default_factory=list)
    events: List[str] = field(default_factory=list)

    def record_event(self, message: str) -> None:
        self.events.append(message)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot (the telemetry-export view): every
        field, with the event log reduced to its length."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["rank_failures"] = list(self.rank_failures)
        out["num_events"] = len(out.pop("events"))
        return out

    def reset(self) -> None:
        self.__init__()


class CommBackend(abc.ABC):
    """Collective-communication contract required by the DDP layer.

    Implementations own a set of *global* rank ids (:attr:`ranks`); the
    world shrinks through :meth:`remove_rank` when a rank permanently
    fails (elastic recovery).  Collectives raise
    :class:`repro.faults.CommError` subtypes on failure — transient ones
    (:class:`~repro.faults.CommTimeoutError`) are retried by the DDP
    layer, permanent ones (:class:`~repro.faults.RankDeadError`) trigger
    eviction.

    The public collectives are concrete: each runs the one
    :meth:`_collective` envelope (checks, ``comm.<kind>`` span, fault
    hook, α–β charge, :class:`CommStats`) around a backend's *transport*
    — ``_run_allreduce`` / ``_run_broadcast`` / ``_run_barrier`` — and
    :meth:`remove_rank` does the membership bookkeeping around
    ``_evict``.  A backend supplies only the data movement.
    """

    #: Whether the DDP layer must re-broadcast parameters over the
    #: survivors after an eviction.  ``False`` for the in-process
    #: simulator (replicas are bit-identical by construction); ``True``
    #: for real multi-process backends, where the post-eviction resync
    #: (membership-epoch bump + broadcast from the lowest live rank) is
    #: part of the recovery protocol.
    requires_resync: bool = False

    #: Registry name of a backend whose collectives take real wall-clock
    #: time: they are then timed (``CommStats.measured_seconds``, span
    #: ``measured_s``) and their spans tagged ``backend=<name>``.
    #: ``None`` for the simulator, whose only time is the modeled one.
    measured_backend: Optional[str] = None

    #: Executes a scheduled :class:`repro.faults.ProcessFault` against a
    #: live worker; ``None`` on backends that own no worker processes.
    _execute_process_fault: Optional[Callable] = None

    _closed = False

    def __init__(
        self,
        world_size: int,
        cost_model: CommCostModel = NVLINK_A100,
        fault_plan=None,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        #: Live global rank ids, ascending (shrinks through :meth:`remove_rank`).
        self.ranks: List[int] = list(range(world_size))
        self.cost_model = cost_model
        self.fault_plan = fault_plan
        self.stats = CommStats()

    @property
    def world_size(self) -> int:
        """Number of *live* ranks."""
        return len(self.ranks)

    # -- the envelope --------------------------------------------------
    def _collective(self, kind: str, transport: Callable[[], Any], **attrs):
        """Run one collective of ``kind`` (``allreduce`` / ``broadcast`` /
        ``barrier``) — the only place a ``comm.<kind>`` span is opened,
        the fault plan consulted, and :attr:`stats` charged.

        ``attrs`` are the span's attributes; ``nbytes`` among them is
        also the size the α–β model and the byte counters are charged.
        A failed attempt (the fault hook or the transport raising) is
        charged nothing; the attempt counter of the fault plan advances
        either way.
        """
        if self._closed:
            raise RuntimeError("communicator is closed")
        nbytes = attrs.get("nbytes", 0)
        attrs["world_size"] = self.world_size
        if self.measured_backend is not None:
            attrs["backend"] = self.measured_backend
        with get_tracer().span(f"comm.{kind}", category="comm", **attrs) as span:
            t0 = time.perf_counter()
            if self.fault_plan is not None:
                self.fault_plan.before_collective(
                    self.ranks, process_fault_executor=self._execute_process_fault
                )
            out = transport()
            stats = self.stats
            if kind == "allreduce":
                modeled = self.cost_model.allreduce_time(nbytes, self.world_size)
                stats.num_allreduce_calls += 1
                stats.bytes_reduced += nbytes
            elif kind == "broadcast":
                modeled = self.cost_model.broadcast_time(nbytes, self.world_size)
                stats.num_broadcast_calls += 1
                stats.bytes_broadcast += nbytes
            else:
                modeled = self.cost_model.barrier_time(self.world_size)
                stats.num_barrier_calls += 1
            stats.modeled_seconds += modeled
            if self.measured_backend is None:
                span.set(modeled_s=modeled)
            else:
                measured = time.perf_counter() - t0
                stats.measured_seconds += measured
                span.set(modeled_s=modeled, measured_s=measured)
        return out

    def allreduce(
        self, buffers: Sequence[np.ndarray], average: bool = True
    ) -> List[np.ndarray]:
        """All-reduce one buffer per live rank; returns the reduced copies.

        Charges the cost model for a single ring all-reduce over the
        buffer's byte size.
        """
        if len(buffers) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank buffers, got {len(buffers)}"
            )
        return self._collective(
            "allreduce",
            lambda: self._run_allreduce(buffers, average),
            nbytes=buffers[0].nbytes,
        )

    def broadcast(self, buffer: np.ndarray) -> List[np.ndarray]:
        """Broadcast the lowest live rank's buffer to every live rank
        (model-state sync), charged as a binomial tree."""
        return self._collective(
            "broadcast", lambda: self._run_broadcast(buffer), nbytes=buffer.nbytes
        )

    def barrier(self) -> None:
        """Block until every live rank reaches the barrier.

        A barrier is a collective like any other: it consults the fault
        plan (so barrier-heavy schedules can fail) and charges the
        latency-only dissemination cost
        (:meth:`~repro.distributed.CommCostModel.barrier_time`).
        """
        self._collective("barrier", self._run_barrier)

    def remove_rank(self, rank: int) -> int:
        """Evict a permanently failed global rank; returns its local index.

        Subsequent collectives run over the surviving ranks only, so
        gradient averaging automatically rescales to the new world size.
        The eviction is recorded in :attr:`stats`.
        """
        if rank not in self.ranks:
            raise ValueError(f"rank {rank} is not live (live ranks: {self.ranks})")
        if len(self.ranks) == 1:
            raise RuntimeError("cannot remove the last surviving rank")
        index = self.ranks.index(rank)
        self.ranks.remove(rank)
        detail = self._evict(rank)
        self.stats.rank_failures.append(rank)
        self.stats.record_event(
            f"rank {rank} permanently failed; continuing with world size "
            f"{len(self.ranks)} (survivors: {self.ranks}{detail})"
        )
        return index

    # -- what a backend supplies ---------------------------------------
    @abc.abstractmethod
    def _run_allreduce(
        self, buffers: Sequence[np.ndarray], average: bool
    ) -> List[np.ndarray]:
        """Move and reduce the data of one all-reduce over the live ranks."""

    @abc.abstractmethod
    def _run_broadcast(self, buffer: np.ndarray) -> List[np.ndarray]:
        """Deliver one copy of ``buffer`` per live rank."""

    @abc.abstractmethod
    def _run_barrier(self) -> None:
        """Synchronise the live ranks."""

    def _evict(self, rank: int) -> str:
        """Tear down whatever the backend holds for ``rank`` (already
        removed from :attr:`ranks`); returns a suffix for the eviction
        event's survivor list.  Nothing to do for in-process ranks."""
        return ""

    def collect_worker_telemetry(self, timeout: float = 5.0) -> int:
        """Merge per-rank worker spans/metrics into the driver's trace;
        returns the ranks that answered (none: ranks run in this process)."""
        return 0

    def close(self) -> None:
        """Release backend resources (processes, shared memory); idempotent."""

    # context-manager sugar so trainers/benches can ``with create_communicator(...)``
    def __enter__(self) -> "CommBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_communicator(
    backend: str,
    world_size: int,
    *,
    cost_model: CommCostModel = NVLINK_A100,
    fault_plan=None,
    **proc_options,
) -> CommBackend:
    """Build a communicator by backend name (``"sim"`` or ``"proc"``).

    ``proc_options`` (``collective_timeout``, ``heartbeat_interval``,
    ``heartbeat_deadline``, …) go to :class:`ProcCommunicator` as given;
    ``sim`` ignores them — its failure detector is the injected-exception
    fault plan.
    """
    if backend not in COMM_BACKENDS:
        raise ValueError(
            f"unknown comm backend {backend!r}; choose from {COMM_BACKENDS}"
        )
    if backend == "sim":
        from .comm import SimCommunicator

        return SimCommunicator(world_size, cost_model, fault_plan=fault_plan)
    from .proc_backend import ProcCommunicator

    return ProcCommunicator(
        world_size, cost_model, fault_plan=fault_plan, **proc_options
    )
