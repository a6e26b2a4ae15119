"""The inference serving engine: micro-batching, caching, load-shedding.

Training got prefetching, checkpointing, and telemetry; this module is
the serving-side counterpart.  An :class:`InferenceEngine` owns a fitted
:class:`~repro.pipeline.ExaTrkXPipeline` and answers reconstruction
requests through a bounded :class:`RequestQueue`:

* a **dynamic micro-batcher** dispatches whenever a lane is idle: a
  lone request leaves at once, and requests that arrive while every
  lane is busy leave together, up to ``max_batch_events``, when one
  frees up.  A micro-batch shares a dispatch, in-batch dedup, the stage
  cache and admission — not compute — so no request waits for company;
* a **keyed stage cache** (:class:`~repro.serve.cache.StageCache`)
  memoises the whole chain — construction/filter outputs, then the
  tracks — under an event-content hash: a replayed event costs one hash
  and runs no forward at all (policy below);
* **admission control**: when the queue is full a new request is shed
  immediately (cheap rejection beats queueing past the deadline), and
  when the per-request latency budget is already blown at dispatch the
  batch is served **degraded** — the GNN stage is skipped and tracks are
  built from filter scores alone.

Determinism contract
--------------------
Batched execution is bit-identical to looped
:meth:`~repro.pipeline.ExaTrkXPipeline.reconstruct` because it IS the
same traversal: the engine calls the pipeline's ``upstream_many`` and
``finish_from_filtered`` — the two halves ``reconstruct_many`` composes —
and in those a batch is an in-order map of the single-event stage call
over every core (``repro._per_event``, like this engine's GNN
+ track loop): no forward sees two events and each item is the loop's
call on any thread (pin BLAS to one), so results cannot depend on the
batch.  The engine owns only serving policy (cache, store hydration,
breaker, timeout, degrade); it never walks a stage or picks a track
builder.  Batch *composition* therefore never influences results — only
latency — and a memoised answer *is* what that traversal returned for
those bytes under the weights the engine fixes for its life.

Stage-cache policy
------------------
One lookup per request: absent, upstream only, or complete
(:mod:`repro.serve.cache`).  (a) Duplicates inside a batch share one
computation end to end.  (b) Only full-quality results are memoised: the
degraded path never writes, and a later full-quality request for an entry
a degraded batch created runs the GNN and fills it.  (c) Degrade, breaker
and fault plan govern GNN *forwards*: a memoised request is answered at
full quality even in a late or breaker-open batch (there is no forward to
skip); the ``"gnn"`` fault point and the breaker's ``allow`` / success /
exception outcomes happen only in a dispatch that runs at least one
forward, and a fully memoised batch records no ``serve.stage.gnn`` span
(a latency breach is still reported to the breaker).  (d) Memoised track
arrays are read-only and every response gets its own list, so a client
cannot change a later response.  (e) ``cache_capacity=0`` keeps no memo
across batches.  ``cache_hit`` / ``cache_hits`` / ``cache_misses`` keep
their meaning (the upstream lookup); ``memo_hit`` / ``memo_hits`` /
``memoised=`` on the ``serve.batch`` span count complete lookups.

Time is read from an injectable clock (:class:`repro.faults.SimClock`
compatible), so overload, shedding, and degraded-mode decisions are
deterministic and injectable in tests.  There is one dispatch step,
:meth:`InferenceEngine.pump`: with ``workers=0`` the caller calls it,
and ``workers=W>=1`` starts W lane threads that sleep on the queue's
condition until a batch is due, then call it.

Resilience (``docs/resilience.md``)
-----------------------------------
Serving is the layer where one bad input or one failing stage must never
take the process down:

* with ``validate_inputs``, malformed events are **quarantined** at
  :meth:`InferenceEngine.submit` (``status == "quarantined"``) before
  they can reach a stage; the critical rules (NaN/Inf positions,
  inconsistent hit-array lengths) run unconditionally — a NaN event
  must never reach the embedding stage, flag or no flag;
* with ``breaker_threshold`` set, a :class:`repro.guard.CircuitBreaker`
  wraps the GNN stage: consecutive stage exceptions (or latency-budget
  breaches) trip it open, open batches are served on the degraded
  GNN-skip path (their memoised requests at full quality, rule (c)), and
  after a cooldown a half-open probe decides whether to close it again;
* with ``request_timeout_ms``, requests that are already older than the
  timeout at dispatch complete exceptionally (``status == "timed_out"``)
  instead of consuming stage compute;
* a stage exception never leaves a request hanging: the failing batch is
  served degraded when the upstream stages succeeded, or failed with a
  typed error otherwise, and :meth:`InferenceEngine.close` drains so
  every in-flight request reaches a terminal state.

Every request ends in exactly ONE terminal state — ``done`` (possibly
with the ``degraded`` modifier), ``shed``, ``quarantined``,
``timed_out``, or ``failed`` — and :class:`ServeStats` counts them
disjointly.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detector import Event
from ..faults import FaultPlan, WallClock
from ..guard import (
    BreakerConfig,
    CircuitBreaker,
    EventValidator,
    Quarantine,
    QuarantineLog,
)
from ..obs import get_metrics, get_tracer
from ..pipeline import ExaTrkXPipeline
from .._per_event import per_event
from ..pipeline.config import PRECISIONS, knob
from .cache import CachedStages, StageCache, event_fingerprint

__all__ = [
    "ServeConfig",
    "ServeStats",
    "ServeRequest",
    "RequestQueue",
    "InferenceEngine",
    "RequestShedError",
    "RequestQuarantinedError",
    "RequestTimeoutError",
    "RequestFailedError",
]


class RequestShedError(RuntimeError):
    """The request was rejected by admission control (queue full)."""


class RequestQuarantinedError(RuntimeError):
    """The request's event failed input validation at submit."""


class RequestTimeoutError(RuntimeError):
    """The request exceeded ``request_timeout_ms`` before its stage ran."""


class RequestFailedError(RuntimeError):
    """A stage failure terminated the request with no usable fallback."""


@dataclass(frozen=True)
class ServeConfig:
    """Serving engine knobs.

    Parameters
    ----------
    max_batch_events:
        Micro-batch cap: a dispatch takes at most this many of the
        requests that queued up while the engine was busy.
    max_wait_ms:
        No effect: a batch dispatches as soon as a worker is idle
        (:meth:`InferenceEngine.next_due_time`), never on a deadline.
        Still accepted and validated because the benchmark suite and
        the CLI surface pass it; it goes with its flag once they stop.
    max_queue_events:
        Admission bound.  A request arriving while this many are queued
        is shed immediately (``status == "shed"``).
    workers:
        ``0`` — synchronous engine: the caller drives batching through
        :meth:`InferenceEngine.pump` / :meth:`~InferenceEngine.flush`
        (deterministic; what the tests and the load generator use).
        ``>= 1`` — this many lane threads, each running the same
        :meth:`~InferenceEngine.pump` whenever a batch is due.
    latency_budget_ms:
        Per-request latency budget.  If the oldest request of a batch
        has already waited longer than this at dispatch, every request
        of the batch that still needs a GNN forward is served degraded
        (filter-score tracks); ``None`` disables degradation.
    degraded_threshold:
        Filter-score threshold used in place of the GNN threshold when
        serving degraded (the filter's threshold is tuned loose, so the
        degraded path re-cuts at this stricter value).
    cache_capacity:
        Stage-cache entries (events) retained; ``0`` disables caching.
    sim_service_time_s:
        Only meaningful on a simulated clock: each dispatched batch
        advances the clock by this many seconds (``None`` = advance by
        the measured wall-clock processing time).  A fixed value makes
        overload experiments fully deterministic.
    validate_inputs:
        Quarantine malformed events at :meth:`InferenceEngine.submit`
        (``status == "quarantined"``) instead of letting them crash a
        stage mid-batch.  Even when ``False``, the *critical* subset
        (:meth:`repro.guard.EventValidator.critical`: NaN/Inf hit
        positions, mismatched hit-array lengths) still runs — those
        inputs would poison the embedding stage or crash graph
        construction, so they are never admitted.
    quarantine_log:
        Optional JSONL path receiving one structured line per
        quarantined event (see :class:`repro.guard.QuarantineLog`).
    request_timeout_ms:
        Per-request timeout: a request older than this at dispatch is
        completed exceptionally (``status == "timed_out"``) without
        consuming stage compute; ``None`` disables.
    breaker_threshold:
        Consecutive GNN-stage failures (exceptions, and latency-budget
        breaches when ``latency_budget_ms`` is set) that trip the
        circuit breaker open; while open, batches are served on the
        degraded GNN-skip path.  ``None`` disables the breaker.
    breaker_cooldown_ms:
        How long (engine-clock milliseconds) the breaker stays open
        before admitting a half-open probe.
    breaker_probes:
        Consecutive successful probes required to close the breaker.
    precision:
        ``"float32"`` (default) or ``"float64"``: the engine casts the
        fitted pipeline's stage networks to this dtype at construction
        (see :meth:`repro.pipeline.ExaTrkXPipeline.astype`).  The
        batched-vs-sequential bit-parity contract holds in either mode.
    """

    max_batch_events: int = knob(8, "micro-batch cap (events per dispatch)")
    max_wait_ms: float = knob(
        5.0, "no effect (batches dispatch when a worker is idle); kept for callers"
    )
    max_queue_events: int = knob(
        64, "admission bound: requests beyond N queued are shed"
    )
    workers: int = knob(0, "worker threads (0 = synchronous engine)")
    latency_budget_ms: Optional[float] = knob(
        None,
        "serve a batch degraded (skip the GNN) when its oldest request "
        "already waited longer than X ms at dispatch",
    )
    degraded_threshold: float = 0.5
    cache_capacity: int = knob(128, "stage-cache entries (0 disables caching)")
    sim_service_time_s: Optional[float] = knob(
        None,
        "fixed modelled batch service time on the simulated clock "
        "(default: measured wall time — realistic but not bit-reproducible)",
    )
    validate_inputs: bool = knob(
        False, "quarantine malformed events at submit instead of crashing"
    )
    quarantine_log: Optional[str] = knob(
        None, "append quarantined-request records to this path as JSONL"
    )
    request_timeout_ms: Optional[float] = knob(
        None, "fail requests still queued after X ms with a typed timeout"
    )
    breaker_threshold: Optional[int] = knob(
        None,
        "open the GNN circuit breaker after N consecutive stage failures "
        "(default: breaker disabled)",
    )
    breaker_cooldown_ms: float = knob(
        1000.0, "open-state cooldown before the half-open probe"
    )
    breaker_probes: int = knob(
        1, "successful half-open probes required to close the breaker"
    )
    precision: str = knob(
        "float32",
        "cast the pipeline's stage networks to this dtype "
        "(float64 = high-precision reference mode)",
        PRECISIONS,
    )

    def __post_init__(self) -> None:
        if self.precision not in PRECISIONS:
            raise ValueError(
                f"unknown precision {self.precision!r}; choose 'float32' or 'float64'"
            )
        if self.max_batch_events < 1:
            raise ValueError("max_batch_events must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue_events < 1:
            raise ValueError("max_queue_events must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.latency_budget_ms is not None and self.latency_budget_ms <= 0:
            raise ValueError("latency_budget_ms must be positive")
        if not 0.0 <= self.degraded_threshold <= 1.0:
            raise ValueError("degraded_threshold must be in [0, 1]")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.request_timeout_ms is not None and self.request_timeout_ms <= 0:
            raise ValueError("request_timeout_ms must be positive")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise ValueError("breaker_cooldown_ms must be >= 0")
        if self.breaker_probes < 1:
            raise ValueError("breaker_probes must be >= 1")


_TERMINAL = threading.Condition()  # notified whenever a request leaves "queued"


@dataclass(**({"slots": True} if sys.version_info >= (3, 10) else {}))  # 3.9: no slots
class ServeRequest:
    """One reconstruction request and, eventually, its result.

    ``status`` moves ``"queued" → "done"`` — or lands in exactly one of
    the exceptional terminal states: ``"shed"`` (admission control),
    ``"quarantined"`` (input validation), ``"timed_out"``
    (``request_timeout_ms`` exceeded before dispatch), or ``"failed"``
    (stage failure with no usable fallback).  ``tracks`` holds the
    hit-index arrays once done; ``degraded`` / ``breaker_degraded`` mark
    a done request served on the GNN-skip path.  Timestamps are
    engine-clock seconds.
    """

    event: Event
    t_submit: float
    status: str = "queued"
    tracks: Optional[List[np.ndarray]] = None
    degraded: bool = False
    breaker_degraded: bool = False  # degraded because the breaker was open
    cache_hit: bool = False
    memo_hit: bool = False  # answered from memoised tracks: no forward ran
    store_hit: bool = False  # construction graph hydrated from the event store
    error: Optional[BaseException] = None
    t_dispatch: float = 0.0
    t_done: float = 0.0

    def _wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal: one shared condition, no per-request primitive."""
        with _TERMINAL:
            return _TERMINAL.wait_for(lambda: self.status != "queued", timeout)

    def _finish(self, status: str, t_done: float) -> None:
        with _TERMINAL:
            self.status, self.t_done = status, t_done
            _TERMINAL.notify_all()

    @property
    def queue_wait_ms(self) -> float:
        return 1e3 * (self.t_dispatch - self.t_submit)

    @property
    def latency_ms(self) -> float:
        return 1e3 * (self.t_done - self.t_submit)

    def result(self, timeout: Optional[float] = None) -> List[np.ndarray]:
        """Block until the request completes; raises on any exceptional
        terminal state (every raise is a typed :class:`RuntimeError`
        subclass, so pre-guardrail callers catching ``RuntimeError``
        still work)."""
        if self.status == "shed":
            raise RequestShedError("request was shed by admission control")
        if self.status == "quarantined":
            raise RequestQuarantinedError(
                f"event {self.event.event_id} failed input validation: "
                f"{self.error}"
            )
        if not self._wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self.status == "timed_out":
            raise RequestTimeoutError(
                f"request exceeded its timeout after {self.queue_wait_ms:.1f} ms queued"
            )
        if self.status == "failed":
            raise RequestFailedError(
                f"serving failed for event {self.event.event_id}: {self.error}"
            ) from self.error
        assert self.tracks is not None
        return self.tracks


class RequestQueue:
    """Bounded FIFO of pending requests, safe for concurrent access.

    ``offer`` rejects (returns ``False``) when the queue is at capacity
    — the caller sheds the request; ``pop_batch`` removes up to
    ``max_n`` oldest requests atomically.  The lock is re-entrant: a
    caller holding :attr:`not_empty` can make several of these calls as
    one atomic decision (the engine's "is a batch due? then pop it").
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.RLock()
        self.not_empty = threading.Condition(self._lock)
        self._items: Deque[ServeRequest] = deque()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def offer(self, request: ServeRequest) -> bool:
        with self.not_empty:
            if len(self._items) >= self.capacity:
                return False
            self._items.append(request)
            self.not_empty.notify()
            return True

    def oldest_submit_time(self) -> Optional[float]:
        with self._lock:
            return self._items[0].t_submit if self._items else None

    def pop_batch(self, max_n: int) -> List[ServeRequest]:
        with self._lock:
            batch = []
            while self._items and len(batch) < max_n:
                batch.append(self._items.popleft())
            return batch


@dataclass
class ServeStats:
    """Engine-lifetime aggregates (also exported as ``serve.*`` metrics).

    Terminal states are disjoint: every submitted request is counted in
    exactly one of ``completed`` / ``shed`` / ``quarantined`` /
    ``timed_out`` / ``failed`` once it terminates (``submitted`` equals
    their sum when nothing is in flight).  ``degraded`` and
    ``breaker_degraded`` are modifiers of ``completed``.
    """

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    quarantined: int = 0
    timed_out: int = 0
    failed: int = 0
    degraded: int = 0
    breaker_degraded: int = 0
    batches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    store_hydrated: int = 0

    @property
    def terminal(self) -> int:
        """Requests that reached a terminal state (disjoint sum)."""
        return (
            self.completed + self.shed + self.quarantined
            + self.timed_out + self.failed
        )


#: ``ServeStats`` field → the ``serve.*`` counter mirroring it.
_COUNTERS = {
    "submitted": "serve.requests.submitted",
    "completed": "serve.requests.completed",
    "shed": "serve.requests.shed",
    "quarantined": "serve.requests.quarantined",
    "timed_out": "serve.requests.timed_out",
    "failed": "serve.requests.failed",
    "degraded": "serve.requests.degraded",
    "breaker_degraded": "serve.requests.breaker_degraded",
    "batches": "serve.batches",
    "cache_hits": "serve.cache.hits",
    "cache_misses": "serve.cache.misses",
    "memo_hits": "serve.cache.memo_hits",
    "store_hydrated": "serve.store.hydrated",
}


class InferenceEngine:
    """Serve reconstruction requests over a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.pipeline.ExaTrkXPipeline`.
    config:
        Engine knobs (:class:`ServeConfig`).
    clock:
        Any object with a ``now`` attribute in seconds
        (:class:`repro.faults.SimClock` compatible).  Defaults to the
        wall clock; inject a :class:`~repro.faults.SimClock` with
        ``workers=0`` for deterministic batching/shedding/degradation.
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`: scheduled
        :class:`~repro.faults.StageFault` entries for stage ``"gnn"``
        fail GNN dispatches deterministically, exercising the circuit
        breaker (chaos drills and tests).
    store:
        Optional :class:`repro.store.EventStore` of **precomputed
        construction graphs** (``meta["graphs"] == "construction"``, as
        written by :func:`repro.store.ingest_construction` from this
        pipeline).  Replayed events whose fingerprint is in the store
        hydrate their construction graph from the warm mmap shard cache
        instead of rebuilding it from the request payload — a restarted
        engine with a cold :class:`StageCache` skips the construction
        stage for every known event.

    Telemetry: every dispatched batch records a ``serve.batch`` span
    (``memoised=<n>``) with nested ``serve.stage.construction`` / ``.filter``
    / ``.gnn`` spans for the stages it ran (the GNN span wraps the per-event
    ``pipeline.gnn`` / ``pipeline.track_building`` spans), and the run
    metrics gain ``serve.*`` counters, queue-depth gauges, and
    latency/batch-size histograms — plus ``guard.*`` quarantine and
    breaker series when those guardrails are enabled.
    """

    def __init__(
        self,
        pipeline: ExaTrkXPipeline,
        config: Optional[ServeConfig] = None,
        clock=None,
        fault_plan: Optional[FaultPlan] = None,
        store=None,
    ) -> None:
        if pipeline.embedding.net is None:
            raise RuntimeError("pipeline not fitted")
        self.pipeline = pipeline
        self.store = store
        self._store_graphs: Dict[str, object] = {}
        if store is not None:
            if store.meta.get("graphs") != "construction":
                raise ValueError(
                    "serving store must hold construction graphs "
                    "(ingest with repro.store.ingest_construction); got "
                    f"meta={store.meta!r}"
                )
            self._store_graphs = {
                h.fingerprint: h
                for h in store.handles()
                if h.fingerprint and h.source == "construction"
            }
        self.config = config if config is not None else ServeConfig()
        # unconditional: a previous engine may have left the (shared)
        # pipeline in another dtype; a same-dtype cast copies nothing
        pipeline.astype(np.dtype(self.config.precision))
        self.clock = clock if clock is not None else WallClock()
        self.fault_plan = fault_plan
        self.queue = RequestQueue(self.config.max_queue_events)
        self.cache: Optional[StageCache] = (
            StageCache(self.config.cache_capacity)
            if self.config.cache_capacity > 0
            else None
        )
        # Full validation is opt-in, but the *critical* rules (NaN/Inf
        # positions, mismatched hit-array lengths) always run: a NaN
        # coordinate admitted here would flow through the embedding into
        # every downstream score, and a length mismatch crashes graph
        # construction mid-batch — neither may depend on a config flag.
        validator = (
            EventValidator.for_geometry(pipeline.geometry)
            if self.config.validate_inputs
            else EventValidator.critical()
        )
        self.quarantine = Quarantine(
            validator,
            context="serve.submit",
            log=(
                QuarantineLog(self.config.quarantine_log)
                if self.config.quarantine_log
                else None
            ),
            kind="event",
        )
        self.breaker: Optional[CircuitBreaker] = None
        if self.config.breaker_threshold is not None:
            self.breaker = CircuitBreaker(
                BreakerConfig(
                    failure_threshold=self.config.breaker_threshold,
                    cooldown_s=1e-3 * self.config.breaker_cooldown_ms,
                    probe_successes=self.config.breaker_probes,
                ),
                clock=self.clock,
                name="gnn",
            )
        self.stats = ServeStats()
        self._stats_lock = threading.Lock()
        self._closed = False
        self._in_flight = 0  # busy lanes: batches popped, not yet done (queue lock)
        self._lanes = [
            threading.Thread(target=self._lane, name=f"repro-serve-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for lane in self._lanes:
            lane.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Gracefully drain: every in-flight request reaches a terminal
        state (served, or failed with a typed error) — none ever hangs.

        Queued requests are dispatched (the lanes drain the queue before
        they are joined, then :meth:`flush` takes what is left), and
        anything somehow left incomplete is failed explicitly as a last
        resort.
        """
        if self._closed:
            return
        self._closed = True
        with self.queue.not_empty:
            self.queue.not_empty.notify_all()
        for lane in self._lanes:
            lane.join()
        self.flush()
        # backstop: a request still queued here slipped past the drain
        # (e.g. submitted concurrently with close); fail it rather than
        # leave its waiter blocked forever
        leftovers = self.queue.pop_batch(self.config.max_queue_events)
        while leftovers:
            self._fail_requests(
                leftovers, RequestFailedError("engine closed before dispatch")
            )
            leftovers = self.queue.pop_batch(self.config.max_queue_events)

    def health(self) -> Dict[str, object]:
        """Liveness/readiness snapshot for health endpoints.

        ``live`` — the engine object can still accept work (not closed);
        ``ready`` — it is live AND the breaker (if any) is not open, so
        full-quality (non-degraded) serving is available right now.
        """
        breaker_state = self.breaker.state if self.breaker is not None else None
        with self._stats_lock:
            terminal = self.stats.terminal
            submitted = self.stats.submitted
        return {
            "live": not self._closed,
            "ready": not self._closed and breaker_state != "open",
            "queue_depth": len(self.queue),
            "breaker": breaker_state,
            "in_flight": submitted - terminal - len(self.queue),
        }

    # -- submission / admission control --------------------------------
    def submit(self, event: Event) -> ServeRequest:
        """Enqueue one reconstruction request.

        Returns immediately; the request completes asynchronously
        (threaded mode) or on the next :meth:`pump` / :meth:`flush`
        (synchronous mode).  When the queue is full the request is shed:
        ``status == "shed"`` and no reconstruction ever runs for it.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        request = ServeRequest(event=event, t_submit=self.clock.now)
        self._count("submitted")
        if not self.quarantine.admit(event, obj_id=event.event_id):
            request.status = "quarantined"
            issues = self.quarantine.reasons[-1][1]
            request.error = RequestQuarantinedError(
                "; ".join(f"{i.rule}: {i.detail}" for i in issues)
            )
            self._count("quarantined")
            return request
        if not self.queue.offer(request):
            request.status = "shed"
            self._count("shed")
            get_tracer().event(
                "serve.shed", category="serve", event=event.event_id
            )
            return request
        get_metrics().gauge("serve.queue_depth").set(len(self.queue))
        return request

    def process(self, events: Sequence[Event]) -> List[ServeRequest]:
        """Convenience: submit every event, flush, and return requests.

        In synchronous mode the returned requests are already complete
        (or shed); in threaded mode this blocks until they are.
        """
        requests = [self.submit(e) for e in events]
        if self.config.workers == 0:
            self.flush()
        else:
            for r in requests:
                if r.status not in ("shed", "quarantined"):
                    # wait for the terminal state without raising on
                    # exceptional ones — callers inspect status/result()
                    r._wait()
        return requests

    # -- dispatch policy -------------------------------------------------
    def next_due_time(self) -> Optional[float]:
        """Clock time at which the next batch should dispatch — the one
        statement of the dispatch policy.

        A non-empty queue is due *now* (its oldest submit time) whenever
        a lane is free: always for the synchronous engine (the caller is
        the lane), fewer busy lanes than ``workers`` for the threaded
        one.  ``None`` when the queue is empty or every lane is busy, so
        a batch only forms while the engine could not have served it.
        """
        if self._lanes and self._in_flight >= len(self._lanes):
            return None
        return self.queue.oldest_submit_time()

    def _pop_due(self) -> List[ServeRequest]:
        """The dispatch policy's one pop: the next batch if one is due at
        the current clock time (see :meth:`next_due_time`), else ``[]``.
        A popped batch holds a lane until :meth:`pump` finishes it."""
        with self.queue.not_empty:
            due = self.next_due_time()
            if due is None or due > self.clock.now:
                return []
            self._in_flight += 1
            return self.queue.pop_batch(self.config.max_batch_events)

    # -- dispatch --------------------------------------------------------
    def pump(self) -> int:
        """Dispatch ONE batch if one is due; returns its size (0 if not).

        The one dispatch step: the synchronous caller calls it, and so
        does each lane thread of a threaded engine.
        """
        batch = self._pop_due()
        if not batch:
            return 0
        try:
            self._process_batch(batch)
        finally:
            with self.queue.not_empty:
                self._in_flight -= 1
                self.queue.not_empty.notify()
        return len(batch)

    def flush(self) -> int:
        """Dispatch everything queued; returns count."""
        total = 0
        while True:
            batch = self.queue.pop_batch(self.config.max_batch_events)
            if not batch:
                return total
            self._process_batch(batch)
            total += len(batch)

    def _lane(self) -> None:
        """One of ``workers`` lane threads: sleep until a batch is due (an
        offer, a finished batch and :meth:`close` each notify), then pump.
        A closing engine's lanes drain the queue before they exit."""
        while True:
            with self.queue.not_empty:
                self.queue.not_empty.wait_for(
                    lambda: self.next_due_time() is not None
                    or (self._closed and not len(self.queue))
                )
                if self.next_due_time() is None:
                    return  # closed and drained
            self.pump()

    # -- batch execution ------------------------------------------------
    def _fail_requests(self, requests: List[ServeRequest], error: BaseException) -> None:
        """Terminal-state containment: mark ``requests`` failed, wake waiters."""
        failed = 0
        t_now = self.clock.now
        for request in requests:
            if request.status != "queued":  # already terminal
                continue
            request.error = error
            request._finish("failed", t_now)
            failed += 1
        if not failed:
            return
        self._count("failed", failed)
        get_tracer().event(
            "serve.failed", category="serve", requests=failed, error=str(error)
        )

    def _timeout_expired(self, batch: List[ServeRequest], t_dispatch: float) -> List[ServeRequest]:
        """Split off requests already past ``request_timeout_ms``; returns
        the still-live remainder."""
        cfg = self.config
        if cfg.request_timeout_ms is None:
            return batch
        live: List[ServeRequest] = []
        expired = 0
        for request in batch:
            if 1e3 * (t_dispatch - request.t_submit) > cfg.request_timeout_ms:
                request._finish("timed_out", t_dispatch)
                expired += 1
            else:
                live.append(request)
        if expired:
            self._count("timed_out", expired)
            get_tracer().event(
                "serve.timed_out", category="serve", requests=expired
            )
        return live

    def _process_batch(self, batch: List[ServeRequest]) -> None:
        """Run one micro-batch through the stages; fills in every request.

        Containment invariant: every request in ``batch`` reaches a
        terminal state before this returns — served (full or degraded),
        timed out, or failed — even when a stage raises.
        """
        try:
            self._process_batch_inner(batch)
        except BaseException as exc:  # containment: nothing may hang
            self._fail_requests(batch, exc)
            if not isinstance(exc, Exception):
                raise  # KeyboardInterrupt/SystemExit must still propagate

    def _process_batch_inner(self, batch: List[ServeRequest]) -> None:
        cfg = self.config
        tracer = get_tracer()
        t_dispatch = self.clock.now
        for request in batch:
            request.t_dispatch = t_dispatch
        batch = self._timeout_expired(batch, t_dispatch)
        if not batch:
            return
        oldest_wait_ms = 1e3 * (t_dispatch - batch[0].t_submit)
        late = (
            cfg.latency_budget_ms is not None
            and oldest_wait_ms > cfg.latency_budget_ms
        )
        # a latency-budget breach is a breaker failure too: persistent
        # overload trips it open, and the open breaker then skips the
        # GNN without re-measuring every batch
        if late and self.breaker is not None:
            self.breaker.record_failure(kind="latency")
        t0_wall = time.perf_counter()
        with tracer.span(
            "serve.batch", category="serve", size=len(batch), oldest_wait_ms=oldest_wait_ms
        ) as span:
            keys, staged = self._upstream_stages(batch)
            for request, key in zip(batch, keys):
                request.memo_hit = staged[key].tracks is not None
            memoised = sum(r.memo_hit for r in batch)
            self._count("memo_hits", memoised)
            # degrade, breaker and fault plan govern *forwards*: the breaker
            # is consulted only when some entry still needs one
            forward = [key for key, entry in staged.items() if entry.tracks is None]
            breaker_open = bool(
                forward and not late and self.breaker is not None and not self.breaker.allow()
            )
            degraded = bool(forward) and (late or breaker_open)
            span.set(degraded=degraded, breaker_open=breaker_open, memoised=memoised)
            gnn_error: Optional[BaseException] = None
            if forward and not degraded:
                with tracer.span("serve.stage.gnn", category="serve", degraded=False):
                    try:
                        if self.fault_plan is not None:
                            self.fault_plan.before_stage("gnn")
                        filtered = [staged[key].filtered for key in forward]
                        done = per_event(self.pipeline.finish_from_filtered, filtered)
                        for key, tracks in zip(forward, done):  # a raise on k: the k before served
                            for track in tracks:
                                track.flags.writeable = False  # shared by every later response
                            staged[key] = replace(staged[key], tracks=tuple(tracks))
                        if self.breaker is not None:
                            self.breaker.record_success()
                    except Exception as exc:
                        gnn_error = exc
                        if self.breaker is not None:
                            self.breaker.record_failure(kind="exception")
                        get_tracer().event(
                            "serve.stage_error",
                            category="serve",
                            stage="gnn",
                            error=str(exc),
                        )
            if self.cache is not None:
                for key in forward:  # one put per entry, at the depth it reached
                    self.cache.put(key, staged[key])
            if degraded or gnn_error is not None:
                # degraded GNN-skip path: latency breach, open breaker,
                # or fallback for the requests a GNN failure left unserved;
                # never memoised
                with tracer.span("serve.stage.gnn", category="serve", degraded=True):
                    for request, key in zip(batch, keys):
                        entry = staged[key]
                        if entry.tracks is not None:
                            continue
                        # filter scores stand in for GNN scores, re-cut
                        # at the stricter degraded threshold
                        request.tracks = self.pipeline.finish_from_filtered(
                            entry.filtered,
                            scores=entry.filter_scores[entry.filter_keep],
                            min_score=cfg.degraded_threshold,
                        )
                        request.degraded = True
                        request.breaker_degraded = (
                            breaker_open or gnn_error is not None
                        )
            for request, key in zip(batch, keys):
                if request.tracks is None:  # a fresh list of the shared arrays
                    request.tracks = list(staged[key].tracks)
        service_wall_s = time.perf_counter() - t0_wall
        if not isinstance(self.clock, WallClock):
            # simulated clock: model the service time explicitly so
            # queueing dynamics (and thus shedding/degradation) are
            # reproducible — fixed when configured, measured otherwise
            self.clock.now = t_dispatch + (
                cfg.sim_service_time_s
                if cfg.sim_service_time_s is not None
                else service_wall_s
            )
        t_done = self.clock.now
        for request in batch:
            request._finish("done", t_done)
        self._record_batch(batch)

    def _upstream_stages(
        self, batch: List[ServeRequest]
    ) -> Tuple[List[str], Dict[str, CachedStages]]:
        """Construction + filter for a batch, through the stage cache:
        each request's key and one entry per distinct key.

        Serving policy only: cache lookup, in-batch dedup, store
        hydration.  Whatever is left goes through ONE
        :meth:`~repro.pipeline.ExaTrkXPipeline.upstream_many` call;
        cache hits skip both stages.
        """
        keys = [event_fingerprint(r.event) for r in batch]
        staged: Dict[str, Optional[CachedStages]] = {}
        miss_idx: List[int] = []
        for i, key in enumerate(keys):
            entry = self.cache.get(key) if self.cache is not None else None
            if entry is None and key not in staged:
                miss_idx.append(i)  # first sighting: computed below, once
                staged[key] = None
            else:
                # cached — or a duplicate within the batch, which counts as
                # a hit too (the work is skipped either way)
                batch[i].cache_hit = True
                staged[key] = entry or staged[key]
        if miss_idx:
            # stage-cache misses whose event lives in the shard store skip
            # construction entirely: the precomputed graph is mapped out of
            # the warm shard window instead of rebuilt from the payload
            graphs = []
            for i in miss_idx:
                handle = self._store_graphs.get(keys[i])
                if handle is None:
                    graphs.append(None)
                    continue
                with get_tracer().span(
                    "serve.stage.store_hydrate",
                    category="serve",
                    event=batch[i].event.event_id,
                ):
                    graphs.append(handle.materialize())
                batch[i].store_hit = True
            fresh = self.pipeline.upstream_many(
                [batch[i].event for i in miss_idx],
                graphs,
                spans=("serve.stage.construction", "serve.stage.filter"),
            )
            for i, upstream in zip(miss_idx, fresh):
                staged[keys[i]] = CachedStages(**vars(upstream))
            self._count("store_hydrated", sum(g is not None for g in graphs))
        self._count("cache_hits", len(batch) - len(miss_idx))
        self._count("cache_misses", len(miss_idx))
        return keys, staged

    # -- accounting -----------------------------------------------------
    def _count(self, field: str, n: int = 1) -> None:
        """Bump one :class:`ServeStats` field and its ``serve.*`` counter."""
        if not n:
            return
        with self._stats_lock:
            setattr(self.stats, field, getattr(self.stats, field) + n)
        get_metrics().counter(_COUNTERS[field]).add(n)

    def _record_batch(self, batch: List[ServeRequest]) -> None:
        self._count("batches")
        self._count("completed", len(batch))
        self._count("degraded", sum(1 for r in batch if r.degraded))
        self._count("breaker_degraded", sum(1 for r in batch if r.breaker_degraded))
        metrics = get_metrics()
        metrics.histogram("serve.batch_size").observe(len(batch))
        for request in batch:
            metrics.histogram("serve.latency_ms").observe(request.latency_ms)
            metrics.histogram("serve.queue_wait_ms").observe(request.queue_wait_ms)
        metrics.gauge("serve.queue_depth").set(len(self.queue))
