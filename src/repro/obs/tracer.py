"""Hierarchical span tracing.

The paper's headline results are timing decompositions (Figure 3 splits
epoch time into sampling vs. training; the coalesced all-reduce argument
is a latency-accounting claim), so the runtime needs a structured record
of *where time goes* rather than ad-hoc prints.  A :class:`Tracer`
produces nested spans — ``epoch → batch → {sampling, forward, backward,
allreduce}`` in the trainers — recorded to an in-memory buffer and
exportable as JSONL event logs or Chrome ``trace_event`` JSON (loadable
in ``chrome://tracing`` / Perfetto).

When tracing is off the hot paths go through :data:`NULL_TRACER`, whose
``span()`` returns a shared no-op context manager: no allocation, no
timestamp reads, no buffer growth.  The no-op guarantee is verified by a
test (``tests/obs/test_tracer.py``).

Multi-process traces
--------------------
The ``proc`` comm backend runs one tracer per worker rank and ships the
buffers to the driver over the command pipe (workers call
:meth:`Tracer.drain_records`, the driver calls
:meth:`Tracer.ingest_remote`).  Ingested records are timestamp-rebased to
the driver's origin — ``perf_counter`` is CLOCK_MONOTONIC on Linux, so
the same clock is readable in every process and a simple shift aligns
the lanes — and exported with a per-rank ``pid``, giving one Perfetto
process track per rank next to the driver's ``pid 0`` lane.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed scope.  Used as a context manager handed out by
    :meth:`Tracer.span`; closed spans land in the tracer's buffer.

    Attributes
    ----------
    name, category:
        Label and coarse grouping (``"stage"``, ``"comm"``, ...).
    start_s, end_s:
        ``perf_counter`` timestamps relative to the tracer's origin.
    span_id, parent_id, depth:
        Tree structure; ``parent_id`` is ``None`` for root spans.
    attributes:
        Arbitrary JSON-serialisable payload (``nbytes``, ``world_size``,
        ``modeled_s``, ...).
    """

    __slots__ = (
        "name",
        "category",
        "start_s",
        "end_s",
        "span_id",
        "parent_id",
        "depth",
        "tid",
        "attributes",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        attributes: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attributes = attributes
        self.start_s = 0.0
        self.end_s = 0.0
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.tid = 0

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the (possibly still open) span."""
        self.attributes.update(attrs)
        return self

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__
        self._tracer._close(self)
        return False

    def to_record(self) -> Dict[str, Any]:
        """JSONL-ready dict."""
        return {
            "type": "span",
            "name": self.name,
            "cat": self.category,
            "t0": self.start_s,
            "t1": self.end_s,
            "dur": self.duration_s,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "tid": self.tid,
            "attrs": self.attributes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, dur={self.duration_s:.6f}s, "
            f"depth={self.depth}, attrs={self.attributes})"
        )


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every ``span()`` is the same no-op object.

    Hot paths call ``get_tracer().span(...)`` unconditionally; with the
    null tracer that is one attribute lookup and one shared object —
    no timestamps, no allocation, no recording.
    """

    enabled = False

    def span(self, name: str, category: str = "span", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, category: str = "event", **attrs: Any) -> None:
        return None

    def carry(self, fn: Callable) -> Callable:
        return fn

    @property
    def spans(self) -> tuple:
        return ()

    @property
    def events(self) -> tuple:
        return ()


#: Process-wide shared null tracer (what :func:`repro.obs.get_tracer`
#: returns when no telemetry is installed).
NULL_TRACER = NullTracer()


def _chrome_event(rec: Dict[str, Any]) -> Dict[str, Any]:
    """One exported record in Chrome ``trace_event`` form: a span is a
    complete (``"X"``) event, an event an instant (``"i"``) one."""
    args = dict(rec.get("attrs", {}))
    if "t0" in rec:
        args.update(depth=rec.get("depth", 0), id=rec.get("id"), parent=rec.get("parent"))
        shape = {"cat": rec.get("cat", "span"), "ph": "X", "ts": rec["t0"] * 1e6,
                 "dur": (rec["t1"] - rec["t0"]) * 1e6}
        scope = {}
    else:
        shape = {"cat": rec.get("cat", "event"), "ph": "i", "ts": rec["t"] * 1e6}
        scope = {"s": "t"}
    if rec.get("rank") is not None:
        args["rank"] = rec["rank"]
    return {"name": rec["name"], **shape, "pid": rec.get("pid", 0),
            "tid": rec.get("tid", 0), **scope, "args": args}


class Tracer:
    """Recording tracer: hierarchical spans + instantaneous events.

    Spans nest through a *per-thread* stack: a span opened while another
    is active on the same thread becomes its child (``parent_id`` /
    ``depth``).  Closed spans are appended to :attr:`spans` in close
    order (children before parents).

    The tracer is single-process but thread-aware: the prefetching data
    pipeline (:mod:`repro.data`) samples on worker threads, and their
    sampler spans must land in the same trace as the main-thread compute
    spans without corrupting either thread's nesting.  Each OS thread
    gets a compact lane id (``tid``, main/creator thread = 0) carried on
    every span and used as the Chrome-trace ``tid`` — Perfetto then shows
    sampling overlapping compute on separate tracks.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._origin = clock()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: Dict[int, int] = {threading.get_ident(): 0}
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        #: span/event records ingested from other processes' tracers,
        #: already rebased to this tracer's origin and tagged with a pid.
        self.remote_spans: List[Dict[str, Any]] = []
        self.remote_events: List[Dict[str, Any]] = []
        self._process_names: Dict[int, str] = {}

    @property
    def origin(self) -> float:
        """Absolute clock reading all relative timestamps are measured
        from (used to rebase remote lanes onto this tracer's timeline)."""
        return self._origin

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "span", **attrs: Any) -> Span:
        """Create a span; enter it (``with``) to start the clock."""
        return Span(self, name, category, attrs)

    def event(self, name: str, category: str = "event", **attrs: Any) -> None:
        """Record an instantaneous event under the current span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        record = {
            "type": "event",
            "name": name,
            "cat": category,
            "t": self._clock() - self._origin,
            "parent": parent,
            "tid": self._tid(),
            "attrs": attrs,
        }
        with self._lock:
            self.events.append(record)

    def carry(self, fn: Callable) -> Callable:
        """``fn`` for another thread (the per-event map's helpers): the spans
        it opens are children of the span open here now, if any."""
        parents = self._stack()[-1:]

        def run(*args: Any) -> Any:
            stack = self._stack()
            stack.extend(parents)
            try:
                return fn(*args)
            finally:
                del stack[len(stack) - len(parents):]  # the parent pushed here
        return run

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------
    def _open(self, span: Span) -> None:
        stack = self._stack()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        span.tid = self._tid()
        if stack:
            span.parent_id = stack[-1].span_id
            span.depth = stack[-1].depth + 1
        stack.append(span)
        span.start_s = self._clock() - self._origin

    def _close(self, span: Span) -> None:
        span.end_s = self._clock() - self._origin
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(open stack: {[s.name for s in stack]})"
            )
        stack.pop()
        with self._lock:
            self.spans.append(span)

    # -- queries -------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of all *closed* spans with this name."""
        return sum(s.duration_s for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- cross-process shipping ----------------------------------------
    def drain_records(self) -> "tuple[List[Dict[str, Any]], List[Dict[str, Any]]]":
        """Atomically snapshot-and-clear closed spans and events.

        Workers call this at epoch boundaries so repeated shipments carry
        non-overlapping deltas.  Open spans stay on their thread stacks
        and land in a later drain once closed.
        """
        with self._lock:
            span_records = [s.to_record() for s in self.spans]
            event_records = list(self.events)
            self.spans = []
            self.events = []
        return span_records, event_records

    def ingest_remote(
        self,
        spans: Iterable[Dict[str, Any]],
        events: Iterable[Dict[str, Any]],
        pid: int,
        process_name: str,
        time_shift: float = 0.0,
        rank: Optional[int] = None,
    ) -> None:
        """Merge another process's drained records into this trace.

        ``time_shift`` is ``remote_origin - self.origin`` in seconds:
        adding it converts remote-relative timestamps onto this tracer's
        timeline.  ``pid`` must be nonzero (0 is this process's lane);
        ``process_name`` labels the lane in Chrome-trace viewers.
        """
        if pid == 0:
            raise ValueError("pid 0 is reserved for the local lane")

        def rebase(rec: Dict[str, Any], *stamps: str) -> Dict[str, Any]:
            rec = dict(rec)
            for key in stamps:
                rec[key] = rec[key] + time_shift
            rec["pid"] = pid
            if rank is not None:
                rec["rank"] = rank
            return rec

        shifted_spans = [rebase(rec, "t0", "t1") for rec in spans]
        shifted_events = [rebase(rec, "t") for rec in events]
        with self._lock:
            self._process_names[pid] = process_name
            self.remote_spans.extend(shifted_spans)
            self.remote_events.extend(shifted_events)

    # -- export --------------------------------------------------------
    def _records(self) -> List[Dict[str, Any]]:
        """Every record in export order: local spans (close order), local
        events, ingested spans, ingested events.  Local records carry no
        ``pid`` key (implicitly lane 0); ingested ones keep their
        ``pid`` / ``rank`` tags."""
        local: List[Dict[str, Any]] = [s.to_record() for s in self.spans]
        return local + self.events + self.remote_spans + self.remote_events

    def to_jsonl_lines(self) -> List[str]:
        """One JSON object per line, in :meth:`_records` order."""
        return [json.dumps(r) for r in self._records()]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.to_jsonl_lines():
                fh.write(line + "\n")

    def to_chrome_trace(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Chrome ``trace_event`` JSON object format.

        Loadable in ``chrome://tracing`` and https://ui.perfetto.dev:
        complete (``"X"``) events with microsecond ``ts``/``dur``, plus
        instant (``"i"``) events.  Run metadata rides in ``otherData``.
        """
        trace_events: List[Dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
            for pid, name in [(0, "repro")] + sorted(self._process_names.items())
        ]
        trace_events.extend(_chrome_event(r) for r in self._records())
        out: Dict[str, Any] = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
        }
        if metadata:
            out["otherData"] = dict(metadata)
        return out

    def write_chrome_trace(
        self, path: str, metadata: Optional[Dict[str, Any]] = None
    ) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(metadata), fh)
