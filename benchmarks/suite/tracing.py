"""In-memory span recorder used by the traced runs.

The program is not instrumented for the ledger: the benchmark wraps the
calls into each layer's public functions (:meth:`Recorder.wrap`) for the
duration of one traced run and restores them afterwards.  A span is
``(name, start, end, parent, op)``; ``op`` is the optimisation-step or
request id current when the span opened.  A layer's *self time* is its
span minus the part its child spans cover; spans opened on other threads
(the prefetch pool) are kept apart per thread, so self times of the
calling thread add up to the root span's wall.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Recorder"]

_INHERITED = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op")

    def __init__(self, name: str, start: float, parent: int, thread: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Recorder.spans, -1 for a root
        self.thread = thread
        self.op = op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; patches and restores wrapped callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0  # current step / request id, advanced by the harness
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self.main_thread = threading.get_ident()

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, 0.0, stack[-1] if stack else -1, threading.get_ident(), self.op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[["Recorder", object], None]] = None,
    ) -> bool:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``after(recorder, result)`` runs inside the span once the call
        returned (counts, op-id bookkeeping).  A target that no longer
        exists is skipped — its metrics then read 0 and the coverage
        check says so — rather than crashing the ledger.
        """
        if not hasattr(owner, attr):
            return False
        # the raw class attribute (keeps classmethod objects intact on
        # restore); _INHERITED marks a method the class does not define
        raw = owner.__dict__.get(attr, _INHERITED) if isinstance(owner, type) else None
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
                if after is not None:
                    after(recorder, result)
                return result

        wrapper.__wrapped__ = original
        replacement: object = wrapper
        if isinstance(raw, classmethod):
            # ``original`` is already bound to the class
            replacement = staticmethod(wrapper)
        self._patched.append((owner, attr, original if raw is None else raw))
        setattr(owner, attr, replacement)
        return True

    def replace(self, owner: type, attr: str, replacement: object) -> None:
        """Swap in a hand-written stand-in for ``owner.attr`` (restored
        with the rest); for call shapes :meth:`wrap` cannot express."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self, thread: Optional[int] = None) -> Dict[str, float]:
        """Σ self time per span name (one thread, or all when ``None``)."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_total[span.parent] += span.seconds
        out: Dict[str, float] = {}
        for span, covered in zip(self.spans, child_total):
            if thread is not None and span.thread != thread:
                continue
            out[span.name] = out.get(span.name, 0.0) + max(span.seconds - covered, 0.0)
        return out

    def totals(self) -> Dict[str, float]:
        """Σ inclusive time per span name, all threads."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def durations(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def dump(self) -> List[dict]:
        """Spans as plain dicts (written out when the benchmark ends)."""
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
                "op": s.op,
            }
            for s in self.spans
        ]
