"""Run-level metrics: counters, gauges, and streaming histograms.

Spans answer *where did the time go*; metrics answer *how much of
everything happened* — all-reduce calls, bytes moved, retries, sampled
subgraph sizes.  A :class:`MetricsRegistry` collects named instruments
and snapshots them to one JSON-serialisable dict.

Thread safety
-------------
Instruments are updated from many threads at once: the threaded serving
engine's lane threads, the prefetch loader's sampler threads, and each
``proc``-backend worker's heartbeat thread all write concurrently with
the exporter thread reading (:mod:`repro.obs.exporter`).  Every
read-modify-write therefore runs under a per-instrument lock, and the
registry's creation maps under a registry lock — ``Counter.add`` from
``N`` threads never loses an increment (enforced by
``tests/obs/test_metrics.py::TestConcurrency``).

Cross-process merging
---------------------
The multi-process comm backend ships each worker rank's registry to the
driver over its command pipe (:mod:`repro.distributed.proc_backend`).
:meth:`Histogram.state` / :meth:`MetricsRegistry.drain_state` produce a
picklable snapshot (raw reservoir samples, not just quantiles) and
:meth:`MetricsRegistry.merge_state` folds it into the driver registry:
counters and histograms merge under the same name (cross-rank
distribution), gauges land under a per-rank suffix.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
]


class Counter:
    """Monotonically increasing count (calls, bytes, retries)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for levels")
        with self._lock:
            self.value += amount

    def drain(self) -> float:
        """Atomically read and reset (cross-process delta shipping)."""
        with self._lock:
            value, self.value = self.value, 0.0
        return value


class Gauge:
    """Last-write-wins level (world size, best F1, modeled seconds)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Streaming distribution with quantile readout.

    Observations are kept in a bounded reservoir: once ``max_samples``
    is reached every *second* sample is dropped and the stride doubles,
    so long runs keep an unbiased-enough sketch at fixed memory while
    ``count``/``sum``/``min``/``max`` stay exact.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "_samples", "_stride",
                 "_seen", "max_samples", "_lock")

    def __init__(self, name: str, max_samples: int = 4096) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: List[float] = []
        self._stride = 1
        self._seen = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            if self._seen % self._stride == 0:
                self._shrink_reservoir()
                self._samples.append(value)
            self._seen += 1

    def _shrink_reservoir(self) -> None:
        # caller holds the lock
        while len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile over the reservoir (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            ordered = sorted(self._samples)
        if not ordered:
            return 0.0
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                        "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            count, total = self.count, self.sum
            lo, hi = self.min, self.max
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": total / count,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- cross-process state -------------------------------------------
    def state(self, reset: bool = False) -> Dict[str, Any]:
        """Picklable exact state (counts + reservoir, not just quantiles).

        With ``reset=True`` the instrument is atomically zeroed after the
        snapshot, so periodic shipping sends non-overlapping deltas.
        """
        with self._lock:
            state = {
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "samples": list(self._samples),
            }
            if reset:
                self.count = 0
                self.sum = 0.0
                self.min = math.inf
                self.max = -math.inf
                self._samples = []
                self._stride = 1
                self._seen = 0
        return state

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`state` into this one.

        ``count``/``sum``/``min``/``max`` merge exactly; reservoirs
        concatenate and re-thin to ``max_samples``.
        """
        if not state.get("count"):
            return
        with self._lock:
            self.count += int(state["count"])
            self.sum += float(state["sum"])
            if state.get("min") is not None:
                self.min = min(self.min, float(state["min"]))
            if state.get("max") is not None:
                self.max = max(self.max, float(state["max"]))
            for value in state.get("samples", ()):
                self._shrink_reservoir()
                self._samples.append(float(value))
                self._seen += 1


class MetricsRegistry:
    """Named instruments, created on first touch.

    A name is bound to one instrument kind; asking for the same name as
    a different kind is a bug and raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: Dict[str, Any]) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not kind and name in table:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._check_unique(name, self._counters)
                self._counters[name] = Counter(name)
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._check_unique(name, self._gauges)
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str, max_samples: int = 4096) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._check_unique(name, self._histograms)
                self._histograms[name] = Histogram(name, max_samples=max_samples)
            return self._histograms[name]

    def _tables(self):
        with self._lock:
            return (
                sorted(self._counters.items()),
                sorted(self._gauges.items()),
                sorted(self._histograms.items()),
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot of every instrument."""
        counters, gauges, histograms = self._tables()
        return {
            "counters": {n: c.value for n, c in counters},
            "gauges": {n: g.value for n, g in gauges},
            "histograms": {n: h.summary() for n, h in histograms},
        }

    # -- cross-process shipping ----------------------------------------
    def drain_state(self) -> Dict[str, Any]:
        """Picklable delta snapshot: counters and histograms are read
        *and reset* atomically per instrument (no lost updates under
        concurrent writers), gauges are read in place (last-write-wins
        levels re-ship their current value every time)."""
        counters, gauges, histograms = self._tables()
        return {
            "counters": {n: c.drain() for n, c in counters},
            "gauges": {n: g.value for n, g in gauges},
            "histograms": {n: h.state(reset=True) for n, h in histograms},
        }

    def merge_state(
        self, state: Dict[str, Any], gauge_suffix: Optional[str] = None
    ) -> None:
        """Fold a :meth:`drain_state` payload from another registry in.

        Counters add under the same name and histograms merge into the
        same cross-source distribution; gauges (which cannot meaningfully
        average) are stored under ``name + gauge_suffix`` so per-rank
        levels stay distinguishable.
        """
        for name, value in state.get("counters", {}).items():
            if value:
                self.counter(name).add(value)
        suffix = gauge_suffix or ""
        for name, value in state.get("gauges", {}).items():
            self.gauge(name + suffix).set(value)
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(name).merge_state(hist_state)


class _NullInstrument:
    """Accepts any instrument write and drops it."""

    __slots__ = ()

    def add(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Metrics disabled: every instrument is the same no-op object.

    Call sites write ``get_metrics().counter(name).add(n)``
    unconditionally, as they write ``get_tracer().span(...)``.
    """

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    gauge = counter

    def histogram(self, name: str, max_samples: int = 4096) -> _NullInstrument:
        return _NULL_INSTRUMENT


#: Process-wide shared null registry (what :func:`repro.obs.get_metrics`
#: returns when no telemetry is installed).
NULL_METRICS = NullMetrics()
