"""Circuit breaker: contain a persistently failing serving stage.

The serving engine already degrades a *slow* batch (GNN skipped when the
latency budget is blown).  What it could not survive before this module
is a GNN stage that *keeps failing* — a poisoned model file, an OOM-ing
kernel, injected :class:`repro.faults.StageFault` chaos.  Retrying such
a stage on every batch burns the latency budget of every request behind
it; the classic answer is a circuit breaker:

::

          failures >= threshold
    closed ────────────────────▶ open
      ▲                           │ cooldown elapsed
      │ probe successes           ▼
      └──────────────────── half-open ──▶ (probe fails → open again)

* **closed** — normal operation; consecutive failures are counted and a
  success resets the count.
* **open** — the stage is not attempted at all; callers route to their
  fallback (degraded GNN-skip serving).  After ``cooldown_s`` on the
  injected clock the breaker lets one probe through.
* **half-open** — probes trickle through; ``probe_successes`` in a row
  close the breaker, any failure reopens it and restarts the cooldown.

The breaker is deliberately unaware of *what* it protects: callers
report ``record_success`` / ``record_failure`` and ask ``allow()``.
Time comes from an injectable clock (``now`` attribute, wall or
:class:`repro.faults.SimClock`), so every transition is deterministic in
tests.  All methods are thread-safe (the engine's lane threads share one
breaker).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..faults import WallClock
from ..obs import get_metrics, get_tracer

__all__ = ["BreakerConfig", "BreakerOpenError", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class BreakerOpenError(RuntimeError):
    """The protected stage was invoked while the breaker is open."""


@dataclass(frozen=True)
class BreakerConfig:
    """Circuit-breaker knobs.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (stage exceptions, and latency breaches if
        the caller reports them) that trip closed → open.
    cooldown_s:
        Seconds (on the breaker's clock) the breaker stays open before
        admitting a half-open probe.
    probe_successes:
        Consecutive half-open successes required to close.
    """

    failure_threshold: int = 3
    cooldown_s: float = 1.0
    probe_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if self.probe_successes < 1:
            raise ValueError("probe_successes must be >= 1")


class CircuitBreaker:
    """closed → open → half-open state machine over an injectable clock.

    Parameters
    ----------
    config:
        :class:`BreakerConfig` thresholds.
    clock:
        Object with a ``now`` attribute in seconds; defaults to the wall
        clock.
    name:
        Telemetry prefix — transitions emit ``guard.breaker.<name>.*``
        counters and a state gauge (0 = closed, 1 = half-open, 2 = open).
    on_transition:
        Optional callback ``(old_state, new_state)`` for callers that
        need to react (logging, health endpoints).
    """

    def __init__(
        self,
        config: Optional[BreakerConfig] = None,
        clock=None,
        name: str = "stage",
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.clock = clock if clock is not None else WallClock()
        self.name = name
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self.transitions: Dict[str, int] = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed cooldown."""
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # lock held; promote open → half-open once the cooldown elapses
        if self._state == OPEN and (
            self.clock.now - self._opened_at >= self.config.cooldown_s
        ):
            self._transition(HALF_OPEN)
        return self._state

    def allow(self) -> bool:
        """May the protected stage be attempted right now?

        ``True`` in closed and half-open (the probe), ``False`` while
        open.  Calling this does not consume anything; report the
        attempt's outcome with :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._lock:
            return self._effective_state() != OPEN

    # -- outcomes -------------------------------------------------------
    def record_success(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.config.probe_successes:
                    self._transition(CLOSED)
            elif state == CLOSED:
                self._consecutive_failures = 0

    def record_failure(self, kind: str = "exception") -> None:
        """Report one failed attempt (``kind``: "exception" | "latency")."""
        get_metrics().counter(f"guard.breaker.{self.name}.failures.{kind}").add(1)
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                # the probe failed: straight back to open, fresh cooldown
                self._transition(OPEN)
            elif state == CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.config.failure_threshold:
                    self._transition(OPEN)
            # open: the stage should not have been attempted; ignore

    # -- internals ------------------------------------------------------
    def _transition(self, new_state: str) -> None:
        # lock held
        old = self._state
        if new_state == old:
            return
        self._state = new_state
        self.transitions[new_state] += 1
        if new_state == OPEN:
            self._opened_at = self.clock.now
            self._probe_successes = 0
        elif new_state == CLOSED:
            self._consecutive_failures = 0
            self._probe_successes = 0
        elif new_state == HALF_OPEN:
            self._probe_successes = 0
        metrics = get_metrics()
        metrics.counter(f"guard.breaker.{self.name}.{new_state}").add(1)
        metrics.gauge(f"guard.breaker.{self.name}.state").set(_STATE_GAUGE[new_state])
        get_tracer().event(
            "guard.breaker.transition",
            category="guard",
            breaker=self.name,
            old=old,
            new=new_state,
        )
        if self.on_transition is not None:
            self.on_transition(old, new_state)
