"""Open-loop load generator for the serving engine.

Drives a synchronous :class:`~repro.serve.InferenceEngine` with a fixed
arrival schedule (uniform or Poisson) on a simulated clock, so overload
behaviour — micro-batch formation, queue growth, shedding, degraded
serving — is observable and, with a fixed modelled service time, exactly
reproducible.

The generator is *open loop*: arrival times are drawn up front from the
offered rate and do not react to completions (a closed-loop client would
self-throttle and hide overload, which is precisely what we want to
measure).  The simulation is single-threaded discrete-event: the engine
advances the shared clock by each batch's service time (measured wall
time, or the configured constant), and arrivals that fall inside a busy
period are submitted as a burst once the server frees up — which is how
queues actually overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..detector import Event
from ..pipeline.config import knob
from .engine import InferenceEngine, ServeRequest

__all__ = ["LoadGenConfig", "LoadGenReport", "arrival_times", "run_loadgen"]

ARRIVALS = ("uniform", "poisson")


@dataclass(frozen=True)
class LoadGenConfig:
    """Open-loop schedule: ``num_requests`` arrivals at ``rate`` req/s.

    ``arrival`` selects deterministic uniform spacing (``"uniform"``) or
    exponential inter-arrival gaps (``"poisson"``, seeded) — the latter
    produces the bursts that stress admission control at rates a uniform
    schedule would survive.
    """

    rate: float = knob(50.0, "offered request rate (req/s)")
    num_requests: int = knob(64, "requests offered over the run")
    arrival: str = knob(
        "uniform", "arrival process for the open-loop schedule", ARRIVALS
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.arrival not in ARRIVALS:
            raise ValueError("arrival must be 'uniform' or 'poisson'")


def arrival_times(config: LoadGenConfig) -> np.ndarray:
    """Absolute arrival times (seconds from 0) for the schedule."""
    if config.arrival == "uniform":
        return np.arange(config.num_requests, dtype=np.float64) / config.rate
    rng = np.random.default_rng(config.seed)
    gaps = rng.exponential(scale=1.0 / config.rate, size=config.num_requests)
    times = np.cumsum(gaps)
    return times - times[0]


@dataclass
class LoadGenReport:
    """What one load-generation run offered and what came back."""

    offered: int
    completed: int
    shed: int
    degraded: int
    cache_hits: int
    batches: int
    duration_s: float
    offered_rate: float
    achieved_rate: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    queue_wait_p50_ms: float
    mean_batch_size: float

    def lines(self) -> List[str]:
        """Human-readable summary, one finding per line."""
        return [
            f"offered      {self.offered} requests @ {self.offered_rate:.1f}/s",
            f"completed    {self.completed}  (achieved {self.achieved_rate:.1f}/s)",
            f"shed         {self.shed}",
            f"degraded     {self.degraded}",
            f"cache hits   {self.cache_hits}",
            f"batches      {self.batches}  (mean size {self.mean_batch_size:.2f})",
            f"latency ms   p50={self.latency_p50_ms:.2f}  "
            f"p95={self.latency_p95_ms:.2f}  p99={self.latency_p99_ms:.2f}",
            f"queue wait   p50={self.queue_wait_p50_ms:.2f} ms",
        ]


def run_loadgen(
    engine: InferenceEngine,
    events: Sequence[Event],
    config: LoadGenConfig,
) -> LoadGenReport:
    """Offer the schedule to a synchronous engine; return the report.

    ``events`` are cycled round-robin across arrivals (replays exercise
    the stage cache).  The engine must be synchronous (``workers == 0``)
    and should run on a :class:`repro.faults.SimClock` so service time
    advances the same clock arrivals are scheduled on.
    """
    if engine.config.workers != 0:
        raise ValueError("run_loadgen drives a synchronous engine (workers=0)")
    if not events:
        raise ValueError("no events to serve")
    clock = engine.clock
    times = arrival_times(config)
    start = clock.now
    requests: List[ServeRequest] = []
    batches_before = engine.stats.batches
    for i, offset in enumerate(times):
        t_arrive = start + float(offset)
        # dispatch every batch that comes due before this arrival; each
        # pump advances the clock by its service time, so a slow server
        # naturally pushes later arrivals into a burst-submit
        while True:
            due = engine.next_due_time()
            if due is None or max(due, clock.now) >= t_arrive:
                break
            if clock.now < due:
                clock.now = due
            engine.pump()
        if clock.now < t_arrive:
            clock.now = t_arrive
        requests.append(engine.submit(events[i % len(events)]))
    # drain: everything still queued dispatches, one batch per pump
    while True:
        due = engine.next_due_time()
        if due is None:
            break
        if clock.now < due:
            clock.now = due
        if engine.pump() == 0:  # defensive: never spin
            engine.flush()
            break
    done = [r for r in requests if r.status == "done"]
    shed = sum(1 for r in requests if r.status == "shed")
    degraded = sum(1 for r in done if r.degraded)
    cache_hits = sum(1 for r in done if r.cache_hit)
    batches = engine.stats.batches - batches_before
    duration = max(clock.now - start, 1e-12)
    latencies = np.array([r.latency_ms for r in done]) if done else np.zeros(1)
    waits = np.array([r.queue_wait_ms for r in done]) if done else np.zeros(1)
    return LoadGenReport(
        offered=len(requests),
        completed=len(done),
        shed=shed,
        degraded=degraded,
        cache_hits=cache_hits,
        batches=batches,
        duration_s=float(duration),
        offered_rate=config.rate,
        achieved_rate=len(done) / duration,
        latency_p50_ms=float(np.percentile(latencies, 50)),
        latency_p95_ms=float(np.percentile(latencies, 95)),
        latency_p99_ms=float(np.percentile(latencies, 99)),
        queue_wait_p50_ms=float(np.percentile(waits, 50)),
        mean_batch_size=len(done) / batches if batches else 0.0,
    )
