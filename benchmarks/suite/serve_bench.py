"""Serving workloads: open-loop and closed-loop drivers, traced run.

``serve_small_open`` is **open loop**: requests are offered on a seeded
Poisson schedule at two absolute rates whatever the server does, on a
``SimClock`` the engine advances by each batch's measured service time.
Latency is timed from each request's *due* time (``t_done - t_due``) —
``run_loadgen`` stamps ``t_submit`` only once the server is free, which
leaves out exactly the wait a stall imposes — and how late the generator
ran is reported beside it.  ``serve_large_replay`` is **closed loop**
with one client: the next batch of 8 is sent when the previous returned.
"""

from __future__ import annotations

import resource
import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.detector import Event
from repro.faults import SimClock
from repro.guard import Quarantine
from repro.metrics import TrackingEvaluation, match_tracks
from repro.pipeline import (
    EmbeddingStage,
    ExaTrkXPipeline,
    FilterStage,
    GNNStage,
    GraphConstructionStage,
)
from repro.pipeline import graph_construction as construction_module
from repro.pipeline import pipeline as pipeline_module
from repro.serve import InferenceEngine, LoadGenConfig, StageCache, arrival_times
from repro.serve import engine as engine_module

from .harness import Checks, percentile, rss_mb, set_up_repeatedly
from .tracing import Recorder
from .workloads import (
    DATA_SEED,
    TAG_ARRIVAL,
    TAG_ORDER,
    TAG_SERVE,
    TAG_TRAIN,
    TAG_VAL,
    ServeWorkload,
    event_digest,
    generate_events,
    make_simulator,
)

__all__ = ["run_end_to_end", "run_traced"]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
class ServeInputs:
    def __init__(self, pipeline, events, fit_events, timings) -> None:
        self.pipeline: ExaTrkXPipeline = pipeline
        self.events: List[Event] = events
        self.fit_events: List[Event] = fit_events
        self.timings: Dict[str, float] = timings

    def digest(self) -> Dict[str, object]:
        return event_digest(self.fit_events + self.events)

    def cleanup(self) -> None:
        """Nothing on disk (the training inputs' counterpart removes a store)."""


def set_up(w: ServeWorkload) -> ServeInputs:
    """Generate events and fit the pipeline.  No disk cache."""
    t0 = perf_counter()
    simulator, geometry = make_simulator(w.sim)
    train, gen_a = generate_events(simulator, TAG_TRAIN, w.fit_train)
    val, gen_b = generate_events(simulator, TAG_VAL, w.fit_val, first_id=w.fit_train)
    pipeline = ExaTrkXPipeline(w.pipeline, geometry)
    t1 = perf_counter()
    pipeline.fit(train, val, rng=np.random.default_rng(w.pipeline.seed))
    fit_s = perf_counter() - t1
    events, gen_c = generate_events(simulator, TAG_SERVE, w.unique_events, first_id=1000)
    timings = {
        "generate_s": gen_a + gen_b + gen_c,
        "fit_s": fit_s,
        "setup_s": perf_counter() - t0,
    }
    return ServeInputs(pipeline, events, train + val, timings)


# ----------------------------------------------------------------------
# one pass = one fresh engine serving the whole stream
# ----------------------------------------------------------------------
class Pass:
    """What one pass offered and what came back."""

    def __init__(self, requests, due, wall_s, engine) -> None:
        self.requests = requests
        self.due: List[float] = due  # engine-clock time each request was due
        self.wall_s = wall_s  # real seconds the pass kept the process busy
        self.stats = engine.stats

    @property
    def ok(self) -> List:
        return [r for r in self.requests if r.status == "done" and not r.degraded]

    @property
    def latencies_ms(self) -> List[float]:
        """Due time to completion, for the requests that completed."""
        return [1e3 * (r.t_done - d) for r, d in zip(self.requests, self.due) if r.status == "done"]

    @property
    def late_ms(self) -> List[float]:
        """How late the generator submitted each request (submit - due)."""
        return [1e3 * (r.t_submit - d) for r, d in zip(self.requests, self.due)]

    def within(self, limit_ms: float) -> int:
        """Requests that finished non-degraded within ``limit_ms`` of due."""
        return sum(
            1 for r, d in zip(self.requests, self.due)
            if r.status == "done" and not r.degraded and 1e3 * (r.t_done - d) <= limit_ms
        )


def _order(seed: int, pass_index: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, TAG_ORDER, pass_index]).permutation(n)


def open_loop_pass(w: ServeWorkload, inputs: ServeInputs, seed: int, pass_index: int, rate: float) -> Pass:
    """Offer every unique event once at ``rate``/s: pass ``k`` of every run
    follows the same frozen Poisson schedule, ``--seed`` decides which
    event arrives in which slot."""
    n = len(inputs.events)
    schedule = arrival_times(
        LoadGenConfig(
            rate=rate, num_requests=n, arrival="poisson",
            seed=int(np.random.default_rng([DATA_SEED, TAG_ARRIVAL, pass_index]).integers(2**31)),
        )
    )
    order = _order(seed, pass_index, n)
    clock = SimClock()
    engine = InferenceEngine(inputs.pipeline, w.serve, clock=clock)
    requests, due_times = [], []
    t0 = perf_counter()
    for t_due, idx in zip(schedule, order):
        t_due = float(t_due)
        # dispatch every batch that comes due before this arrival; a pump
        # advances the clock by the batch's service time, so a busy server
        # pushes the submit past the due time
        while True:
            due = engine.next_due_time()
            if due is None or max(due, clock.now) >= t_due:
                break
            clock.now = max(clock.now, due)
            engine.pump()
        clock.now = max(clock.now, t_due)
        requests.append(engine.submit(inputs.events[idx]))
        due_times.append(t_due)
    while True:  # drain: the rest dispatches as its deadlines expire
        due = engine.next_due_time()
        if due is None:
            break
        clock.now = max(clock.now, due)
        if engine.pump() == 0:
            engine.flush()
    wall = perf_counter() - t0
    engine.close()
    return Pass(requests, due_times, wall, engine)


def closed_loop_pass(w: ServeWorkload, inputs: ServeInputs, seed: int, pass_index: int) -> Pass:
    """One client replays the unique set ``replays`` times, each replay in
    its own seeded order, sending the next batch when the last returned."""
    n = len(inputs.events)
    stream = [
        inputs.events[i]
        for replay in range(w.replays)
        for i in _order(seed, pass_index * w.replays + replay, n)
    ]
    engine = InferenceEngine(inputs.pipeline, w.serve)
    requests = []
    t0 = perf_counter()
    for start in range(0, len(stream), w.client_batch):
        requests.extend(engine.process(stream[start : start + w.client_batch]))
    wall = perf_counter() - t0
    engine.close()
    # a closed-loop request is due the moment its client sends it
    return Pass(requests, [r.t_submit for r in requests], wall, engine)


def _one_pass(w, inputs, seed, pass_index) -> Pass:
    if w.open_loop:
        return open_loop_pass(w, inputs, seed, pass_index, w.rate_lo)
    return closed_loop_pass(w, inputs, seed, pass_index)


# ----------------------------------------------------------------------
# output checks and tracking quality
# ----------------------------------------------------------------------
def _parity(inputs: ServeInputs, passes: Sequence[Pass], checks: Checks, count: int) -> float:
    """Engine tracks must equal sequential ``reconstruct`` tracks on the
    first ``count`` unique events; returns the sequential loop's events/s."""
    served = {}
    for p in passes:
        for r in p.requests:
            if r.status == "done":
                served.setdefault(r.event.event_id, r.tracks)
    sample = inputs.events[:count]
    t0 = perf_counter()
    sequential = [inputs.pipeline.reconstruct(e) for e in sample]
    seq_rate = len(sample) / (perf_counter() - t0)
    equal = all(
        e.event_id in served
        and len(served[e.event_id]) == len(tracks)
        and all(np.array_equal(a, b) for a, b in zip(served[e.event_id], tracks))
        for e, tracks in zip(sample, sequential)
    )
    checks.check(equal, "engine tracks differ from sequential reconstruct tracks")
    return seq_rate


def _quality(inputs: ServeInputs, pass_: Pass, min_hits: int) -> Tuple[float, float, float]:
    """Pooled efficiency and fake rate over one pass's served events, and
    the seconds the matching took."""
    t0 = perf_counter()
    served = {r.event.event_id: r for r in pass_.requests if r.status == "done"}
    scores = [
        match_tracks(r.tracks, r.event.particle_ids, min_hits=min_hits) for r in served.values()
    ]
    pooled = TrackingEvaluation(per_event=scores, pt_efficiency=None, pt_residuals=np.zeros(0))
    return pooled.efficiency, pooled.fake_rate, perf_counter() - t0


# ----------------------------------------------------------------------
# end to end (tracing off)
# ----------------------------------------------------------------------
def run_end_to_end(w: ServeWorkload, seed: int, seconds: float, setups: int = 3):
    checks = Checks()
    inputs, setup_times = set_up_repeatedly(lambda: set_up(w), setups)
    t_start = perf_counter()
    # pass 0 warms up (allocator, buffer arena, scatter plans: its slowest
    # batch takes 1.3x a later pass's); it is checked but not timed
    passes: List[Pass] = [_one_pass(w, inputs, seed, 0)]
    while len(passes) <= w.min_passes or perf_counter() - t_start < seconds:
        passes.append(_one_pass(w, inputs, seed, len(passes)))
    timed = passes[1:]
    failed_ops = sum(len(p.requests) - len(p.ok) for p in passes)
    checks.check(failed_ops == 0, f"{failed_ops} requests shed/failed/degraded")
    _parity(inputs, passes, checks, w.parity_events)
    efficiency, fake_rate, _ = _quality(inputs, passes[0], w.pipeline.min_track_hits)
    checks.check(efficiency > 0.0, "no truth particle was reconstructed")
    if not w.open_loop:
        hits = sum(p.stats.cache_hits for p in passes)
        total = sum(len(p.requests) for p in passes)
        expected = (w.replays - 1) / w.replays
        checks.check(abs(hits / total - expected) < 1e-9, f"cache hit rate {hits / total:.4f} != {expected:.4f}")
    requests = sum(len(p.requests) for p in passes)
    # medians over passes: one pass hit by a noisy neighbour does not move
    # them, which a pooled p99 (its top ten samples) would
    pass_rate = [len(p.requests) / p.wall_s for p in timed]
    pass_p50 = [percentile(p.latencies_ms, 50) for p in timed]
    pass_tail = [percentile(p.latencies_ms, w.tail_percentile) for p in timed]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(pass_rate),
        "latency_p50_ms": statistics.median(pass_p50),
        "latency_tail_ms": statistics.median(pass_tail),
        "peak_rss_mb": rss_mb(resource.RUSAGE_SELF),
    }
    loop = (
        f"open loop, frozen Poisson schedules at rate_lo {w.rate_lo:g}/s, latency timed from "
        "each request's due time"
        if w.open_loop
        else f"closed loop, one client, batches of {w.client_batch}"
    )
    detail = {
        "digest": inputs.digest(),
        "passes": len(passes),
        "requests": requests,
        "failed_ops": failed_ops,
        "samples": {
            "setup_s": setup_times,
            "throughput_per_s": pass_rate,
            "latency_p50_ms": pass_p50,
            "latency_tail_ms": pass_tail,
        },
        "track_efficiency": efficiency,
        "track_fake_rate": fake_rate,
        "notes": [
            f"{w.name} is {loop}; one warm-up pass, then {len(timed)} timed passes x "
            f"{len(timed[0].requests)} requests",
            f"op = one request; each metric is the median over passes: requests / busy wall, p50 and "
            f"p{w.tail_percentile:g} of a pass's latencies ({sum(len(p.requests) for p in timed)} samples in all)",
        ],
    }
    return metrics, checks, requests, detail


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _install(recorder: Recorder, counts: Dict[str, int]) -> None:
    """Wrap the layer entry points the engine calls into."""

    def add(key, amount) -> None:
        counts[key] = counts.get(key, 0) + int(amount)

    def after_submit(rec, _request) -> None:
        rec.op += 1  # spans of the next request carry the next id

    recorder.wrap(Quarantine, "admit", "guard.admit")
    recorder.wrap(InferenceEngine, "submit", "serve.submit", after=after_submit)
    recorder.wrap(InferenceEngine, "pump", "serve.dispatch")
    recorder.wrap(InferenceEngine, "flush", "serve.dispatch")
    recorder.wrap(engine_module, "event_fingerprint", "serve.cache")
    recorder.wrap(StageCache, "get", "serve.cache")
    recorder.wrap(StageCache, "put", "serve.cache")
    recorder.wrap(
        GraphConstructionStage, "build_many", "pipeline.construction",
        after=lambda rec, graphs: add("graph.edges_built", sum(g.num_edges for g in graphs)),
    )
    recorder.wrap(EmbeddingStage, "embed_many", "pipeline.embed")
    recorder.wrap(construction_module, "fixed_radius_graph", "graph.frnn")
    recorder.wrap(
        FilterStage, "prune_many", "pipeline.filter",
        after=lambda rec, out: add("pipeline.edges_after_filter", sum(t[0].num_edges for t in out)),
    )
    recorder.wrap(ExaTrkXPipeline, "finish_from_filtered", "pipeline.finish")
    recorder.wrap(
        GNNStage, "prune", "pipeline.gnn",
        after=lambda rec, out: add("pipeline.edges_after_gnn", out[0].num_edges),
    )
    recorder.wrap(
        pipeline_module, "build_tracks", "pipeline.track_building",
        after=lambda rec, tracks: add("pipeline.tracks", len(tracks)),
    )


def _traced_pass(w, inputs, seed, pass_index):
    recorder = Recorder()
    counts: Dict[str, int] = {}
    _install(recorder, counts)
    try:
        with recorder.span("serve.run"):
            pass_ = _one_pass(w, inputs, seed, pass_index)
    finally:
        recorder.restore()
    return recorder, counts, pass_


def run_traced(w: ServeWorkload, seed: int, seconds: float):
    checks = Checks()
    inputs = set_up(w)

    untraced: List[Pass] = []
    traced: List[Pass] = []
    t_start = perf_counter()
    index = 0
    while not traced or (len(traced) < 2 and perf_counter() - t_start < seconds / 2):
        untraced.append(_one_pass(w, inputs, seed, index))
        rec, counts, pass_ = _traced_pass(w, inputs, seed, index)
        traced.append(pass_)
        index += 1
    reference = untraced[-1]

    main = rec.self_times(rec.main_thread)
    other = main.get("serve.run", 0.0)
    root_wall = rec.totals()["serve.run"]
    coverage = 1.0 - other / root_wall
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced) - 1.0
    engine_overhead = sum(main.get(k, 0.0) for k in ("serve.submit", "serve.dispatch", "serve.cache", "pipeline.finish"))
    waits = [r.queue_wait_ms for r in reference.requests if r.status == "done"]
    submit_latency = [r.latency_ms for r in reference.requests if r.status == "done"]
    stats = reference.stats
    served = stats.cache_hits + stats.cache_misses
    admits = rec.durations("guard.admit")

    failed_ops = len(reference.requests) - len(reference.ok)
    checks.check(failed_ops == 0, f"{failed_ops} requests shed/failed/degraded")
    seq_rate = _parity(inputs, [reference, pass_], checks, len(inputs.events))  # every unique event
    same = all(
        a.status == b.status and len(a.tracks) == len(b.tracks)
        and all(np.array_equal(x, y) for x, y in zip(a.tracks, b.tracks))
        for a, b in zip(reference.requests, pass_.requests)
    )
    checks.check(same, "traced pass served different tracks than the untraced pass")
    efficiency, fake_rate, eval_s = _quality(inputs, reference, w.pipeline.min_track_hits)
    t0 = perf_counter()
    match_tracks(reference.requests[0].tracks, reference.requests[0].event.particle_ids,
                 min_hits=w.pipeline.min_track_hits)
    match_s = perf_counter() - t0

    # the second offered rate: share of requests *sent* that finish
    # non-degraded within the frozen limit; a request shed there is an SLO
    # miss by construction, not a failed operation of the run
    slo_share = late_p99 = 0.0
    hi: List[Pass] = []
    if w.open_loop:
        # pooled over a few passes: one pass's share moves by 0.2 with the box
        hi = [open_loop_pass(w, inputs, seed, index + k, w.rate_hi) for k in range(w.slo_passes)]
        slo_share = sum(p.within(w.slo_limit_ms) for p in hi) / sum(len(p.requests) for p in hi)
        late_p99 = percentile(reference.late_ms, 99)
    else:
        expected = (w.replays - 1) / w.replays
        checks.check(abs(stats.cache_hits / served - expected) < 1e-9,
                     f"cache hit rate {stats.cache_hits / served:.4f} != {expected:.4f}")
    checks.check(coverage >= w.coverage_floor, f"trace.coverage {coverage:.3f} < {w.coverage_floor}")

    m: Dict[str, float] = {
        "detector.generate_s": inputs.timings["generate_s"],
        "pipeline.fit_s": inputs.timings["fit_s"],
        "pipeline.embed_s": main.get("pipeline.embed", 0.0),
        "pipeline.construction_s": main.get("pipeline.construction", 0.0) + main.get("graph.frnn", 0.0),
        "graph.frnn_s": main.get("graph.frnn", 0.0),
        "pipeline.filter_s": main.get("pipeline.filter", 0.0),
        "pipeline.gnn_s": main.get("pipeline.gnn", 0.0),
        "pipeline.track_building_s": main.get("pipeline.track_building", 0.0),
        "graph.edges_built": counts.get("graph.edges_built", 0),
        "pipeline.edges_after_filter": counts.get("pipeline.edges_after_filter", 0),
        "pipeline.edges_after_gnn": counts.get("pipeline.edges_after_gnn", 0),
        "pipeline.tracks": counts.get("pipeline.tracks", 0),
        "serve.requests": len(reference.requests),
        "serve.queue_wait_p50_ms": percentile(waits, 50),
        "serve.queue_wait_p99_ms": percentile(waits, 99),
        "serve.batch_size_mean": stats.completed / stats.batches if stats.batches else 0.0,
        "serve.batches": stats.batches,
        "serve.cache_hit_rate": stats.cache_hits / served if served else 0.0,
        "serve.shed": stats.shed + sum(p.stats.shed for p in hi),
        "serve.degraded": stats.degraded + sum(p.stats.degraded for p in hi),
        "serve.failed": stats.failed + stats.timed_out + sum(p.stats.failed + p.stats.timed_out for p in hi),
        "serve.engine_overhead_s": engine_overhead,
        "serve.batch_speedup": (len(reference.requests) / reference.wall_s) / seq_rate,
        "serve.late_p99_ms": late_p99,
        "serve.submit_latency_p99_ms": percentile(submit_latency, 99),
        "serve.slo_share": slo_share,
        "guard.admit_us": 1e6 * statistics.mean(admits) if admits else 0.0,
        "guard.quarantined": stats.quarantined,
        "metrics.track_efficiency": efficiency,
        "metrics.track_fake_rate": fake_rate,
        "metrics.match_s": match_s,
        "metrics.eval_s": eval_s,
        "serve.other_s": other,
        "trace.coverage": coverage,
        "trace.overhead": overhead,
        "trace.spans": len(rec.spans),
    }
    loop = (
        f"open loop at rate_lo {w.rate_lo:g}/s (latency) and rate_hi {w.rate_hi:g}/s (SLO share over {w.slo_passes} passes, limit {w.slo_limit_ms:g} ms)"
        if w.open_loop else f"closed loop, one client, batches of {w.client_batch}"
    )
    detail = {
        "digest": inputs.digest(),
        "failed_ops": failed_ops,
        "self_times_s": main,
        "span_counts": rec.counts(),
        "untraced_wall_s": [p.wall_s for p in untraced],
        "traced_wall_s": [p.wall_s for p in traced],
        "spans": rec.dump(),
        "notes": [f"{w.name} is {loop}"],
    }
    return m, checks, len(reference.requests), detail
