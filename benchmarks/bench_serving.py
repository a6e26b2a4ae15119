"""Serving engine — batched throughput vs the sequential per-event loop.

The acceptance experiment for ``repro.serve``: a stream of reconstruction
requests (with replays, as production calibration/trigger sweeps produce)
is served two ways —

* **sequential**: the plain per-event ``Pipeline.reconstruct`` loop every
  offline script uses;
* **engine**: the micro-batching :class:`repro.serve.InferenceEngine`,
  which answers replayed events from the stage cache.  A micro-batch
  shares no compute (every stage forward is per event), so the cache is
  the whole of the engine's advantage here.

The bench asserts bit-identical tracks and ≥1.5× engine throughput: 20
of 24 requests are answered from the stage cache's memoised tracks (no
stage runs for them), and that must outweigh the engine's queueing and
dispatch.  From the run's telemetry
export it reports p50/p99 latency plus the shed/degraded/cache-hit
counters, with a deterministic overload segment (fixed modelled service
time on a simulated clock) driving the shedding/degradation numbers.
"""

from __future__ import annotations

import time

import numpy as np

from common import write_report
from repro.detector import DetectorGeometry, EventSimulator, ParticleGun
from repro.faults import SimClock
from repro.pipeline import ExaTrkXPipeline, GNNTrainConfig, PipelineConfig
from repro.serve import InferenceEngine, LoadGenConfig, ServeConfig, run_loadgen

UNIQUE_EVENTS = 4
REPLAYS = 6  # each unique event appears this many times in the stream


def _fitted_pipeline():
    """Small pipeline in the paper's serving-relevant regime: wide
    embedding/filter MLPs (the Exa.TrkX stages use hidden 512), so the
    upstream stages the engine caches carry most of the per-event
    cost."""
    geometry = DetectorGeometry.barrel_only()
    sim = EventSimulator(
        geometry, gun=ParticleGun(), particles_per_event=25, noise_fraction=0.05
    )
    events = [
        sim.generate(np.random.default_rng(100 + i), event_id=i) for i in range(6)
    ]
    config = PipelineConfig(
        embedding_dim=8,
        embedding_hidden=256,
        filter_hidden=256,
        mlp_layers=3,
        embedding_epochs=6,
        filter_epochs=6,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk",
            epochs=3,
            batch_size=64,
            hidden=16,
            num_layers=2,
            mlp_layers=2,
            depth=2,
            fanout=4,
            bulk_k=4,
        ),
    )
    pipe = ExaTrkXPipeline(config, geometry)
    pipe.fit(events[:4], events[4:5])
    serve_events = [
        sim.generate(np.random.default_rng(900 + i), event_id=100 + i)
        for i in range(UNIQUE_EVENTS)
    ]
    return pipe, serve_events


def test_serving_throughput(benchmark, bench_profile):
    pipe, serve_events = _fitted_pipeline()
    stream = serve_events * REPLAYS

    def run():
        t0 = time.perf_counter()
        sequential = [pipe.reconstruct(e) for e in stream]
        t_seq = time.perf_counter() - t0
        engine = InferenceEngine(
            pipe, ServeConfig(max_batch_events=UNIQUE_EVENTS, workers=0)
        )
        t0 = time.perf_counter()
        requests = engine.process(stream)
        t_eng = time.perf_counter() - t0
        return sequential, requests, engine, t_seq, t_eng

    sequential, requests, engine, t_seq, t_eng = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    # parity: the engine must reproduce the sequential loop bit for bit
    for seq, req in zip(sequential, requests):
        assert req.status == "done"
        assert len(seq) == len(req.tracks)
        for a, b in zip(seq, req.tracks):
            assert np.array_equal(a, b)

    # deterministic overload segment: fixed service model on a SimClock
    overload = InferenceEngine(
        pipe,
        ServeConfig(
            max_batch_events=UNIQUE_EVENTS,
            max_wait_ms=5.0,
            max_queue_events=8,
            latency_budget_ms=25.0,
            sim_service_time_s=0.05,
            cache_capacity=0,  # a memoised replay has no forward to skip
        ),
        clock=SimClock(),
    )
    load_report = run_loadgen(
        overload,
        serve_events,
        LoadGenConfig(rate=400.0, num_requests=48, arrival="poisson", seed=1),
    )

    counters = bench_profile.metrics.to_dict()["counters"]
    latency = bench_profile.metrics.histogram("serve.latency_ms").summary()
    speedup = t_seq / t_eng
    n = len(stream)
    lines = [
        f"Serving engine vs sequential loop — {n} requests "
        f"({UNIQUE_EVENTS} unique events x {REPLAYS} replays)",
        f"sequential loop : {t_seq:7.3f} s  ({n / t_seq:7.1f} ev/s)",
        f"serving engine  : {t_eng:7.3f} s  ({n / t_eng:7.1f} ev/s)   "
        f"speedup {speedup:.2f}x",
        f"stage cache     : {engine.stats.cache_hits} hits / "
        f"{engine.stats.cache_misses} misses",
        f"engine latency  : p50={latency['p50']:.2f} ms  "
        f"p99={latency['p99']:.2f} ms  (wall-clock serve segment)",
        "",
        f"overload segment (rate 400/s, service 50 ms, queue 8, budget 25 ms):",
        f"  shed {load_report.shed} / degraded {load_report.degraded} "
        f"of {load_report.offered} offered "
        f"(sim latency p50={load_report.latency_p50_ms:.1f} ms "
        f"p99={load_report.latency_p99_ms:.1f} ms)",
        f"telemetry counters: submitted="
        f"{counters.get('serve.requests.submitted', 0):.0f} "
        f"completed={counters.get('serve.requests.completed', 0):.0f} "
        f"shed={counters.get('serve.requests.shed', 0):.0f} "
        f"degraded={counters.get('serve.requests.degraded', 0):.0f} "
        f"cache.hits={counters.get('serve.cache.hits', 0):.0f}",
    ]
    write_report("serving_throughput", lines)

    assert speedup >= 1.5, f"engine speedup {speedup:.2f}x below the 1.5x bar"
    assert engine.stats.cache_hits == (REPLAYS - 1) * UNIQUE_EVENTS
    assert load_report.shed > 0
    assert load_report.degraded > 0
    assert counters["serve.requests.shed"] > 0
