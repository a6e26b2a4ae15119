"""Open-loop load generator: schedules, overload behaviour, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import SimClock
from repro.serve import (
    InferenceEngine,
    LoadGenConfig,
    ServeConfig,
    arrival_times,
    run_loadgen,
)


def overload_engine(pipe, **overrides):
    defaults = dict(
        max_batch_events=4,
        max_wait_ms=5.0,
        max_queue_events=8,
        latency_budget_ms=100.0,
        sim_service_time_s=0.05,
    )
    defaults.update(overrides)
    return InferenceEngine(pipe, ServeConfig(**defaults), clock=SimClock())


class TestArrivalTimes:
    def test_uniform_spacing(self):
        times = arrival_times(LoadGenConfig(rate=10.0, num_requests=5))
        assert np.allclose(times, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_poisson_is_seeded_and_monotone(self):
        cfg = LoadGenConfig(rate=100.0, num_requests=50, arrival="poisson", seed=3)
        a, b = arrival_times(cfg), arrival_times(cfg)
        assert np.array_equal(a, b)
        assert a[0] == 0.0
        assert np.all(np.diff(a) >= 0)
        different = arrival_times(
            LoadGenConfig(rate=100.0, num_requests=50, arrival="poisson", seed=4)
        )
        assert not np.array_equal(a, different)

    @pytest.mark.parametrize(
        "bad",
        [dict(rate=0.0), dict(num_requests=0), dict(arrival="bursty")],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            LoadGenConfig(**bad)


class TestRunLoadgen:
    def test_accounts_for_every_request(self, serve_pipeline, serve_events):
        engine = overload_engine(serve_pipeline)
        report = run_loadgen(
            engine,
            serve_events,
            LoadGenConfig(rate=200.0, num_requests=40, arrival="poisson", seed=1),
        )
        assert report.offered == 40
        assert report.completed + report.shed == 40
        assert report.completed == engine.stats.completed
        assert report.batches > 0
        assert report.duration_s > 0

    def test_overload_sheds(self, serve_pipeline, serve_events):
        report = run_loadgen(
            overload_engine(serve_pipeline),
            serve_events,
            LoadGenConfig(rate=500.0, num_requests=60, arrival="poisson", seed=1),
        )
        assert report.shed > 0
        assert report.completed > 0

    def test_gentle_load_serves_everything(self, serve_pipeline, serve_events):
        report = run_loadgen(
            overload_engine(serve_pipeline, sim_service_time_s=0.001),
            serve_events,
            LoadGenConfig(rate=10.0, num_requests=10),
        )
        assert report.shed == 0
        assert report.completed == 10
        assert report.degraded == 0
        assert report.queue_wait_p50_ms == 0.0  # an idle engine dispatches at once

    def test_tight_budget_degrades(self, serve_pipeline, serve_events):
        report = run_loadgen(
            overload_engine(
                serve_pipeline,
                latency_budget_ms=10.0,
                max_queue_events=64,
                sim_service_time_s=0.05,
                cache_capacity=0,  # each replayed request must need a forward
            ),
            serve_events,
            LoadGenConfig(rate=200.0, num_requests=40, arrival="poisson", seed=1),
        )
        assert report.degraded > 0

    def test_replays_hit_cache(self, serve_pipeline, serve_events):
        report = run_loadgen(
            overload_engine(serve_pipeline, sim_service_time_s=0.001),
            serve_events[:2],
            LoadGenConfig(rate=10.0, num_requests=8),
        )
        assert report.cache_hits >= 6  # 8 requests over 2 distinct events

    def test_fixed_service_time_is_deterministic(self, serve_pipeline, serve_events):
        cfg = LoadGenConfig(rate=300.0, num_requests=50, arrival="poisson", seed=7)
        first = run_loadgen(overload_engine(serve_pipeline), serve_events, cfg)
        second = run_loadgen(overload_engine(serve_pipeline), serve_events, cfg)
        assert first.lines() == second.lines()
        assert first.shed == second.shed
        assert first.latency_p99_ms == second.latency_p99_ms

    def test_rejects_threaded_engine(self, serve_pipeline, serve_events):
        engine = InferenceEngine(
            serve_pipeline, ServeConfig(workers=1), clock=None
        )
        try:
            with pytest.raises(ValueError, match="workers"):
                run_loadgen(engine, serve_events, LoadGenConfig())
        finally:
            engine.close()

    def test_rejects_empty_events(self, serve_pipeline):
        with pytest.raises(ValueError, match="events"):
            run_loadgen(overload_engine(serve_pipeline), [], LoadGenConfig())

    def test_report_lines_render(self, serve_pipeline, serve_events):
        report = run_loadgen(
            overload_engine(serve_pipeline),
            serve_events,
            LoadGenConfig(rate=100.0, num_requests=12),
        )
        text = "\n".join(report.lines())
        assert "offered" in text and "latency" in text and "shed" in text
