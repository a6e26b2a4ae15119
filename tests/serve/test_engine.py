"""InferenceEngine mechanics: batching, shedding, degradation, telemetry.

Everything but one gated threaded case runs the synchronous engine
(``workers=0``) on a :class:`repro.faults.SimClock`, so batch formation,
admission control, and the latency-budget degradation are exact and
deterministic.
"""

from __future__ import annotations

import threading

import pytest

from repro.faults import FaultPlan, SimClock, StageFault
from repro.obs import RunTelemetry, use_telemetry
from repro.pipeline import ExaTrkXPipeline, PipelineConfig
from repro.serve import InferenceEngine, ServeConfig, event_fingerprint

from .conftest import assert_tracks_equal


def make_engine(pipe, clock=None, **overrides):
    defaults = dict(max_batch_events=2, max_wait_ms=10.0, max_queue_events=4)
    defaults.update(overrides)
    return InferenceEngine(pipe, ServeConfig(**defaults), clock=clock)


class TestMicroBatching:
    def test_partial_batch_waits_for_deadline(self, serve_pipeline, serve_events):
        """(id kept from the deadline policy) Nothing waits for a deadline:
        an idle engine dispatches a lone request at once, and only what
        arrives during a service interval leaves together, capped."""
        clock = SimClock()
        engine = make_engine(
            serve_pipeline, clock, max_batch_events=3, max_queue_events=8,
            sim_service_time_s=0.02,
        )
        request = engine.submit(serve_events[0])
        assert engine.pump() == 1  # partial batch, idle engine: no wait
        assert request.status == "done"
        assert request.queue_wait_ms == 0.0
        assert clock.now == pytest.approx(0.02)  # the service interval
        # four arrivals inside it reach the queue as a burst at its end
        burst = [engine.submit(e) for e in serve_events[1:5]]
        assert engine.pump() == 3  # one batch, capped at max_batch_events
        assert engine.pump() == 1
        assert engine.pump() == 0
        assert [r.status for r in burst] == ["done"] * 4
        assert burst[0].t_dispatch == burst[2].t_dispatch < burst[3].t_dispatch

    def test_full_batch_dispatches_immediately(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_batch_events=2)
        engine.submit(serve_events[0])
        engine.submit(serve_events[1])
        assert engine.pump() == 2  # full batch is due with no wait

    def test_flush_drains_everything(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_batch_events=2)
        requests = [engine.submit(e) for e in serve_events[:3]]
        assert engine.flush() == 3
        assert [r.status for r in requests] == ["done"] * 3
        assert engine.stats.batches == 2  # 2 + 1

    def test_next_due_time(self, serve_pipeline, serve_events):
        clock = SimClock()
        clock.now = 1.0
        engine = make_engine(serve_pipeline, clock, max_batch_events=2)
        assert engine.next_due_time() is None
        engine.submit(serve_events[0])
        assert engine.next_due_time() == 1.0  # due now: its submit time
        clock.now += 0.5
        engine.submit(serve_events[1])
        assert engine.next_due_time() == 1.0  # the oldest request's
        assert engine.pump() == 2
        assert engine.next_due_time() is None

    def test_threaded_batches_form_only_while_busy(
        self, serve_pipeline, serve_events, monkeypatch
    ):
        """One worker held busy by a gated stage: later submits queue up,
        leave as ONE batch when the worker frees, and close() strands none."""
        gate, entered = threading.Event(), threading.Event()
        upstream = serve_pipeline.upstream_many

        def gated(*args, **kwargs):
            entered.set()
            assert gate.wait(30)
            return upstream(*args, **kwargs)

        monkeypatch.setattr(serve_pipeline, "upstream_many", gated)
        engine = make_engine(
            serve_pipeline, max_batch_events=4, max_queue_events=8, workers=1
        )
        first = engine.submit(serve_events[0])
        assert entered.wait(30)  # idle worker: dispatched at once, alone
        later = [engine.submit(e) for e in serve_events[1:4]]
        assert engine.next_due_time() is None  # worker busy: nothing is due
        assert len(engine.queue) == 3 and engine.stats.batches == 0
        gate.set()  # completion, not a deadline, releases the batch
        for request in [first] + later:
            assert isinstance(request.result(timeout=30), list)
        assert engine.stats.batches == 2  # 1 + 3
        assert len({r.t_dispatch for r in later}) == 1
        last = engine.submit(serve_events[4])
        engine.close()
        assert last.status == "done"
        assert engine.stats.terminal == engine.stats.submitted == 5


class TestAdmissionControl:
    def test_overflow_is_shed(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_queue_events=2)
        requests = [engine.submit(serve_events[i % len(serve_events)]) for i in range(4)]
        assert [r.status for r in requests] == ["queued", "queued", "shed", "shed"]
        assert engine.stats.shed == 2
        engine.flush()
        assert engine.stats.completed == 2

    def test_shed_request_result_raises(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_queue_events=1)
        engine.submit(serve_events[0])
        shed = engine.submit(serve_events[1])
        with pytest.raises(RuntimeError, match="shed"):
            shed.result()
        assert shed.tracks is None


class TestDegradedMode:
    def test_blown_budget_skips_gnn(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(
            serve_pipeline,
            clock,
            latency_budget_ms=50.0,
            sim_service_time_s=0.0,
        )
        fresh = engine.submit(serve_events[0])
        engine.flush()  # within budget: full pipeline
        clock.now += 10.0
        stale = engine.submit(serve_events[1])
        clock.now += 10.0  # waited 10 s >> 50 ms budget
        engine.flush()
        assert fresh.degraded is False
        assert stale.degraded is True
        assert isinstance(stale.tracks, list)
        assert engine.stats.degraded == 1

    def test_degraded_walkthrough_builder(self, serve_pipeline, serve_events):
        from .conftest import track_builder

        clock = SimClock()
        with track_builder(serve_pipeline, "walkthrough"):
            engine = make_engine(
                serve_pipeline, clock, latency_budget_ms=1.0, sim_service_time_s=0.0
            )
            request = engine.submit(serve_events[0])
            clock.now += 1.0
            engine.flush()
        assert request.degraded is True
        assert isinstance(request.tracks, list)

    def test_no_budget_means_never_degraded(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, latency_budget_ms=None)
        request = engine.submit(serve_events[0])
        clock.now += 100.0
        engine.flush()
        assert request.degraded is False


class TestStageCacheIntegration:
    def test_replay_hits_cache(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_batch_events=8)
        engine.process(serve_events[:2])
        replay = engine.process(serve_events[:2])
        assert all(r.cache_hit for r in replay)
        assert engine.stats.cache_hits == 2
        assert engine.stats.cache_misses == 2

    def test_replayed_stream_misses_once_per_distinct_event(
        self, serve_pipeline, serve_events
    ):
        unique, replays = 4, 6
        engine = make_engine(
            serve_pipeline, SimClock(),
            max_batch_events=unique, max_queue_events=unique * replays,
        )
        requests = engine.process(serve_events[:unique] * replays)
        assert all(r.status == "done" for r in requests)
        assert engine.stats.cache_misses == unique
        assert engine.stats.cache_hits == (replays - 1) * unique

    def test_in_batch_duplicates_computed_once(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, max_batch_events=4)
        requests = engine.process([serve_events[0]] * 3)
        assert engine.stats.cache_misses == 1
        assert engine.stats.cache_hits == 2
        tracks = [r.tracks for r in requests]
        assert all(len(t) == len(tracks[0]) for t in tracks)

    def test_cache_disabled(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(serve_pipeline, clock, cache_capacity=0)
        assert engine.cache is None
        engine.process(serve_events[:2])
        replay = engine.process(serve_events[:2])
        assert not any(r.cache_hit for r in replay)


def _spans(telemetry, name):
    return [s for s in telemetry.tracer.spans if s.name == name]


class TestMemoPolicy:
    """The stage cache memoises the whole chain (engine docstring,
    "Stage-cache policy", rules (a)–(e))."""

    def test_replayed_batch_runs_no_forward(self, serve_pipeline, serve_events):
        expected = [serve_pipeline.reconstruct(e) for e in serve_events[:3]]
        engine = make_engine(serve_pipeline, SimClock(), max_batch_events=8)
        first = engine.process(serve_events[:3])
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            replay = engine.process(serve_events[:3])
        for name in ("pipeline.gnn", "pipeline.track_building", "serve.stage.gnn"):
            assert _spans(telemetry, name) == []
        (batch_span,) = _spans(telemetry, "serve.batch")
        assert batch_span.attributes["memoised"] == 3
        assert batch_span.attributes["degraded"] is False
        assert telemetry.metrics.to_dict()["counters"]["serve.cache.memo_hits"] == 3
        assert not any(r.memo_hit for r in first)
        assert all(r.memo_hit and r.cache_hit and not r.degraded for r in replay)
        assert engine.stats.memo_hits == 3
        for tracks, request in zip(expected, replay):
            assert_tracks_equal(tracks, request.tracks)

    def test_in_batch_duplicates_run_one_forward(self, serve_pipeline, serve_events):
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            engine = make_engine(
                serve_pipeline, SimClock(), max_batch_events=4, cache_capacity=0
            )
            requests = engine.process([serve_events[0]] * 3)
        assert len(_spans(telemetry, "pipeline.gnn")) == 1
        assert len(_spans(telemetry, "pipeline.track_building")) == 1
        expected = serve_pipeline.reconstruct(serve_events[0])
        for request in requests:
            assert_tracks_equal(expected, request.tracks)
        assert engine.stats.memo_hits == 0  # the lookup found nothing complete

    def test_lru_eviction_recomputes(self, serve_pipeline, serve_events):
        a, b = serve_events[:2]
        engine = make_engine(serve_pipeline, SimClock(), cache_capacity=1)
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            outcomes = [engine.process([e])[0] for e in (a, b, b, a)]
        assert [r.memo_hit for r in outcomes] == [False, False, True, False]
        assert len(_spans(telemetry, "pipeline.gnn")) == 3  # a, b, a again
        assert_tracks_equal(outcomes[0].tracks, outcomes[3].tracks)

    def test_cache_disabled_keeps_no_memo(self, serve_pipeline, serve_events):
        engine = make_engine(serve_pipeline, SimClock(), cache_capacity=0)
        engine.process(serve_events[:2])
        replay = engine.process(serve_events[:2])
        assert not any(r.memo_hit for r in replay)
        assert engine.stats.memo_hits == 0

    def test_degraded_batch_writes_no_memo(self, serve_pipeline, serve_events):
        clock = SimClock()
        engine = make_engine(
            serve_pipeline, clock, latency_budget_ms=50.0, sim_service_time_s=0.0
        )
        late = engine.submit(serve_events[0])
        clock.now += 1.0
        engine.flush()
        assert late.degraded and not late.memo_hit
        entry = engine.cache.get(event_fingerprint(serve_events[0]))
        assert entry is not None and entry.tracks is None  # upstream only
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            on_time = engine.process([serve_events[0]])[0]
        # upstream only: the GNN runs, on the cached filtered graph, and fills
        assert on_time.cache_hit and not on_time.memo_hit and not on_time.degraded
        assert len(_spans(telemetry, "pipeline.gnn")) == 1
        assert _spans(telemetry, "serve.stage.construction") == []
        assert_tracks_equal(serve_pipeline.reconstruct(serve_events[0]), on_time.tracks)
        again = engine.process([serve_events[0]])[0]
        assert again.memo_hit
        assert_tracks_equal(on_time.tracks, again.tracks)

    def test_late_batch_answers_memoised_requests_in_full(
        self, serve_pipeline, serve_events
    ):
        clock = SimClock()
        engine = make_engine(
            serve_pipeline, clock, latency_budget_ms=50.0, sim_service_time_s=0.0
        )
        seen = engine.process([serve_events[0]])[0]
        late = [engine.submit(e) for e in serve_events[:2]]
        clock.now += 1.0  # budget blown for the whole batch
        engine.flush()
        assert late[0].memo_hit and not late[0].degraded
        assert_tracks_equal(seen.tracks, late[0].tracks)
        assert late[1].degraded and not late[1].memo_hit
        assert engine.stats.degraded == 1

    def test_open_breaker_governs_forwards_only(self, serve_pipeline, serve_events):
        clock = SimClock()
        plan = FaultPlan(stage_faults=[StageFault(stage="gnn", at_call=1, times=1)])
        engine = InferenceEngine(
            serve_pipeline,
            ServeConfig(
                max_batch_events=2, breaker_threshold=1, breaker_cooldown_ms=100.0
            ),
            clock=clock,
            fault_plan=plan,
        )
        seen = engine.process([serve_events[0]])[0]  # gnn call 0: fine
        tripped = engine.process([serve_events[1]])[0]  # gnn call 1: fault
        assert tripped.breaker_degraded and engine.breaker.state == "open"
        mixed = engine.process([serve_events[0], serve_events[2]])
        assert mixed[0].memo_hit and not mixed[0].degraded
        assert_tracks_equal(seen.tracks, mixed[0].tracks)
        assert mixed[1].breaker_degraded
        # a fully memoised batch neither probes nor reports to the breaker:
        # past the cooldown it would otherwise be the half-open probe
        clock.sleep(0.2)
        transitions = dict(engine.breaker.transitions)
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            memoised = engine.process([serve_events[0]])[0]
        assert memoised.memo_hit and not memoised.degraded
        assert telemetry.tracer.events == []  # no breaker transition event
        assert telemetry.metrics.to_dict()["counters"].keys() == {
            "serve.requests.submitted", "serve.requests.completed",
            "serve.batches", "serve.cache.hits", "serve.cache.memo_hits",
        }  # no guard.breaker.* counter moved
        assert engine.breaker.transitions == transitions
        # the next forward is the probe, and closes it
        probe = engine.process([serve_events[1]])[0]
        assert not probe.degraded and engine.breaker.state == "closed"
        engine.close()

    def test_gnn_fault_waits_for_a_dispatch_with_a_forward(
        self, serve_pipeline, serve_events
    ):
        plan = FaultPlan(stage_faults=[StageFault(stage="gnn", at_call=1, times=1)])
        engine = InferenceEngine(
            serve_pipeline, ServeConfig(max_batch_events=4), fault_plan=plan
        )
        engine.process(serve_events[:2])  # gnn call 0
        replay = engine.process(serve_events[:2])  # no forward: not a gnn call
        assert all(r.memo_hit and not r.degraded for r in replay)
        unseen = engine.process([serve_events[2]])[0]  # gnn call 1: fires
        assert unseen.degraded and unseen.breaker_degraded
        engine.close()

    def test_client_cannot_change_a_later_response(self, serve_pipeline, serve_events):
        engine = make_engine(serve_pipeline, SimClock())
        first = engine.process([serve_events[0]])[0]
        expected = [t.copy() for t in first.tracks]
        assert expected
        with pytest.raises(ValueError, match="read-only"):
            first.tracks[0][0] = -1
        first.tracks.clear()  # the list is the client's own
        replay = engine.process([serve_events[0]])[0]
        assert replay.memo_hit
        assert_tracks_equal(expected, replay.tracks)


class TestTelemetryWiring:
    def test_serve_metrics_and_spans_exported(self, serve_pipeline, serve_events):
        telemetry = RunTelemetry()
        clock = SimClock()
        with use_telemetry(telemetry):
            engine = make_engine(
                serve_pipeline, clock, max_queue_events=2, max_batch_events=2
            )
            for i in range(4):  # 2 queued + 2 shed
                engine.submit(serve_events[i % len(serve_events)])
            engine.flush()
            engine.process(serve_events[:2])  # replay: cache hits
        metrics = telemetry.metrics.to_dict()
        assert metrics["counters"]["serve.requests.submitted"] == 6
        assert metrics["counters"]["serve.requests.completed"] == 4
        assert metrics["counters"]["serve.requests.shed"] == 2
        assert metrics["counters"]["serve.cache.hits"] == 2
        assert metrics["counters"]["serve.cache.misses"] == 2
        latency = metrics["histograms"]["serve.latency_ms"]
        assert latency["count"] == 4
        assert "p99" in latency
        span_names = {s.name for s in telemetry.tracer.spans}
        assert {
            "serve.batch",
            "serve.stage.construction",
            "serve.stage.filter",
            "serve.stage.gnn",
            "pipeline.gnn",
        } <= span_names

    def test_pipeline_score_span_recorded(self, serve_pipeline, serve_events):
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            serve_pipeline.score_event(serve_events[0])
        assert "pipeline.score" in {s.name for s in telemetry.tracer.spans}


class TestLifecycleAndValidation:
    def test_unfitted_pipeline_rejected(self, geometry):
        with pytest.raises(RuntimeError, match="not fitted"):
            InferenceEngine(ExaTrkXPipeline(PipelineConfig(), geometry))

    def test_submit_after_close_rejected(self, serve_pipeline, serve_events):
        engine = make_engine(serve_pipeline, SimClock())
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(serve_events[0])

    def test_close_drains_pending_and_is_idempotent(
        self, serve_pipeline, serve_events
    ):
        engine = make_engine(serve_pipeline, SimClock())
        request = engine.submit(serve_events[0])
        engine.close()
        engine.close()
        assert request.status == "done"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_batch_events=0),
            dict(max_wait_ms=-1.0),
            dict(max_queue_events=0),
            dict(workers=-1),
            dict(latency_budget_ms=0.0),
            dict(degraded_threshold=1.5),
            dict(cache_capacity=-1),
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            ServeConfig(**bad)
