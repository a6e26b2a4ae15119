"""Batched serving is bit-identical to the sequential pipeline.

The serving engine's contract (mirroring the bulk-sampler parity suite
in ``tests/sampling/test_parity.py``): whatever micro-batches form,
every request's tracks are exactly — not approximately — what a looped
``Pipeline.reconstruct`` would have produced for that event alone.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np
import pytest

from repro.detector import EventSimulator, ParticleGun
from repro.faults import SimClock
from repro.pipeline.config import TRACK_BUILDERS
from repro.serve import InferenceEngine, ServeConfig
from repro.store import EventStore, ingest_construction

from .conftest import assert_tracks_equal as _assert_tracks_equal
from .conftest import track_builder

class TestBatchedSequentialParity:
    def test_cc_builder_bit_identical(self, serve_pipeline, serve_events):
        sequential = [serve_pipeline.reconstruct(e) for e in serve_events]
        with InferenceEngine(
            serve_pipeline, ServeConfig(max_batch_events=len(serve_events))
        ) as engine:
            requests = engine.process(serve_events)
        assert all(r.status == "done" for r in requests)
        for event, seq, req in zip(serve_events, sequential, requests):
            _assert_tracks_equal(seq, req.tracks, f"event {event.event_id}")

    def test_walkthrough_builder_bit_identical(self, serve_pipeline, serve_events):
        with track_builder(serve_pipeline, "walkthrough"):
            sequential = [serve_pipeline.reconstruct(e) for e in serve_events]
            with InferenceEngine(
                serve_pipeline, ServeConfig(max_batch_events=len(serve_events))
            ) as engine:
                requests = engine.process(serve_events)
            for event, seq, req in zip(serve_events, sequential, requests):
                _assert_tracks_equal(seq, req.tracks, f"event {event.event_id}")

    @pytest.mark.parametrize("batch_size", [1, 2, 5])
    def test_results_independent_of_batch_composition(
        self, serve_pipeline, serve_events, batch_size
    ):
        """Row-stable inference kernels make batching invisible to results:
        the same events produce the same bits at every batch size."""
        sequential = [serve_pipeline.reconstruct(e) for e in serve_events]
        with InferenceEngine(
            serve_pipeline,
            ServeConfig(max_batch_events=batch_size, cache_capacity=0),
        ) as engine:
            requests = engine.process(serve_events)
        for seq, req in zip(sequential, requests):
            _assert_tracks_equal(seq, req.tracks, f"batch_size={batch_size}")

    def test_cache_hits_bit_identical_to_fresh_compute(
        self, serve_pipeline, serve_events
    ):
        with InferenceEngine(serve_pipeline, ServeConfig()) as engine:
            first = engine.process(serve_events)
            replay = engine.process(serve_events)
        assert all(r.cache_hit for r in replay)
        assert not any(r.cache_hit for r in first)
        for a, b in zip(first, replay):
            _assert_tracks_equal(a.tracks, b.tracks)

    def test_threaded_engine_bit_identical(self, serve_pipeline, serve_events):
        sequential = [serve_pipeline.reconstruct(e) for e in serve_events]
        with InferenceEngine(
            serve_pipeline,
            ServeConfig(max_batch_events=2, max_wait_ms=2.0, workers=2),
        ) as engine:
            requests = engine.process(serve_events)
        for seq, req in zip(sequential, requests):
            _assert_tracks_equal(seq, req.tracks)


    def test_threaded_replay_equals_synchronous_engine(
        self, serve_pipeline, serve_events
    ):
        """Workers (more than cores, switching often) may race to fill one
        entry; whoever wins, every response and a later replay carry the
        synchronous engine's tracks, and no lookup is lost from the counts."""
        stream = list(serve_events) * 3
        with InferenceEngine(serve_pipeline, ServeConfig(max_batch_events=2)) as engine:
            synchronous = engine.process(stream)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InferenceEngine(
                serve_pipeline, ServeConfig(max_batch_events=2, workers=4)
            ) as engine:
                threaded = engine.process(stream)
                replay = engine.process(serve_events)
        finally:
            sys.setswitchinterval(interval)
        assert all(r.status == "done" and not r.degraded for r in threaded + replay)
        assert all(r.memo_hit for r in replay)
        stats = engine.stats
        assert stats.cache_hits + stats.cache_misses == stats.completed == len(stream) + 5
        assert stats.memo_hits == sum(r.memo_hit for r in threaded + replay)
        assert all(entry.tracks is not None for entry in engine.cache._entries.values())
        for a, b in zip(synchronous, threaded):
            _assert_tracks_equal(a.tracks, b.tracks)
        for event, request in zip(serve_events, replay):
            _assert_tracks_equal(serve_pipeline.reconstruct(event), request.tracks)


# ----------------------------------------------------------------------
# One traversal: every way of running inference is the pipeline's
# upstream_many + finish_from_filtered, so every cell below is the same
# bits as a looped reconstruct.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def construction_store_dir(serve_pipeline, serve_events, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("parity_store"))
    ingest_construction(serve_pipeline, serve_events, directory)
    return directory


@pytest.mark.parametrize("use_store", [False, True], ids=["nostore", "store"])
@pytest.mark.parametrize("cache_capacity", [0, 64])
@pytest.mark.parametrize("batch", [1, 3, None], ids=["b1", "b3", "ball"])
@pytest.mark.parametrize("builder", TRACK_BUILDERS)
def test_every_serving_mode_equals_reconstruct(
    serve_pipeline, serve_events, construction_store_dir,
    builder, batch, cache_capacity, use_store,
):
    config = ServeConfig(
        max_batch_events=batch or len(serve_events), cache_capacity=cache_capacity
    )
    with track_builder(serve_pipeline, builder), contextlib.ExitStack() as stack:
        sequential = [serve_pipeline.reconstruct(e) for e in serve_events]
        many = serve_pipeline.reconstruct_many(serve_events)
        store = None
        if use_store:
            store = stack.enter_context(
                EventStore(construction_store_dir, budget_bytes=4 << 20)
            )
        with InferenceEngine(serve_pipeline, config, store=store) as engine:
            first = engine.process(serve_events)
            replay = engine.process(serve_events)
    assert all(r.status == "done" and not r.degraded for r in first + replay)
    assert all(r.store_hit == use_store for r in first)
    assert all(r.cache_hit == bool(cache_capacity) for r in replay)
    assert all(r.memo_hit == bool(cache_capacity) for r in replay)
    assert not any(r.memo_hit for r in first)
    for seq, batched, a, b in zip(sequential, many, first, replay):
        _assert_tracks_equal(seq, batched, "reconstruct_many")
        _assert_tracks_equal(seq, a.tracks, "engine")
        _assert_tracks_equal(seq, b.tracks, "engine replay")


@pytest.mark.parametrize("builder", TRACK_BUILDERS)
def test_degraded_serving_is_finish_from_filtered_on_filter_scores(
    serve_pipeline, serve_events, builder
):
    clock = SimClock()
    config = ServeConfig(latency_budget_ms=1.0, degraded_threshold=0.6)
    with track_builder(serve_pipeline, builder):
        with InferenceEngine(serve_pipeline, config, clock=clock) as engine:
            requests = [engine.submit(e) for e in serve_events]
            clock.now += 1.0  # every request is past its budget at dispatch
            engine.flush()
        for staged, request in zip(
            serve_pipeline.upstream_many(serve_events), requests
        ):
            assert request.degraded
            expected = serve_pipeline.finish_from_filtered(
                staged.filtered,
                scores=staged.filter_scores[staged.filter_keep],
                min_score=0.6,
            )
            _assert_tracks_equal(expected, request.tracks)


def test_single_event_stage_methods_are_the_batched_ones(
    serve_pipeline, serve_events
):
    """``fit`` calls these directly."""
    for event in serve_events:
        z = serve_pipeline.embedding.embed(event)
        assert np.array_equal(z, serve_pipeline.embedding.embed_many([event])[0])
        graph = serve_pipeline.construction.build(event)
        pruned, keep = serve_pipeline.filter.prune(graph)
        many_pruned, many_keep, _ = serve_pipeline.filter.prune_many([graph])[0]
        assert np.array_equal(keep, many_keep)
        assert np.array_equal(pruned.edge_index, many_pruned.edge_index)


# ----------------------------------------------------------------------
# No forward spans two events, and there is one scorer.  The fixture
# events (94–194 hits) are small enough that a BLAS forward over a
# concatenated batch can agree with the per-event one; at >= 800 hits it
# does not, so these are the cases that go red if a fused forward returns.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def large_events(geometry):
    sim = EventSimulator(
        geometry, gun=ParticleGun(), particles_per_event=100, noise_fraction=0.05
    )
    events = [
        sim.generate(np.random.default_rng(940 + i), event_id=200 + i)
        for i in range(4)
    ]
    assert min(e.num_hits for e in events) >= 800
    return events


def test_large_events_bit_identical_at_every_batching(serve_pipeline, large_events):
    alone = [serve_pipeline.upstream_many([e])[0] for e in large_events]
    for one, batched in zip(alone, serve_pipeline.upstream_many(large_events)):
        assert np.array_equal(one.graph.edge_index, batched.graph.edge_index)
        assert np.array_equal(one.filter_scores, batched.filter_scores)
    sequential = [serve_pipeline.reconstruct(e) for e in large_events]
    assert any(sequential)
    served = {"reconstruct_many": serve_pipeline.reconstruct_many(large_events)}
    for batch in (1, len(large_events)):
        config = ServeConfig(max_batch_events=batch, cache_capacity=0)
        with InferenceEngine(serve_pipeline, config) as engine:
            served[f"engine b{batch}"] = [
                r.tracks for r in engine.process(large_events)
            ]
    for how, results in served.items():
        for seq, tracks in zip(sequential, results):
            _assert_tracks_equal(seq, tracks, how)


def test_serving_scores_with_the_scorer_fit_and_evaluation_use(
    serve_pipeline, serve_events, monkeypatch
):
    """The stage networks called directly — as ``fit`` and
    ``evaluate_edge_classifier`` call them — return the bits the
    inference traversal computes."""
    embedded = {}
    build = serve_pipeline.construction.build

    def spy(event, z=None):
        embedded[event.event_id] = z
        return build(event, z=z)

    monkeypatch.setattr(serve_pipeline.construction, "build", spy)
    for event in serve_events:
        staged = serve_pipeline.upstream_many([event])[0]
        z = serve_pipeline.embedding.embed(event)
        assert np.array_equal(z, embedded[event.event_id])
        scores = serve_pipeline.filter.prune_many([staged.graph])[0][2]
        assert np.array_equal(scores, staged.filter_scores)
        gnn_scores = serve_pipeline.gnn.model.predict_proba(staged.filtered)
        assert np.array_equal(gnn_scores, serve_pipeline.gnn_prune(staged.filtered)[2])
