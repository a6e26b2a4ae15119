"""Replayed events hydrate from the warm event store, results unchanged."""

import numpy as np
import pytest

from repro.graph import random_graph
from repro.serve import InferenceEngine, ServeConfig, event_fingerprint
from repro.store import EventStore, ingest_construction, ingest_graphs


@pytest.fixture()
def construction_store(serve_pipeline, serve_events, tmp_path):
    d = str(tmp_path / "s")
    report = ingest_construction(serve_pipeline, serve_events, d)
    assert report.ingested == len(serve_events)
    store = EventStore(d, budget_bytes=4 << 20)
    yield store
    store.close()


def _config(**overrides):
    base = dict(workers=0, max_batch_events=8, cache_capacity=0)
    base.update(overrides)
    return ServeConfig(**base)


class TestHydration:
    def test_known_events_hydrate_from_store(
        self, serve_pipeline, serve_events, construction_store
    ):
        engine = InferenceEngine(
            serve_pipeline, _config(), store=construction_store
        )
        with engine:
            requests = engine.process(serve_events)
        assert all(r.status == "done" for r in requests)
        assert all(r.store_hit for r in requests)
        assert engine.stats.store_hydrated == len(serve_events)
        assert construction_store.stats.misses > 0

    def test_hydrated_tracks_match_cold_path(
        self, serve_pipeline, serve_events, construction_store
    ):
        with InferenceEngine(serve_pipeline, _config()) as cold:
            cold_reqs = cold.process(serve_events)
        engine = InferenceEngine(
            serve_pipeline, _config(), store=construction_store
        )
        with engine:
            warm_reqs = engine.process(serve_events)
        for cold_r, warm_r in zip(cold_reqs, warm_reqs):
            assert len(cold_r.tracks) == len(warm_r.tracks)
            for a, b in zip(cold_r.tracks, warm_r.tracks):
                assert np.array_equal(a, b)

    def test_unknown_events_fall_through_to_construction(
        self, serve_pipeline, serve_events, geometry, construction_store
    ):
        from repro.detector import EventSimulator, ParticleGun

        sim = EventSimulator(
            geometry, gun=ParticleGun(), particles_per_event=15, noise_fraction=0.05
        )
        fresh = sim.generate(np.random.default_rng(4242), event_id=999)
        engine = InferenceEngine(
            serve_pipeline, _config(), store=construction_store
        )
        with engine:
            requests = engine.process([serve_events[0], fresh])
        assert all(r.status == "done" for r in requests)
        assert requests[0].store_hit
        assert not requests[1].store_hit
        assert engine.stats.store_hydrated == 1

    def test_stage_cache_outranks_store(
        self, serve_pipeline, serve_events, construction_store
    ):
        engine = InferenceEngine(
            serve_pipeline, _config(cache_capacity=64), store=construction_store
        )
        with engine:
            engine.process(serve_events)
            hydrated_once = engine.stats.store_hydrated
            engine.process(serve_events)  # replay: stage cache, not store
        assert engine.stats.store_hydrated == hydrated_once
        assert engine.stats.cache_hits >= len(serve_events)


class TestIngestThroughThePipeline:
    def test_stored_graphs_are_the_traversals_construction_graphs(
        self, serve_pipeline, serve_events, construction_store
    ):
        """What the engine hydrates is bitwise what it would have built:
        ingest constructs through the pipeline's own entry point (the
        store keeps edges stably sorted by source row)."""
        handles = {h.fingerprint: h for h in construction_store.handles()}
        for event in serve_events:
            stored = handles[event_fingerprint(event)].materialize()
            built = serve_pipeline.upstream_many([event])[0].graph
            order = np.argsort(built.rows, kind="stable")
            assert np.array_equal(stored.edge_index, built.edge_index[:, order])
            assert np.array_equal(stored.x, built.x)
            assert np.array_equal(stored.y, built.y[order])

    def test_embedding_runs_row_stable_during_ingest(
        self, serve_pipeline, serve_events, tmp_path, monkeypatch
    ):
        """Ingest builds through the traversal's own entry point, one
        ``construct_many`` call per admitted event."""
        built = []
        construct_many = serve_pipeline.construct_many

        def spy(events, **kwargs):
            built.append([e.event_id for e in events])
            return construct_many(events, **kwargs)

        monkeypatch.setattr(serve_pipeline, "construct_many", spy)
        ingest_construction(serve_pipeline, serve_events, str(tmp_path / "s"))
        assert built == [[e.event_id] for e in serve_events]


class TestStoreMetaGuard:
    def test_builder_graph_store_rejected(self, serve_pipeline, tmp_path):
        d = str(tmp_path / "builder")
        g = random_graph(50, 200, rng=np.random.default_rng(0), true_fraction=0.3)
        ingest_graphs([g], d)
        with EventStore(d) as store:
            with pytest.raises(ValueError, match="construction"):
                InferenceEngine(serve_pipeline, _config(), store=store)
