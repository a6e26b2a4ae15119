"""Individual pipeline stages on simulated events."""

import numpy as np
import pytest

from repro.pipeline import (
    EmbeddingStage,
    FilterStage,
    GraphConstructionStage,
    PipelineConfig,
    build_tracks,
)
from repro.graph import disjoint_chains


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(
        embedding_dim=6,
        embedding_epochs=12,
        filter_epochs=12,
        frnn_radius=0.3,
    )


@pytest.fixture(scope="module")
def fitted_embedding(config, geometry, small_events):
    stage = EmbeddingStage(config, geometry)
    stage.fit(small_events[:4], np.random.default_rng(0))
    return stage


class TestEmbeddingStage:
    def test_requires_fit_before_embed(self, config, geometry, small_events):
        stage = EmbeddingStage(config, geometry)
        with pytest.raises(RuntimeError):
            stage.embed(small_events[0])

    def test_loss_decreases(self, fitted_embedding):
        losses = fitted_embedding.losses
        assert losses[-1] < losses[0]

    def test_embedding_shape_and_norm(self, fitted_embedding, small_events, config):
        z = fitted_embedding.embed(small_events[0])
        assert z.shape == (small_events[0].num_hits, config.embedding_dim)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-5)

    def test_true_pairs_closer_than_random(self, fitted_embedding, small_events):
        ev = small_events[4]
        z = fitted_embedding.embed(ev)
        seg = ev.true_segments()
        same = np.linalg.norm(z[seg[0]] - z[seg[1]], axis=1).mean()
        rng = np.random.default_rng(0)
        a = rng.integers(0, ev.num_hits, 500)
        b = rng.integers(0, ev.num_hits, 500)
        mask = ev.particle_ids[a] != ev.particle_ids[b]
        rand = np.linalg.norm(z[a[mask]] - z[b[mask]], axis=1).mean()
        assert same < rand

    def test_empty_events_rejected(self, config, geometry):
        with pytest.raises(ValueError):
            EmbeddingStage(config, geometry).fit([], np.random.default_rng(0))


class TestGraphConstruction:
    def test_builds_labelled_graph(self, config, geometry, fitted_embedding, small_events):
        stage = GraphConstructionStage(config, geometry, fitted_embedding)
        g = stage.build(small_events[4])
        assert g.num_nodes == small_events[4].num_hits
        assert g.edge_labels is not None

    def test_edges_oriented_outward(self, config, geometry, fitted_embedding, small_events):
        stage = GraphConstructionStage(config, geometry, fitted_embedding)
        ev = small_events[4]
        g = stage.build(ev)
        r = np.hypot(ev.positions[:, 0], ev.positions[:, 1])
        assert np.all(r[g.rows] <= r[g.cols] + 1e-9)

    def test_edge_efficiency_reasonable(self, config, geometry, fitted_embedding, small_events):
        stage = GraphConstructionStage(config, geometry, fitted_embedding)
        event = small_events[4]
        eff = stage.edge_efficiency(event)
        assert eff > 0.5  # trained embedding must capture most segments
        # ``fit`` passes each training graph in: the graph given is the one
        # scored, the event is not built a second time
        graph = stage.build(event)
        empty = graph.edge_mask_subgraph(np.zeros(graph.num_edges, dtype=bool))
        assert stage.edge_efficiency(event, graph) == eff
        assert stage.edge_efficiency(event, empty) == 0.0

    def test_config_accepts_only_metric_learning(self):
        assert PipelineConfig().construction == "metric_learning"
        for retired in ("module_map", "random_edges"):
            with pytest.raises(ValueError, match="unknown construction strategy"):
                PipelineConfig(construction=retired)


class TestFilterStage:
    @pytest.fixture(scope="class")
    def graphs(self, config, geometry, fitted_embedding, small_events):
        stage = GraphConstructionStage(config, geometry, fitted_embedding)
        return [stage.build(e) for e in small_events[:4]]

    def test_fit_and_prune(self, config, graphs):
        stage = FilterStage(config)
        stage.fit(graphs, np.random.default_rng(0))
        pruned, keep = stage.prune(graphs[0])
        assert pruned.num_edges == int(keep.sum())
        assert pruned.num_nodes == graphs[0].num_nodes

    def test_high_segment_recall(self, config, graphs):
        """The filter's job: prune while keeping true segments."""
        stage = FilterStage(config)
        stage.fit(graphs, np.random.default_rng(0))
        _, keep = stage.prune(graphs[0])
        assert stage.segment_recall(graphs[0], keep) > 0.9

    def test_requires_fit(self, config, graphs):
        with pytest.raises(RuntimeError):
            FilterStage(config).prune(graphs[0])

    def test_prune_many_keeps_eval_mode(self, config, graphs):
        """A serving-side net put in eval mode stays there across the
        fused pass: inference restores the mode it found."""
        stage = FilterStage(config)
        stage.fit(graphs[:2], np.random.default_rng(0))
        stage.net.eval()
        stage.prune_many(graphs[:2])
        assert not stage.net.training
        stage.prune(graphs[0])
        assert not stage.net.training


class TestTrackBuilding:
    def test_chains_become_tracks(self, chains_graph):
        tracks = build_tracks(chains_graph, min_hits=3)
        assert len(tracks) == 10
        assert all(len(t) == 8 for t in tracks)

    def test_min_hits_filters_stubs(self):
        g = disjoint_chains(3, 2, rng=np.random.default_rng(0))  # 2-hit chains
        assert build_tracks(g, min_hits=3) == []

    def test_pruned_graph_splits_components(self, chains_graph):
        # remove the middle edge of each chain: every chain splits in two
        keep = np.ones(chains_graph.num_edges, dtype=bool)
        # chain c edges occupy positions [c*7, (c+1)*7); middle edge index 3
        for c in range(10):
            keep[c * 7 + 3] = False
        pruned = chains_graph.edge_mask_subgraph(keep)
        tracks = build_tracks(pruned, min_hits=3)
        assert len(tracks) == 20
