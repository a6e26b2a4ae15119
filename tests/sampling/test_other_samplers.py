"""Node-wise and layer-wise samplers, plus batching utilities."""

import numpy as np
import pytest

from repro.graph import chain_graph, random_graph, star_graph
from repro.sampling import (
    LayerWiseSampler,
    NodeWiseSampler,
    SaintRWSampler,
    ShadowSampler,
    epoch_batches,
    group_batches,
    iter_vertex_batches,
)


@pytest.fixture
def graph():
    return random_graph(100, 500, rng=np.random.default_rng(0))


class TestNodeWise:
    def test_batch_contained_in_output(self, graph):
        batch = np.array([1, 5, 9])
        out = NodeWiseSampler([4, 4]).sample(graph, batch, np.random.default_rng(0))
        assert set(batch.tolist()) <= set(out.node_parent.tolist())
        assert np.array_equal(out.node_parent[out.roots], batch)

    def test_output_is_induced_subgraph(self, graph):
        out = NodeWiseSampler([3]).sample(graph, np.array([0, 1]), np.random.default_rng(0))
        member = set(out.node_parent.tolist())
        expected = sum(
            1 for u, v in zip(graph.rows.tolist(), graph.cols.tolist())
            if u in member and v in member
        )
        assert out.graph.num_edges == expected

    def test_star_hub_fanout_capped(self):
        g = star_graph(50)
        out = NodeWiseSampler([5]).sample(g, np.array([0]), np.random.default_rng(0))
        assert out.graph.num_nodes <= 6  # hub + at most 5 leaves

    def test_invalid_fanouts(self):
        with pytest.raises(ValueError):
            NodeWiseSampler([])
        with pytest.raises(ValueError):
            NodeWiseSampler([0])

    def test_empty_batch(self, graph):
        with pytest.raises(ValueError):
            NodeWiseSampler([2]).sample(graph, np.array([], dtype=np.int64), np.random.default_rng(0))


class TestLayerWise:
    def test_layer_size_bounds_growth(self, graph):
        out = LayerWiseSampler(layer_size=5, num_layers=2).sample(
            graph, np.array([0, 1, 2]), np.random.default_rng(0)
        )
        # at most batch + layer_size per layer
        assert out.graph.num_nodes <= 3 + 2 * 5

    def test_batch_contained(self, graph):
        batch = np.array([7, 8])
        out = LayerWiseSampler(4, 2).sample(graph, batch, np.random.default_rng(1))
        assert set(batch.tolist()) <= set(out.node_parent.tolist())

    def test_chain_respects_connectivity(self):
        g = chain_graph(30)
        out = LayerWiseSampler(3, 1).sample(g, np.array([10]), np.random.default_rng(0))
        # first layer candidates connect to vertex 10: only 9 and 11
        others = set(out.node_parent.tolist()) - {10}
        assert others <= {9, 11}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LayerWiseSampler(0, 2)
        with pytest.raises(ValueError):
            LayerWiseSampler(2, 0)


def test_shadow_subgraphs_are_the_largest(graph):
    """ShaDow extracts one subgraph per root, replicating shared
    neighbourhoods, so its batch outgrows the shared-context samplers'."""
    batch = np.random.default_rng(0).choice(graph.num_nodes, size=16, replace=False)

    def nodes(sampler):
        return sampler.sample(graph, batch, np.random.default_rng(1)).graph.num_nodes

    shadow = nodes(ShadowSampler(depth=2, fanout=4))
    assert shadow > nodes(NodeWiseSampler([4, 4]))
    assert shadow > nodes(SaintRWSampler(walk_length=2, num_walks_per_root=2))


class TestBatching:
    def test_batches_cover_graph_once(self, graph):
        rng = np.random.default_rng(0)
        seen = []
        for batch in iter_vertex_batches(graph, 10, rng):
            seen.extend(batch.tolist())
        assert len(seen) == len(set(seen)) == 100

    def test_drop_last(self):
        g = random_graph(25, 60, rng=np.random.default_rng(0))
        full = list(iter_vertex_batches(g, 10, np.random.default_rng(0), drop_last=True))
        assert [len(b) for b in full] == [10, 10]
        keep = list(iter_vertex_batches(g, 10, np.random.default_rng(0), drop_last=False))
        assert [len(b) for b in keep] == [10, 10, 5]

    def test_epoch_batches_pairs_graph_and_batch(self, graph):
        g2 = random_graph(40, 100, rng=np.random.default_rng(1))
        pairs = list(epoch_batches([graph, g2], 10, np.random.default_rng(0)))
        for g, b in pairs:
            assert b.max() < g.num_nodes
        # both graphs appear
        assert {id(g) for g, _ in pairs} == {id(graph), id(g2)}

    def test_group_batches_never_spans_graphs(self, graph):
        g2 = random_graph(40, 100, rng=np.random.default_rng(1))
        pairs = epoch_batches([graph, g2], 10, np.random.default_rng(0))
        for g, group in group_batches(pairs, 3):
            assert 1 <= len(group) <= 3

    def test_group_batches_chunk_size(self, graph):
        pairs = epoch_batches([graph], 10, np.random.default_rng(0))
        groups = [grp for _, grp in group_batches(pairs, 4)]
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_invalid_batch_size(self, graph):
        with pytest.raises(ValueError):
            list(iter_vertex_batches(graph, 0, np.random.default_rng(0)))

    def test_invalid_group_size(self, graph):
        pairs = epoch_batches([graph], 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            list(group_batches(pairs, 0))
