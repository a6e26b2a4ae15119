"""Batching utilities: vertex batches, epoch pairs, bulk groups."""

import numpy as np
import pytest

from repro.graph import random_graph
from repro.sampling import epoch_batches, group_batches, iter_vertex_batches


@pytest.fixture
def graph():
    return random_graph(100, 500, rng=np.random.default_rng(0))


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
