"""Sequential/bulk ShaDow parity on degenerate graph structure.

With a fanout of at least the maximum degree both samplers are
deterministic (every neighbourhood is taken whole), so their outputs
must agree *exactly* — including the cases that historically diverged:
degree-0 batch vertices, self-loops, and duplicate parent edges (the
bulk SpGEMM extraction path used to emit only the first of several
duplicate edges between the same vertex pair).
"""

import numpy as np
import pytest

from repro.graph import EventGraph
from repro.sampling import BulkShadowSampler, ShadowSampler


def _graph(edge_index, n, seed=0):
    rng = np.random.default_rng(seed)
    m = edge_index.shape[1]
    return EventGraph(
        edge_index=edge_index,
        x=rng.random((n, 3)).astype(np.float32),
        y=rng.random((m, 2)).astype(np.float32),
        edge_labels=rng.integers(0, 2, m).astype(np.int8),
    )


def _assert_parity(graph, batch, depth=2, seed=7, forced_sparse=False):
    fanout = int(graph.degrees().max(initial=0)) + 1
    seq = ShadowSampler(depth, fanout).sample(
        graph, batch, np.random.default_rng(seed)
    )
    bulk = BulkShadowSampler(depth, fanout)
    if forced_sparse:
        bulk.DENSE_LOOKUP_MAX = 0  # force the SpGEMM + searchsorted path
    blk = bulk.sample(graph, batch, np.random.default_rng(seed))
    assert np.array_equal(seq.node_parent, blk.node_parent)
    assert np.array_equal(seq.component_ids, blk.component_ids)
    assert np.array_equal(seq.roots, blk.roots)
    assert seq.graph.num_edges == blk.graph.num_edges
    assert sorted(seq.edge_parent.tolist()) == sorted(blk.edge_parent.tolist())
    return seq, blk


class TestIsolatedRoots:
    def test_isolated_root_is_single_vertex_component(self):
        g = _graph(np.array([[0, 1, 2], [1, 2, 3]]), 6)
        seq, blk = _assert_parity(g, np.array([4, 0, 5]))
        for out in (seq, blk):
            # roots 4 and 5 have degree 0: one-vertex, zero-edge blocks
            for comp, root in ((0, 4), (2, 5)):
                members = out.node_parent[out.component_ids == comp]
                assert members.tolist() == [root]
                assert not np.any(out.component_ids[out.graph.rows] == comp)

    def test_batch_entirely_isolated(self):
        g = _graph(np.array([[0, 1], [1, 2]]), 6)
        seq, blk = _assert_parity(g, np.array([4, 5, 3]))
        assert seq.graph.num_edges == 0
        assert np.array_equal(blk.node_parent[blk.roots], np.array([4, 5, 3]))

    def test_edgeless_graph(self):
        g = _graph(np.zeros((2, 0), dtype=np.int64), 4)
        seq, blk = _assert_parity(g, np.array([1, 3]))
        assert blk.graph.num_edges == 0
        assert blk.num_components == 2


class TestDegenerateEdges:
    @pytest.mark.parametrize("forced_sparse", [False, True])
    def test_duplicate_parent_edges_kept_once_each(self, forced_sparse):
        """Every *instance* of a duplicated parent edge appears in the
        sampled block, matching the sequential sampler."""
        ei = np.array([[0, 0, 0, 1], [1, 1, 1, 2]])  # edge 0→1 three times
        g = _graph(ei, 4)
        seq, blk = _assert_parity(
            g, np.array([0, 3]), forced_sparse=forced_sparse
        )
        comp0 = blk.component_ids[blk.graph.rows] == 0
        assert int(comp0.sum()) >= 3

    @pytest.mark.parametrize("forced_sparse", [False, True])
    def test_self_loops(self, forced_sparse):
        ei = np.array([[0, 1, 2], [0, 2, 2]])  # self-loops at 0 and 2
        g = _graph(ei, 4)
        _assert_parity(g, np.array([0, 2, 3]), forced_sparse=forced_sparse)


class TestDenseSelections:
    @pytest.mark.parametrize("forced_sparse", [False, True])
    def test_selection_covering_the_whole_graph(self, forced_sparse):
        """A near-complete graph where every root's depth-2 selection is
        the whole vertex set, so scanning every parent edge per root would
        cost no more than the SpGEMM (roots × edges ≤ 2 × selected degree
        mass): the one SpGEMM extraction agrees with the sequential
        sampler in that regime too."""
        n = 12
        pairs = np.array([(u, v) for u in range(n) for v in range(n) if u < v and (u + v) % 5])
        g = _graph(pairs.T.copy(), n)
        batch = np.array([0, 5, 11])
        seq, blk = _assert_parity(g, batch, forced_sparse=forced_sparse)
        assert len(blk.node_parent) == len(batch) * n
        assert blk.graph.num_edges == len(batch) * g.num_edges
        assert len(batch) * g.num_edges <= 2 * int(g.degrees()[blk.node_parent].sum())


class TestRandomizedParity:
    def test_sweep(self):
        """Randomized graphs with injected duplicates, self-loops, and
        isolated vertices: full structural parity under a shared seed."""
        rng0 = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng0.integers(5, 40))
            m = int(rng0.integers(0, 4 * n))
            ei = rng0.integers(0, n, size=(2, m))
            if m >= 3:
                ei[:, 0] = ei[:, 1]  # duplicate
                ei[:, 2] = [ei[0, 2], ei[0, 2]]  # self-loop
            g = _graph(ei, n, seed=int(rng0.integers(0, 1000)))
            b = int(rng0.integers(1, min(6, n) + 1))
            batch = rng0.choice(n, size=b, replace=False)
            _assert_parity(
                g,
                batch,
                depth=int(rng0.integers(1, 4)),
                seed=int(rng0.integers(0, 10000)),
                forced_sparse=bool(rng0.integers(0, 2)),
            )
