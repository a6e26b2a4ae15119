"""Matrix-based bulk ShaDow sampler (Figure 2) invariants and
equivalence with the sequential reference."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import chain_graph, random_graph
from repro.sampling import (
    BulkShadowSampler,
    ShadowSampler,
    sample_rows_csr,
)


@st.composite
def sampler_cases(draw):
    seed = draw(st.integers(0, 5000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(10, 80))
    g = random_graph(n, 4 * n, rng=rng)
    b = draw(st.integers(1, min(8, n)))
    batch = rng.choice(n, size=b, replace=False)
    depth = draw(st.integers(1, 3))
    fanout = draw(st.integers(1, 5))
    return g, batch, depth, fanout, seed


class TestSampleRowsCSR:
    def test_samples_at_most_fanout_per_row(self):
        rng = np.random.default_rng(0)
        P = sp.random(20, 30, density=0.4, format="csr", random_state=1)
        rows, cols = sample_rows_csr(P, 3, rng)
        counts = np.bincount(rows, minlength=20)
        assert counts.max() <= 3

    def test_takes_all_when_row_small(self):
        P = sp.csr_matrix(np.array([[1, 1, 0], [0, 0, 1]], dtype=float))
        rows, cols = sample_rows_csr(P, 5, np.random.default_rng(0))
        assert np.bincount(rows, minlength=2).tolist() == [2, 1]

    def test_sampled_entries_are_nonzeros(self):
        rng = np.random.default_rng(0)
        P = sp.random(15, 15, density=0.3, format="csr", random_state=2)
        rows, cols = sample_rows_csr(P, 2, rng)
        dense = P.toarray()
        for r, c in zip(rows, cols):
            assert dense[r, c] != 0

    def test_distinct_within_row(self):
        P = sp.csr_matrix(np.ones((4, 10)))
        rows, cols = sample_rows_csr(P, 6, np.random.default_rng(0))
        for r in range(4):
            picked = cols[rows == r]
            assert len(set(picked.tolist())) == len(picked)

    def test_uniformity(self):
        """Sampling one of three columns: each should appear ~1/3."""
        P = sp.csr_matrix(np.ones((1, 3)))
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        for _ in range(3000):
            _, cols = sample_rows_csr(P, 1, rng)
            counts[cols[0]] += 1
        assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)

    def test_empty_matrix(self):
        P = sp.csr_matrix((3, 3))
        rows, cols = sample_rows_csr(P, 2, np.random.default_rng(0))
        assert rows.size == 0 and cols.size == 0

    def test_lexsort_path_matches_composite_path(self, monkeypatch):
        """Above the row-count threshold the segmented lexsort takes over;
        both paths draw the same keys, so where the composite key is
        exact the selections must be bit-identical."""
        import repro.sampling.bulk as bulk_mod

        P = sp.random(50, 40, density=0.3, format="csr", random_state=5)
        a = sample_rows_csr(P, 3, np.random.default_rng(11))
        monkeypatch.setattr(bulk_mod, "_COMPOSITE_KEY_MAX_ROWS", 0)
        b = sample_rows_csr(P, 3, np.random.default_rng(11))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_uniform_selection_for_large_row_indices(self, monkeypatch):
        """Regression for the composite-key precision bug: rows with
        large indices must still select neighbours uniformly (the old
        ``row + U[0,1)`` key loses fractional precision as row indices
        grow, biasing ties toward CSR order)."""
        import repro.sampling.bulk as bulk_mod

        monkeypatch.setattr(bulk_mod, "_COMPOSITE_KEY_MAX_ROWS", 0)
        n_rows, last = 4096, 4095
        # only the last (largest-index) row is populated, with 3 columns
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        indptr[last + 1 :] = 3
        P = sp.csr_matrix(
            (np.ones(3), np.array([0, 1, 2]), indptr), shape=(n_rows, 3)
        )
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        for _ in range(3000):
            _, cols = sample_rows_csr(P, 1, rng)
            counts[cols[0]] += 1
        assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            sample_rows_csr(sp.csr_matrix((2, 2)), 0, np.random.default_rng(0))


class TestBulkInvariants:
    @given(sampler_cases())
    @settings(max_examples=40, deadline=None)
    def test_one_component_per_batch_vertex(self, case):
        g, batch, depth, fanout, seed = case
        out = BulkShadowSampler(depth, fanout).sample(g, batch, np.random.default_rng(seed))
        assert out.num_components == len(batch)

    @given(sampler_cases())
    @settings(max_examples=40, deadline=None)
    def test_roots_resolve_to_batch_vertices(self, case):
        g, batch, depth, fanout, seed = case
        out = BulkShadowSampler(depth, fanout).sample(g, batch, np.random.default_rng(seed))
        assert np.array_equal(out.node_parent[out.roots], batch)

    @given(sampler_cases())
    @settings(max_examples=40, deadline=None)
    def test_edges_never_cross_components(self, case):
        g, batch, depth, fanout, seed = case
        out = BulkShadowSampler(depth, fanout).sample(g, batch, np.random.default_rng(seed))
        ci = out.component_ids
        assert np.all(ci[out.graph.rows] == ci[out.graph.cols])

    @given(sampler_cases())
    @settings(max_examples=40, deadline=None)
    def test_components_are_induced_subgraphs(self, case):
        """Every parent edge between two selected vertices of a component
        must appear exactly once (induced-subgraph completeness)."""
        g, batch, depth, fanout, seed = case
        out = BulkShadowSampler(depth, fanout).sample(g, batch, np.random.default_rng(seed))
        got = set(zip(out.graph.rows.tolist(), out.graph.cols.tolist()))
        assert len(got) == out.graph.num_edges  # no duplicates
        for ci in range(len(batch)):
            members = out.node_parent[out.component_ids == ci]
            member_set = set(members.tolist())
            compact = {int(v): i for i, v in enumerate(np.flatnonzero(out.component_ids == ci))}
            # count parent edges inside this component's vertex set
            inside = sum(
                1
                for u, v in zip(g.rows.tolist(), g.cols.tolist())
                if u in member_set and v in member_set
            )
            block_edges = int(np.sum(out.component_ids[out.graph.rows] == ci))
            assert block_edges == inside

    @given(sampler_cases())
    @settings(max_examples=40, deadline=None)
    def test_features_follow_parents(self, case):
        g, batch, depth, fanout, seed = case
        out = BulkShadowSampler(depth, fanout).sample(g, batch, np.random.default_rng(seed))
        assert np.array_equal(out.graph.x, g.x[out.node_parent])
        assert np.array_equal(out.graph.y, g.y[out.edge_parent])
        assert np.array_equal(out.graph.edge_labels, g.edge_labels[out.edge_parent])

    @given(sampler_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_sequential_size_distribution(self, case):
        """Bulk and sequential samplers draw from the same process: with a
        generous fanout (≥ max degree) both must return the *exact* full
        d-hop neighbourhood, deterministically."""
        g, batch, depth, _, seed = case
        big_fanout = int(g.degrees().max()) + 1
        seq = ShadowSampler(depth, big_fanout).sample(g, batch, np.random.default_rng(seed))
        blk = BulkShadowSampler(depth, big_fanout).sample(g, batch, np.random.default_rng(seed))
        assert np.array_equal(seq.node_parent, blk.node_parent)
        assert np.array_equal(seq.component_ids, blk.component_ids)
        assert seq.graph.num_edges == blk.graph.num_edges


class TestBulkMultiBatch:
    def test_k_batches_independent_results(self):
        g = random_graph(100, 500, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batches = [rng.choice(100, size=10, replace=False) for _ in range(4)]
        outs = BulkShadowSampler(2, 3).sample_bulk(g, batches, np.random.default_rng(2))
        assert len(outs) == 4
        for out, batch in zip(outs, batches):
            assert out.num_components == 10
            assert np.array_equal(out.node_parent[out.roots], batch)
            ci = out.component_ids
            assert np.all(ci[out.graph.rows] == ci[out.graph.cols])

    def test_unequal_batch_sizes(self):
        g = random_graph(60, 300, rng=np.random.default_rng(0))
        batches = [np.array([0, 1, 2]), np.array([5]), np.array([7, 9])]
        outs = BulkShadowSampler(2, 2).sample_bulk(g, batches, np.random.default_rng(3))
        assert [o.num_components for o in outs] == [3, 1, 2]

    def test_empty_batch_rejected(self):
        g = chain_graph(5)
        with pytest.raises(ValueError):
            BulkShadowSampler(2, 2).sample_bulk(g, [np.array([], dtype=np.int64)], np.random.default_rng(0))

    def test_fallback_searchsorted_path_matches_dense(self):
        """The two lookups of the one extraction path — dense id table,
        or binary search when the table would not fit — return the same
        batches, edge order included."""
        g = random_graph(80, 400, rng=np.random.default_rng(4))
        batches = [np.arange(10), np.array([11, 40, 79])]
        table = BulkShadowSampler(2, 3)
        search = BulkShadowSampler(2, 3)
        search.DENSE_LOOKUP_MAX = 0  # the table never fits
        outs_a = table.sample_bulk(g, batches, np.random.default_rng(9))
        outs_b = search.sample_bulk(g, batches, np.random.default_rng(9))
        for a, b in zip(outs_a, outs_b):
            assert np.array_equal(a.node_parent, b.node_parent)
            assert np.array_equal(a.component_ids, b.component_ids)
            assert np.array_equal(a.roots, b.roots)
            assert a.graph.num_edges > 0
            assert np.array_equal(a.graph.edge_index, b.graph.edge_index)
            assert np.array_equal(a.edge_parent, b.edge_parent)


class TestSampleBulkSpan:
    """``Sampler.sample_bulk`` owns the one ``sampler.sample_bulk`` span;
    every sampler — bulk body or the sequential default — is visible in a
    trace with its identity first and the sampled totals last."""

    @pytest.mark.parametrize(
        "make, own",
        [
            (lambda: BulkShadowSampler(2, 3), {"depth": 2, "fanout": 3}),
            (lambda: ShadowSampler(2, 3), {}),
        ],
        ids=["bulk_shadow", "sequential_default"],
    )
    def test_one_span_with_identity_and_totals(self, make, own):
        from repro.obs import RunTelemetry, use_telemetry

        g = random_graph(60, 300, rng=np.random.default_rng(0))
        batches = [np.array([0, 1, 2]), np.array([5, 7])]
        sampler = make()
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            outs = sampler.sample_bulk(g, batches, np.random.default_rng(3))
        (span,) = telemetry.tracer.find("sampler.sample_bulk")
        assert span.category == "sampling"
        assert list(span.attributes.items()) == [
            ("sampler", type(sampler).__name__),
            ("k", 2),
            *own.items(),
            ("nodes", sum(o.graph.num_nodes for o in outs)),
            ("edges", sum(o.graph.num_edges for o in outs)),
        ]
