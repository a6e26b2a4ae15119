"""EventGraph container validation and views."""

import contextlib
import gc
import sys
import weakref
from unittest import mock

import numpy as np
import pytest

from repro import _per_event
from repro.graph import EventGraph, random_graph
from repro.models import IGNNConfig, InteractionGNN
from repro.pipeline.config import PipelineConfig
from repro.pipeline.filter_stage import FilterStage
from repro.tensor import kernels


def tiny_graph():
    return EventGraph(
        edge_index=np.array([[0, 1, 2], [1, 2, 3]]),
        x=np.zeros((4, 6), dtype=np.float32),
        y=np.zeros((3, 2), dtype=np.float32),
        edge_labels=np.array([1, 0, 1], dtype=np.int8),
    )


@contextlib.contextmanager
def plan_spy():
    """The list of every :class:`ScatterPlan` built inside the block."""
    built = []
    init = kernels.ScatterPlan.__init__

    def spy(plan, index):
        built.append(plan)
        init(plan, index)

    with mock.patch.object(kernels.ScatterPlan, "__init__", spy):
        yield built


class TestValidation:
    def test_counts(self):
        g = tiny_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert g.num_node_features == 6
        assert g.num_edge_features == 2

    def test_bad_edge_index_shape(self):
        with pytest.raises(ValueError):
            EventGraph(
                edge_index=np.zeros((3, 2), dtype=np.int64),
                x=np.zeros((4, 2), dtype=np.float32),
                y=np.zeros((2, 1), dtype=np.float32),
            )

    def test_edge_feature_count_mismatch(self):
        with pytest.raises(ValueError):
            EventGraph(
                edge_index=np.array([[0], [1]]),
                x=np.zeros((2, 2), dtype=np.float32),
                y=np.zeros((5, 1), dtype=np.float32),
            )

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            EventGraph(
                edge_index=np.array([[0], [9]]),
                x=np.zeros((2, 2), dtype=np.float32),
                y=np.zeros((1, 1), dtype=np.float32),
            )

    def test_negative_vertex(self):
        with pytest.raises(ValueError):
            EventGraph(
                edge_index=np.array([[-1], [0]]),
                x=np.zeros((2, 2), dtype=np.float32),
                y=np.zeros((1, 1), dtype=np.float32),
            )

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            EventGraph(
                edge_index=np.array([[0], [1]]),
                x=np.zeros((2, 2), dtype=np.float32),
                y=np.zeros((1, 1), dtype=np.float32),
                edge_labels=np.array([1, 0], dtype=np.int8),
            )


class TestViews:
    def test_rows_cols_match_algorithm1_convention(self):
        g = tiny_graph()
        assert np.array_equal(g.rows, [0, 1, 2])
        assert np.array_equal(g.cols, [1, 2, 3])

    def test_forwards_of_one_graph_build_two_plans_that_die_with_it(self):
        """The graph owns the scatter plans of its ``rows`` / ``cols``:
        every forward after the first reuses them, and they go with it."""
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=2, mlp_layers=2, seed=0,
        ))
        g = random_graph(400, 1600, rng=np.random.default_rng(0), true_fraction=0.3)
        with plan_spy() as built:
            first, *rest = [model.logits(g).data for _ in range(3)]
        assert len(built) == 2 and built == list(g.plans)
        assert all(np.array_equal(first, other) for other in rest)  # same bits every call
        refs = [weakref.ref(plan) for plan in g.plans]
        del g, built
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_filter_fit_builds_two_plans_per_graph(self):
        graphs = [
            random_graph(60 + k, 200, rng=np.random.default_rng(k), true_fraction=0.3)
            for k in range(3)
        ]
        stage = FilterStage(PipelineConfig(filter_epochs=3, filter_hidden=8, mlp_layers=2))
        with plan_spy() as built:
            stage.fit(graphs, np.random.default_rng(0))
        assert len(stage.losses) == 3
        assert built == [plan for g in graphs for plan in g.plans]

    def test_lanes_scoring_one_graph_share_its_plans(self, forced_helpers):
        """Lanes race to build one graph's plans and operators; each lane
        scores the graph with the bits a lone call gets."""
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=2, mlp_layers=2, seed=0,
        ))
        g = random_graph(300, 1200, rng=np.random.default_rng(1), true_fraction=0.3)
        expect = model.predict_proba(random_graph(
            300, 1200, rng=np.random.default_rng(1), true_fraction=0.3
        ))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with forced_helpers(3):
                scored = list(_per_event.per_event(model.predict_proba, [g] * 12))
        finally:
            sys.setswitchinterval(previous)
        assert all(np.array_equal(probs, expect) for probs in scored)
        assert "plans" in g._cache

    def test_csr_is_cached(self):
        g = tiny_graph()
        assert g.to_csr() is g.to_csr()
        assert g.to_csr(symmetric=True) is not g.to_csr(symmetric=False)

    def test_symmetric_csr_doubles_nnz(self):
        g = tiny_graph()
        assert g.to_csr(symmetric=True).nnz == 2 * g.to_csr(symmetric=False).nnz

    def test_csr_binary_after_dedup(self):
        g = random_graph(50, 200, rng=np.random.default_rng(0))
        csr = g.to_csr(symmetric=True)
        assert np.all(csr.data == 1.0)

    def test_degrees(self):
        g = tiny_graph()
        assert np.array_equal(g.degrees(symmetric=True), [1, 2, 2, 1])
        assert np.array_equal(g.degrees(symmetric=False), [1, 1, 1, 0])

    def test_degrees_match_dedup_csr_with_duplicates_and_self_loops(self):
        """Regression: degrees() must agree with the deduplicated binary
        adjacency the samplers walk (duplicate edges count once, a
        self-loop counts once), not with the raw edge list."""
        ei = np.array([[0, 0, 1, 1, 2], [1, 1, 1, 2, 0]])  # dup 0→1, loop 1→1
        g = EventGraph(
            edge_index=ei,
            x=np.zeros((3, 2), dtype=np.float32),
            y=np.zeros((5, 1), dtype=np.float32),
        )
        for symmetric in (True, False):
            expected = np.diff(g.to_csr(symmetric=symmetric).indptr)
            assert np.array_equal(g.degrees(symmetric=symmetric), expected)
        # undirected: 0–{1,2}, 1–{0,1,2}, 2–{0,1}
        assert g.degrees(symmetric=True).tolist() == [2, 3, 2]

    def test_true_edge_fraction(self):
        assert tiny_graph().true_edge_fraction() == pytest.approx(2 / 3)

    def test_true_edge_fraction_requires_labels(self):
        g = tiny_graph()
        g.edge_labels = None
        with pytest.raises(ValueError):
            g.true_edge_fraction()


class TestEdgeMaskSubgraph:
    def test_keeps_vertices_in_place(self):
        g = tiny_graph()
        sub = g.edge_mask_subgraph(np.array([True, False, True]))
        assert sub.num_nodes == g.num_nodes
        assert sub.num_edges == 2
        assert np.array_equal(sub.rows, [0, 2])

    def test_labels_follow_mask(self):
        g = tiny_graph()
        sub = g.edge_mask_subgraph(np.array([False, True, True]))
        assert np.array_equal(sub.edge_labels, [0, 1])

    def test_mask_length_checked(self):
        with pytest.raises(ValueError):
            tiny_graph().edge_mask_subgraph(np.array([True]))
