"""Fixed-radius / kNN graph construction invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import fixed_radius_graph, knn_graph
from repro.graph.frnn import _cap_neighbors


@st.composite
def point_clouds(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(2, 80))
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(n, d))


class TestFixedRadius:
    @given(point_clouds(), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_all_edges_within_radius(self, pts, radius):
        ei = fixed_radius_graph(pts, radius)
        if ei.shape[1]:
            d = np.linalg.norm(pts[ei[0]] - pts[ei[1]], axis=1)
            assert np.all(d <= radius + 1e-9)

    @given(point_clouds(), st.floats(0.05, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_no_in_radius_pair_missed(self, pts, radius):
        ei = fixed_radius_graph(pts, radius)
        built = set(map(tuple, ei.T.tolist()))
        n = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(pts[i] - pts[j]) <= radius:
                    assert (i, j) in built

    def test_each_pair_once_src_lt_dst(self):
        rng = np.random.default_rng(0)
        ei = fixed_radius_graph(rng.uniform(size=(50, 3)), 0.4)
        assert np.all(ei[0] < ei[1])
        assert len({tuple(e) for e in ei.T.tolist()}) == ei.shape[1]

    def test_no_self_loops_by_default(self):
        rng = np.random.default_rng(0)
        ei = fixed_radius_graph(rng.uniform(size=(20, 2)), 0.5)
        assert np.all(ei[0] != ei[1])

    def test_loop_flag_adds_self_loops(self):
        rng = np.random.default_rng(0)
        ei = fixed_radius_graph(rng.uniform(size=(10, 2)), 0.5, loop=True)
        loops = ei[:, ei[0] == ei[1]]
        assert loops.shape[1] == 10

    def test_max_neighbors_caps_degree(self):
        # a dense blob: uncapped degree would be n-1
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=0.01, size=(30, 3))
        ei = fixed_radius_graph(pts, radius=1.0, max_neighbors=3)
        deg = np.bincount(ei.reshape(-1), minlength=30)
        assert deg.max() <= 3

    @given(point_clouds(), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_cap_early_exit_equals_full_ranking(self, pts, offset):
        """Caps straddling the max degree: the early exit (nothing over the
        cap) and the full ranking both equal a per-vertex reference, edge
        order included."""
        ei = fixed_radius_graph(pts, radius=0.8)
        if ei.shape[1] == 0:
            return
        max_degree = int(np.bincount(ei.ravel()).max())
        cap = max(1, max_degree + offset)
        d = np.linalg.norm(pts[ei[0]] - pts[ei[1]], axis=1)
        keep = np.ones(ei.shape[1], dtype=bool)
        for v in range(len(pts)):
            incident = np.flatnonzero((ei[0] == v) | (ei[1] == v))
            keep[incident[np.argsort(d[incident], kind="stable")][cap:]] = False
        capped = _cap_neighbors(pts, ei, cap)
        assert np.array_equal(capped, ei[:, keep])
        assert keep.all() == (cap >= max_degree)  # binds only below the max
        assert np.array_equal(capped, fixed_radius_graph(pts, 0.8, max_neighbors=cap))

    def test_empty_input(self):
        ei = fixed_radius_graph(np.zeros((0, 3)), 0.5)
        assert ei.shape == (2, 0)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            fixed_radius_graph(np.zeros((3, 2)), 0.0)

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            fixed_radius_graph(np.random.default_rng(0).uniform(size=(10, 2)), 0.9, max_neighbors=0)


class TestKNN:
    def test_each_vertex_connected(self):
        rng = np.random.default_rng(0)
        ei = knn_graph(rng.uniform(size=(30, 3)), k=3)
        touched = set(ei.reshape(-1).tolist())
        assert touched == set(range(30))

    def test_contains_nearest_neighbor(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(25, 2))
        ei = knn_graph(pts, k=1)
        built = {tuple(sorted(e)) for e in ei.T.tolist()}
        for i in range(25):
            d = np.linalg.norm(pts - pts[i], axis=1)
            d[i] = np.inf
            j = int(np.argmin(d))
            assert tuple(sorted((i, j))) in built

    def test_single_point(self):
        assert knn_graph(np.zeros((1, 3)), k=2).shape == (2, 0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            knn_graph(np.zeros((5, 2)), k=0)
