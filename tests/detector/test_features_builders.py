"""Feature extraction (Table-I widths) and candidate-graph building."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detector import (
    DetectorGeometry,
    EventSimulator,
    GeometricBuilderConfig,
    build_candidate_graph,
    edge_features,
    feature_dims,
    label_edges,
    segment_recall,
    vertex_features,
)


@pytest.fixture(scope="module")
def geometry():
    return DetectorGeometry.barrel_only()


@pytest.fixture(scope="module")
def event(geometry):
    sim = EventSimulator(geometry, particles_per_event=25, noise_fraction=0.05)
    return sim.generate(np.random.default_rng(3))


class TestFeatureDims:
    def test_table1_widths(self):
        """Table I: Ex3 has 6/2 features, CTD has 14/8."""
        assert feature_dims("compact") == (6, 2)
        assert feature_dims("rich") == (14, 8)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            feature_dims("huge")


class TestVertexFeatures:
    @pytest.mark.parametrize("scheme", ["compact", "rich"])
    def test_shapes(self, event, geometry, scheme):
        x = vertex_features(event, geometry, scheme)
        assert x.shape == (event.num_hits, feature_dims(scheme)[0])
        assert x.dtype == np.float32

    @pytest.mark.parametrize("scheme", ["compact", "rich"])
    def test_finite_and_order_one(self, event, geometry, scheme):
        x = vertex_features(event, geometry, scheme)
        assert np.all(np.isfinite(x))
        assert np.abs(x).max() < 10.0

    def test_unknown_scheme(self, event, geometry):
        with pytest.raises(ValueError):
            vertex_features(event, geometry, "bogus")


class TestEdgeFeatures:
    @pytest.mark.parametrize("scheme", ["compact", "rich"])
    def test_shapes(self, event, geometry, scheme):
        ei = event.true_segments()
        y = edge_features(event, geometry, ei, scheme)
        assert y.shape == (ei.shape[1], feature_dims(scheme)[1])
        assert np.all(np.isfinite(y))

    def test_true_segments_have_small_dphi(self, event, geometry):
        """True segments are kinematically smooth: small azimuthal kinks."""
        ei = event.true_segments()
        y = edge_features(event, geometry, ei, "compact")
        dphi = y[:, 1] * np.pi
        assert np.percentile(np.abs(dphi), 90) < 0.5


class TestLabeling:
    def test_true_segments_labelled_one(self, event):
        seg = event.true_segments()
        labels = label_edges(event, seg)
        assert np.all(labels == 1)

    def test_reversed_segments_also_labelled_one(self, event):
        seg = event.true_segments()[::-1]
        labels = label_edges(event, seg)
        assert np.all(labels == 1)

    def test_random_pairs_mostly_zero(self, event):
        rng = np.random.default_rng(0)
        n = event.num_hits
        ei = np.stack([rng.integers(0, n, 200), rng.integers(0, n, 200)])
        labels = label_edges(event, ei)
        assert labels.mean() < 0.1

    def test_empty_edges(self, event):
        labels = label_edges(event, np.zeros((2, 0), dtype=np.int64))
        assert labels.shape == (0,) and labels.dtype == np.int8

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_membership_loop(self, geometry, seed):
        """The sorted-key membership test labels exactly what the Python
        set loop it replaced did: random events with noise hits, truth
        segments in both orientations mixed into random pairs."""
        rng = np.random.default_rng(seed)
        sim = EventSimulator(geometry, particles_per_event=10 + 5 * seed, noise_fraction=0.2)
        event = sim.generate(rng)
        n = event.num_hits
        seg = event.true_segments()
        pairs = np.stack([rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)])
        ei = np.concatenate([seg, seg[::-1], pairs], axis=1)[:, rng.permutation(2 * seg.shape[1] + 4 * n)]
        truth = {(int(a), int(b)) for a, b in seg.T} | {(int(b), int(a)) for a, b in seg.T}
        expected = np.array([(int(a), int(b)) in truth for a, b in ei.T], dtype=np.int8)
        labels = label_edges(event, ei.astype(np.int32))
        assert labels.dtype == np.int8
        assert np.array_equal(labels, expected)
        assert 0 < labels.sum() < labels.size


def _set_loop_recall(segments, edge_index, n):
    """The Python set loop ``segment_recall`` replaced."""
    if segments.shape[1] == 0:
        return 1.0
    built = {int(a) * n + int(b) for a, b in edge_index.T}
    built |= {int(b) * n + int(a) for a, b in edge_index.T}
    return sum(1 for a, b in segments.T if int(a) * n + int(b) in built) / segments.shape[1]


@st.composite
def segments_and_edges(draw):
    n = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    segments = np.array(draw(st.lists(pair, max_size=30)), dtype=np.int64).reshape(-1, 2).T
    edges = draw(st.lists(pair, max_size=60))
    if segments.size and draw(st.booleans()):  # plant truth, some reversed
        edges += [(b, a) if draw(st.booleans()) else (a, b) for a, b in segments.T.tolist()]
    edge_index = np.array(edges, dtype=np.int32).reshape(-1, 2).T
    return n, segments, edge_index


class TestSegmentRecall:
    @given(segments_and_edges())
    @settings(max_examples=200, deadline=None)
    def test_matches_set_loop(self, data):
        """Either orientation counts, duplicate segments count once each,
        no segments → 1.0, no edges → 0.0 — as the loop counted."""
        n, segments, edge_index = data
        event = SimpleNamespace(num_hits=n, true_segments=lambda: segments)
        assert segment_recall(event, edge_index) == _set_loop_recall(segments, edge_index, n)

    def test_truth_in_either_orientation_is_complete(self, event):
        seg = event.true_segments()
        assert segment_recall(event, seg) == 1.0
        assert segment_recall(event, seg[::-1].astype(np.int32)) == 1.0
        assert segment_recall(event, np.zeros((2, 0), dtype=np.int64)) == 0.0


class TestBuilder:
    def test_builds_labelled_graph(self, event, geometry):
        cfg = GeometricBuilderConfig(dphi_max=0.3, dz_max=300.0, feature_scheme="compact")
        g = build_candidate_graph(event, geometry, cfg)
        assert g.num_nodes == event.num_hits
        assert g.edge_labels is not None
        assert g.num_edges > 0

    def test_edges_respect_windows(self, event, geometry):
        cfg = GeometricBuilderConfig(dphi_max=0.1, dz_max=50.0, feature_scheme="compact")
        g = build_candidate_graph(event, geometry, cfg)
        r, phi, z = event.cylindrical()
        src, dst = g.edge_index
        dphi = np.arctan2(np.sin(phi[dst] - phi[src]), np.cos(phi[dst] - phi[src]))
        assert np.all(np.abs(dphi) <= 0.1 + 1e-9)
        assert np.all(np.abs(z[dst] - z[src]) <= 50.0 + 1e-9)

    def test_edges_cross_adjacent_layers_only(self, event, geometry):
        cfg = GeometricBuilderConfig(dphi_max=0.3, dz_max=300.0, max_layer_skip=1)
        g = build_candidate_graph(event, geometry, cfg)
        src, dst = g.edge_index
        dl = event.layer_ids[dst] - event.layer_ids[src]
        assert np.all(dl == 1)

    def test_layer_skip_widens_reach(self, event, geometry):
        g1 = build_candidate_graph(
            event, geometry, GeometricBuilderConfig(dphi_max=0.3, dz_max=300.0, max_layer_skip=1)
        )
        g2 = build_candidate_graph(
            event, geometry, GeometricBuilderConfig(dphi_max=0.3, dz_max=300.0, max_layer_skip=2)
        )
        assert g2.num_edges > g1.num_edges

    def test_wider_windows_more_edges(self, event, geometry):
        narrow = build_candidate_graph(
            event, geometry, GeometricBuilderConfig(dphi_max=0.05, dz_max=50.0)
        )
        wide = build_candidate_graph(
            event, geometry, GeometricBuilderConfig(dphi_max=0.4, dz_max=400.0)
        )
        assert wide.num_edges > narrow.num_edges

    def test_truth_coverage_with_generous_windows(self, event, geometry):
        """Generous windows must contain nearly all truth segments."""
        cfg = GeometricBuilderConfig(dphi_max=0.5, dz_max=500.0, max_layer_skip=1)
        g = build_candidate_graph(event, geometry, cfg)
        captured = int(g.edge_labels.sum())
        # segments between adjacent layers (skip-1 windows can't capture
        # segments that jump a layer due to inefficiency)
        seg = event.true_segments()
        dl = event.layer_ids[seg[1]] - event.layer_ids[seg[0]]
        adjacent = int(np.sum(np.abs(dl) == 1))
        assert captured >= 0.95 * adjacent

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GeometricBuilderConfig(dphi_max=0.0)
        with pytest.raises(ValueError):
            GeometricBuilderConfig(max_layer_skip=0)
