"""Serialization round-trips (property-based)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import random_graph
from repro.io import load_graphs, save_graphs


class TestSerialization:
    @given(st.integers(0, 4000), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_exact(self, seed, count):
        import tempfile, os

        rng = np.random.default_rng(seed)
        graphs = [
            random_graph(
                int(rng.integers(5, 40)), int(rng.integers(10, 80)), rng=rng, event_id=i
            )
            for i in range(count)
        ]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "graphs.npz")
            save_graphs(graphs, path)
            loaded = load_graphs(path)
        assert len(loaded) == len(graphs)
        for g, l in zip(graphs, loaded):
            assert np.array_equal(g.edge_index, l.edge_index)
            assert np.array_equal(g.x, l.x)
            assert np.array_equal(g.y, l.y)
            assert np.array_equal(g.edge_labels, l.edge_labels)
            assert g.event_id == l.event_id
            assert g.x.dtype == l.x.dtype
            assert g.edge_index.dtype == l.edge_index.dtype

    def test_optional_fields_preserved_as_none(self, tmp_path):
        g = random_graph(10, 20, rng=np.random.default_rng(0))
        g.edge_labels = None
        save_graphs([g], str(tmp_path / "g.npz"))
        loaded = load_graphs(str(tmp_path / "g.npz"))[0]
        assert loaded.edge_labels is None

    def test_particle_ids_preserved(self, tmp_path):
        g = random_graph(10, 20, rng=np.random.default_rng(0))
        g.particle_ids = np.arange(10)
        save_graphs([g], str(tmp_path / "g.npz"))
        loaded = load_graphs(str(tmp_path / "g.npz"))[0]
        assert np.array_equal(loaded.particle_ids, np.arange(10))

    def test_empty_list(self, tmp_path):
        save_graphs([], str(tmp_path / "empty.npz"))
        assert load_graphs(str(tmp_path / "empty.npz")) == []

    def test_creates_parent_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "g.npz")
        save_graphs([random_graph(5, 8, rng=np.random.default_rng(0))], path)
        assert len(load_graphs(path)) == 1

