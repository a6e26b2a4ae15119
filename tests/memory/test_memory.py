"""Activation-memory model."""

import numpy as np
import pytest

from repro.memory import ActivationMemoryModel
from repro.models import IGNNConfig

# 60% of a 40 GB A100: the usual planning share left for activations
A100_ACTIVATION_BUDGET = int(0.6 * 40 * 1024**3)


@pytest.fixture
def model():
    return ActivationMemoryModel(
        IGNNConfig(node_features=6, edge_features=2, hidden=64, num_layers=8, mlp_layers=2)
    )


class TestActivationModel:
    def test_monotone_in_edges(self, model):
        assert model.total_bytes(1000, 20_000) > model.total_bytes(1000, 10_000)

    def test_monotone_in_nodes(self, model):
        assert model.total_bytes(2000, 10_000) > model.total_bytes(1000, 10_000)

    def test_scales_with_layers(self):
        cfg4 = IGNNConfig(6, 2, hidden=64, num_layers=4)
        cfg8 = IGNNConfig(6, 2, hidden=64, num_layers=8)
        b4 = ActivationMemoryModel(cfg4).total_bytes(1000, 10_000)
        b8 = ActivationMemoryModel(cfg8).total_bytes(1000, 10_000)
        assert 1.8 < b8 / b4 < 2.2

    def test_edge_term_has_mf_scale(self, model):
        """Section III-B: the largest matrices have m·f elements — the
        per-layer edge cost must be at least m·f elements (4 bytes each)."""
        m, f = 100_000, 64
        per_layer = model.elements_per_layer(0, m)
        assert per_layer >= m * f

    def test_fits_boundary(self, model):
        bytes_needed = model.total_bytes(500, 5000)
        assert model.fits(500, 5000, bytes_needed)
        assert not model.fits(500, 5000, bytes_needed - 1)

    def test_max_edges_inverse_of_total_bytes(self, model):
        cap = model.total_bytes(1000, 12_345)
        me = model.max_edges(1000, cap)
        assert abs(me - 12_345) <= 1
        assert model.fits(1000, me, cap)
        assert not model.fits(1000, me + 2, cap)

    def test_max_edges_zero_when_nodes_exhaust_budget(self, model):
        assert model.max_edges(10**9, 1000) == 0

    def test_ctd_scale_exceeds_a100(self):
        """The paper's motivation: large CTD events (≥ paper-average size)
        overflow a 40 GB A100's activation budget under the full 8-layer,
        hidden-64 configuration."""
        cfg = IGNNConfig(14, 8, hidden=64, num_layers=8, mlp_layers=3)
        model = ActivationMemoryModel(cfg)
        budget = A100_ACTIVATION_BUDGET
        # paper Table I: avg CTD graph is 330.7K vertices, 6.9M edges; the
        # largest graphs are several times the average
        assert not model.fits(330_700 * 3, 6_900_000 * 3, budget)

    def test_ex3_scale_fits_a100(self):
        cfg = IGNNConfig(6, 2, hidden=64, num_layers=8, mlp_layers=2)
        model = ActivationMemoryModel(cfg)
        assert model.fits(13_000, 47_800, A100_ACTIVATION_BUDGET)
