"""End-to-end precision mode: float64 reference vs float32 deployment.

The convergence-parity gate that qualifies the float32 default: a short
float32 run must track the float64 reference trajectory.  (The fused
message path's parity gates run against its unfused oracle in
``tests/models/test_fused_ignn.py``.)
"""

import numpy as np
import pytest

from repro.pipeline import GNNTrainConfig, train_gnn

SMALL = dict(
    mode="bulk", epochs=3, batch_size=32, hidden=8, num_layers=2,
    mlp_layers=2, depth=2, fanout=3, bulk_k=2, seed=0,
)


@pytest.fixture(scope="module")
def splits(tiny_dataset):
    return tiny_dataset.train, tiny_dataset.val


class TestConfig:
    def test_precision_validated(self):
        with pytest.raises(ValueError):
            GNNTrainConfig(precision="float16")

    def test_defaults(self):
        cfg = GNNTrainConfig()
        assert cfg.precision == "float32" and cfg.fused_kernels

    def test_unfused_path_retired(self):
        with pytest.raises(ValueError, match="fused_kernels=False is retired"):
            GNNTrainConfig(fused_kernels=False)


class TestPrecisionParity:
    def test_float64_trains_with_float64_weights(self, splits):
        train, val = splits
        res = train_gnn(train, val, GNNTrainConfig(**SMALL, precision="float64"))
        model = res.model
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert np.isfinite(res.history.final.train_loss)

    def test_float32_tracks_float64_reference(self, splits):
        """Convergence-parity gate for the float32 deployment mode."""
        train, val = splits
        r32 = train_gnn(train, val, GNNTrainConfig(**SMALL, precision="float32"))
        r64 = train_gnn(train, val, GNNTrainConfig(**SMALL, precision="float64"))
        l32 = [e.train_loss for e in r32.history]
        l64 = [e.train_loss for e in r64.history]
        np.testing.assert_allclose(l32, l64, rtol=2e-3)
        assert abs(r32.history.final.val_recall - r64.history.final.val_recall) < 0.05
