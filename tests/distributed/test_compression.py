"""Top-k gradient compression with error feedback."""

import numpy as np
import pytest

from repro.distributed import (
    NVLINK_A100,
    CommCostModel,
    CompressedSynchronizer,
    TopKCompressor,
    compressed_bytes,
    compression_speedup,
    replicate_model,
)
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import MLP, SGD, BCEWithLogitsLoss
from repro.tensor import Tensor


class TestTopKCompressor:
    def test_keeps_largest_magnitudes(self):
        comp = TopKCompressor(ratio=0.25)
        grad = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 0.0, 1.0, -2.0], dtype=np.float32)
        idx, values = comp.compress(grad)
        assert len(idx) == 2
        assert set(idx.tolist()) == {1, 3}

    def test_error_feedback_accumulates(self):
        """Mass dropped in step 1 must reappear (and eventually transmit)."""
        comp = TopKCompressor(ratio=0.25)
        grad = np.array([1.0, 0.6, 0.5, 0.4], dtype=np.float32)
        idx1, _ = comp.compress(grad)
        assert idx1.tolist() == [0]
        # second step: zero new gradient; the residual alone should now
        # surface the next-largest entry
        idx2, values2 = comp.compress(np.zeros(4, dtype=np.float32))
        assert idx2.tolist() == [1]
        assert values2[0] == pytest.approx(0.6)

    def test_no_mass_lost(self):
        """Σ(transmitted) + residual == Σ(gradients) at all times."""
        rng = np.random.default_rng(0)
        comp = TopKCompressor(ratio=0.1)
        total_in = np.zeros(50)
        total_out = np.zeros(50)
        for _ in range(10):
            g = rng.normal(size=50).astype(np.float32)
            total_in += g
            idx, values = comp.compress(g)
            np.add.at(total_out, idx, values)
        assert np.allclose(total_out + comp._residual, total_in, atol=1e-4)

    def test_ratio_one_transmits_everything(self):
        comp = TopKCompressor(ratio=1.0)
        g = np.arange(5, dtype=np.float32)
        idx, values = comp.compress(g)
        assert len(idx) == 5
        assert np.all(comp._residual == 0)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)


class TestCompressedSynchronizer:
    def _setup(self, ratio):
        def factory():
            return MLP(8, 16, out_features=1, num_layers=2, rng=np.random.default_rng(42))

        models = replicate_model(factory, 4)
        return models, CompressedSynchronizer(models, ratio)

    def test_replicas_stay_identical(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 8)).astype(np.float32)
        Y = (rng.random(16) > 0.5).astype(np.float32)
        models, sync = self._setup(0.2)
        opts = [SGD(m.parameters(), lr=0.05) for m in models]
        loss_fn = BCEWithLogitsLoss()
        shards = np.array_split(np.arange(16), 4)
        for _ in range(4):
            for m, sh in zip(models, shards):
                m.zero_grad()
                loss_fn(m(Tensor(X[sh])).reshape(-1), Y[sh]).backward()
            sync.synchronize_gradients()
            for opt in opts:
                opt.step()
        ref = models[0].state_dict()
        for m in models[1:]:
            for name, arr in m.state_dict().items():
                assert np.array_equal(arr, ref[name]), name

    def test_training_still_converges(self):
        """Error feedback keeps compressed SGD convergent."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(32, 8)).astype(np.float32)
        Y = (rng.random(32) > 0.5).astype(np.float32)
        def train(sync_obj, models):
            opts = [SGD(m.parameters(), lr=0.1) for m in models]
            loss_fn = BCEWithLogitsLoss()
            shards = np.array_split(np.arange(32), 4)
            losses = []
            for _ in range(60):
                step_losses = []
                for m, sh in zip(models, shards):
                    m.zero_grad()
                    loss = loss_fn(m(Tensor(X[sh])).reshape(-1), Y[sh])
                    loss.backward()
                    step_losses.append(loss.item())
                losses.append(np.mean(step_losses))
                sync_obj.synchronize_gradients()
                for opt in opts:
                    opt.step()
            return losses

        from repro.distributed import DistributedDataParallel, SimCommunicator

        models_c, sync_c = self._setup(0.25)
        losses_c = train(sync_c, models_c)

        def factory():
            return MLP(8, 16, out_features=1, num_layers=2, rng=np.random.default_rng(42))

        models_d = replicate_model(factory, 4)
        sync_d = DistributedDataParallel(models_d, SimCommunicator(4), "coalesced")
        losses_d = train(sync_d, models_d)

        # top-k SGD converges more slowly than dense (only k coordinates
        # move per step) but error feedback keeps it descending and within
        # striking distance of the dense run
        assert losses_c[-1] < losses_c[0]
        assert losses_c[-1] < 1.6 * losses_d[-1]

    def test_bytes_accounting(self):
        models, sync = self._setup(0.1)
        n = sum(p.size for p in models[0].parameters())
        for m in models:
            m.zero_grad()
        # populate zero grads so flatten works
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 8)).astype(np.float32)
        Y = np.zeros(8, dtype=np.float32)
        loss_fn = BCEWithLogitsLoss()
        for m in models:
            loss_fn(m(Tensor(X)).reshape(-1), Y).backward()
        sync.synchronize_gradients()
        expected = 4 * compressed_bytes(n, 0.1)  # 4 ranks
        assert sync.bytes_exchanged == expected
        assert sync.bytes_exchanged < 4 * n * 4  # far below dense


class TestCostModel:
    def test_compressed_bytes(self):
        assert compressed_bytes(1000, 0.1) == 100 * 8
        assert compressed_bytes(10, 0.001) == 8  # at least one entry

    def test_speedup_grows_as_ratio_shrinks(self):
        n = 10**6
        s_small = compression_speedup(n, 0.01, 4, NVLINK_A100)
        s_big = compression_speedup(n, 0.5, 4, NVLINK_A100)
        assert s_small > s_big > 0.4

    def test_bandwidth_bound_link_gains_more(self):
        """At the paper's gradient size (hidden 64, 8 layers, P=4) a 1 %
        keep ratio buys more on 25 GbE than on NVLink, and over 3x there."""
        paper = IGNNConfig(6, 2, hidden=64, num_layers=8, mlp_layers=2)
        n = InteractionGNN(paper).num_parameters()
        ethernet = CommCostModel(alpha=30e-6, beta=1.0 / 3.1e9)
        on_ethernet = compression_speedup(n, 0.01, 4, ethernet)
        assert on_ethernet > compression_speedup(n, 0.01, 4, NVLINK_A100)
        assert on_ethernet > 3.0
