"""Embedding and filter networks."""

import numpy as np
import pytest

from repro.graph import disjoint_chains
from repro.models import (
    EmbeddingConfig,
    EmbeddingNet,
    FilterConfig,
    FilterNet,
    sample_training_pairs,
)
from repro.nn import Adam, BCEWithLogitsLoss, HingeEmbeddingLoss
from repro.tensor import Tensor, ops


class TestEmbeddingNet:
    def test_output_on_unit_sphere(self):
        net = EmbeddingNet(EmbeddingConfig(node_features=6, embedding_dim=4))
        rng = np.random.default_rng(0)
        z = net.embed(rng.normal(size=(20, 6)).astype(np.float32))
        assert z.shape == (20, 4)
        assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-5)

    def test_metric_learning_separates_chains(self):
        """Train on idealised tracks: same-chain pairs should end closer
        than cross-chain pairs."""
        g = disjoint_chains(6, 6, num_node_features=6, rng=np.random.default_rng(0))
        # give each chain a distinctive feature signature + noise
        rng = np.random.default_rng(1)
        base = rng.normal(size=(6, 6)).astype(np.float32)
        x = base[(g.particle_ids - 1)] + 0.1 * rng.normal(size=g.x.shape).astype(np.float32)

        net = EmbeddingNet(EmbeddingConfig(node_features=6, embedding_dim=4, seed=0))
        opt = Adam(net.parameters(), lr=1e-2)
        loss_fn = HingeEmbeddingLoss(margin=1.0)
        pos = g.edge_index  # chain edges = positive pairs
        for _ in range(60):
            src, dst, labels = sample_training_pairs(pos, g.num_nodes, 3, rng)
            opt.zero_grad()
            z = net(Tensor(x))
            d2 = ops.squared_distance(ops.gather_rows(z, src), ops.gather_rows(z, dst))
            loss_fn(d2, labels).backward()
            opt.step()

        z = net.embed(x)
        same = np.linalg.norm(z[pos[0]] - z[pos[1]], axis=1).mean()
        cross_src = rng.integers(0, g.num_nodes, 200)
        cross_dst = rng.integers(0, g.num_nodes, 200)
        diff_mask = g.particle_ids[cross_src] != g.particle_ids[cross_dst]
        cross = np.linalg.norm(z[cross_src[diff_mask]] - z[cross_dst[diff_mask]], axis=1).mean()
        assert same < 0.5 * cross


class TestSampleTrainingPairs:
    def test_positive_pairs_first_and_labelled(self):
        segments = np.array([[0, 1], [1, 2]])
        src, dst, labels = sample_training_pairs(segments, 10, 2, np.random.default_rng(0))
        assert np.array_equal(src[:2], [0, 1])
        assert np.array_equal(dst[:2], [1, 2])
        assert np.all(labels[:2] == 1)
        assert np.all(labels[2:] == 0)

    def test_negative_rate(self):
        segments = np.stack([np.arange(50), np.arange(1, 51)])
        src, dst, labels = sample_training_pairs(segments, 1000, 4, np.random.default_rng(0))
        n_neg = int((labels == 0).sum())
        assert 0.9 * 200 <= n_neg <= 200

    def test_no_self_pairs(self):
        segments = np.array([[0], [1]])
        src, dst, _ = sample_training_pairs(segments, 5, 50, np.random.default_rng(0))
        assert np.all(src != dst)


class TestFilterNet:
    def test_logits_shape(self):
        g = disjoint_chains(4, 5, rng=np.random.default_rng(0))
        net = FilterNet(FilterConfig(node_features=6, edge_features=2))
        out = net(Tensor(g.x), Tensor(g.y), g.rows, g.cols)
        assert out.shape == (g.num_edges,)

    def test_learns_separable_labels(self):
        """Edges whose feature sign encodes the label should be learned."""
        rng = np.random.default_rng(0)
        n, m = 50, 300
        x = rng.normal(size=(n, 4)).astype(np.float32)
        rows = rng.integers(0, n, m)
        cols = rng.integers(0, n, m)
        labels = (rng.random(m) > 0.5).astype(np.float32)
        y = np.where(labels[:, None] > 0, 1.0, -1.0).astype(np.float32) + 0.1 * rng.normal(
            size=(m, 1)
        ).astype(np.float32)
        net = FilterNet(FilterConfig(node_features=4, edge_features=1, hidden=16))
        opt = Adam(net.parameters(), lr=1e-2)
        loss_fn = BCEWithLogitsLoss()
        for _ in range(60):
            opt.zero_grad()
            logits = net(Tensor(x), Tensor(y), rows, cols)
            loss_fn(logits, labels).backward()
            opt.step()
        scores = 1 / (1 + np.exp(-net(Tensor(x), Tensor(y), rows, cols).numpy()))
        acc = np.mean((scores > 0.5) == (labels > 0.5))
        assert acc > 0.95

    def test_predict_proba_range(self):
        g = disjoint_chains(4, 5, rng=np.random.default_rng(0))
        net = FilterNet(FilterConfig(node_features=6, edge_features=2))
        p = net.predict_proba(g)
        assert np.all((p >= 0) & (p <= 1))
        assert net.training  # a training-mode net stays in training mode

    def test_inference_paths_keep_eval_mode(self):
        """Inference restores the mode it found, not training mode."""
        g = disjoint_chains(4, 5, rng=np.random.default_rng(0))
        net = FilterNet(FilterConfig(node_features=6, edge_features=2)).eval()
        net.predict_proba(g)
        assert not net.training
        emb = EmbeddingNet(EmbeddingConfig(node_features=6, embedding_dim=4)).eval()
        emb.embed(g.x)
        assert not emb.training

    def test_predict_proba_failure_leaves_mode_unchanged(self):
        g = disjoint_chains(4, 5, rng=np.random.default_rng(0))
        net = FilterNet(FilterConfig(node_features=6 + 1, edge_features=2))
        with pytest.raises(ValueError):
            net.predict_proba(g)  # feature width mismatch inside forward
        assert net.training
