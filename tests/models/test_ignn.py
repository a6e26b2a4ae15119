"""Interaction GNN (Algorithm 1): shapes, invariances, trainability."""

import numpy as np
import pytest

from repro.graph import random_graph
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.tensor import Tensor, gradcheck, no_grad, ops


@pytest.fixture
def graph():
    return random_graph(40, 160, rng=np.random.default_rng(0), true_fraction=0.4)


def small_config(**kw):
    defaults = dict(node_features=6, edge_features=2, hidden=8, num_layers=2, mlp_layers=2, seed=0)
    defaults.update(kw)
    return IGNNConfig(**defaults)


class TestShapes:
    def test_one_logit_per_edge(self, graph):
        model = InteractionGNN(small_config())
        out = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        assert out.shape == (graph.num_edges,)

    def test_distinct_mlps_per_layer(self):
        """The paper: 'each MLP is distinct' — every layer adds the same
        positive number of parameters."""
        p2, p3, p4 = (
            InteractionGNN(small_config(num_layers=l)).num_parameters() for l in (2, 3, 4)
        )
        assert p4 - p3 == p3 - p2 > 0

    def test_mismatched_edges_rejected(self, graph):
        model = InteractionGNN(small_config())
        with pytest.raises(ValueError):
            model(Tensor(graph.x), Tensor(graph.y), graph.rows[:-1], graph.cols)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IGNNConfig(node_features=0, edge_features=2)
        with pytest.raises(ValueError):
            IGNNConfig(node_features=6, edge_features=2, num_layers=0)

    def test_paper_default_hyperparams(self):
        """Section IV-A: hidden 64, 8 layers."""
        cfg = IGNNConfig(node_features=6, edge_features=2)
        assert cfg.hidden == 64
        assert cfg.num_layers == 8


class TestInvariances:
    def test_vertex_relabelling_equivariance(self, graph):
        """Permuting vertex ids (and remapping the adjacency) must permute
        nothing in the edge logits (edges keep their order)."""
        model = InteractionGNN(small_config())
        perm = np.random.default_rng(1).permutation(graph.num_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        with no_grad():
            base = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols).numpy()
            permuted = model(
                Tensor(graph.x[perm]),
                Tensor(graph.y),
                inv[graph.rows],
                inv[graph.cols],
            ).numpy()
        assert np.allclose(base, permuted, atol=1e-4)

    def test_edge_order_equivariance(self, graph):
        """Permuting the edge list permutes logits identically."""
        model = InteractionGNN(small_config())
        perm = np.random.default_rng(2).permutation(graph.num_edges)
        with no_grad():
            base = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols).numpy()
            permuted = model(
                Tensor(graph.x), Tensor(graph.y[perm]), graph.rows[perm], graph.cols[perm]
            ).numpy()
        assert np.allclose(base[perm], permuted, atol=1e-4)

    def test_deterministic_given_seed(self, graph):
        m1 = InteractionGNN(small_config(seed=3))
        m2 = InteractionGNN(small_config(seed=3))
        with no_grad():
            o1 = m1(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols).numpy()
            o2 = m2(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols).numpy()
        assert np.array_equal(o1, o2)


class TestTraining:
    def test_loss_decreases(self, graph):
        model = InteractionGNN(small_config(hidden=16))
        opt = Adam(model.parameters(), lr=3e-3)
        loss_fn = BCEWithLogitsLoss()
        labels = graph.edge_labels.astype(np.float32)
        losses = []
        for _ in range(30):
            opt.zero_grad()
            logits = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
            loss = loss_fn(logits, labels)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.7 * losses[0]

    def test_all_live_parameters_receive_gradients(self, graph):
        """Every parameter gets a gradient except the final layer's node
        MLP: Algorithm 1 returns φ(Y^L), so the last vertex update X^L is
        computed (and stored — the memory model counts it) but never read
        by the loss."""
        cfg = small_config(num_layers=2)
        model = InteractionGNN(cfg)
        loss_fn = BCEWithLogitsLoss()
        logits = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        loss_fn(logits, graph.edge_labels.astype(np.float32)).backward()
        missing = {n for n, p in model.named_parameters() if p.grad is None}
        last = f"layer{cfg.num_layers - 1}.node_mlp"
        assert missing == {n for n in missing if n.startswith(last)}
        assert all(n.startswith(last) for n in missing)
        assert missing  # the dead update exists, as in Algorithm 1

    def test_full_layer_gradcheck(self):
        """End-to-end gradient check of a tiny IGNN in float64."""
        cfg = small_config(hidden=4, num_layers=1, layer_norm=False)
        model = InteractionGNN(cfg)
        # promote parameters to float64 for finite differences
        for _, p in model.named_parameters():
            p.data = p.data.astype(np.float64)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 6)))
        y = Tensor(rng.normal(size=(7, 2)))
        rows = np.array([0, 1, 2, 3, 4, 0, 2])
        cols = np.array([1, 2, 3, 4, 0, 3, 0])
        params = [p for _, p in model.named_parameters()][:4]  # check a subset

        def f(*ps):
            logits = model(x, y, rows, cols)
            return ops.mean(ops.mul(logits, logits))

        gradcheck(f, params, atol=1e-5)

    def test_predict_proba_keeps_eval_mode(self, graph):
        model = InteractionGNN(small_config()).eval()
        model.predict_proba(graph)
        assert not model.training
        model.train()
        model.predict_proba(graph)
        assert model.training

    def test_predict_proba_in_unit_interval(self, graph):
        model = InteractionGNN(small_config())
        proba = model.predict_proba(graph)
        assert proba.shape == (graph.num_edges,)
        assert np.all((proba >= 0) & (proba <= 1))
