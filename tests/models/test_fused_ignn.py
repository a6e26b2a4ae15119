"""Fused vs unfused IGNN message path: forward/grad/training parity."""

import gc

import numpy as np
import pytest

from repro.graph import random_graph
from repro.memory import default_arena
from repro.models import (
    GRUInteractionGNN,
    IGNNConfig,
    InteractionGNN,
    RecurrentInteractionGNN,
)
from repro.nn import Adam, BCEWithLogitsLoss
from repro.tensor import Tensor, kernels


def make_pair(fused_cfg=True, **kw):
    base = dict(node_features=6, edge_features=2, hidden=8,
                num_layers=3, mlp_layers=2, seed=0)
    base.update(kw)
    fused = InteractionGNN(IGNNConfig(**base, fused=True))
    plain = InteractionGNN(IGNNConfig(**base, fused=False))
    plain.load_state_dict(fused.state_dict())
    return fused, plain


@pytest.fixture
def graph():
    return random_graph(40, 160, rng=np.random.default_rng(1), true_fraction=0.4)


class TestForwardParity:
    def test_logits_agree(self, graph):
        fused, plain = make_pair()
        lf = fused(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        lp = plain(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        np.testing.assert_allclose(lf.data, lp.data, rtol=2e-4, atol=2e-5)

    def test_predict_proba_agree(self, graph):
        fused, plain = make_pair()
        np.testing.assert_allclose(
            fused.predict_proba(graph), plain.predict_proba(graph),
            rtol=2e-4, atol=2e-5,
        )

    def test_gru_variant_agrees(self, graph):
        base = dict(node_features=6, edge_features=2, hidden=8,
                    num_layers=3, mlp_layers=2, seed=0)
        fused = GRUInteractionGNN(IGNNConfig(**base, fused=True))
        plain = GRUInteractionGNN(IGNNConfig(**base, fused=False))
        plain.load_state_dict(fused.state_dict())
        lf = fused(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        lp = plain(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        np.testing.assert_allclose(lf.data, lp.data, rtol=2e-4, atol=2e-5)

    def test_recurrent_variant_agrees(self, graph):
        base = dict(node_features=6, edge_features=2, hidden=8,
                    num_layers=3, mlp_layers=2, seed=0)
        fused = RecurrentInteractionGNN(IGNNConfig(**base, fused=True))
        plain = RecurrentInteractionGNN(IGNNConfig(**base, fused=False))
        plain.load_state_dict(fused.state_dict())
        assert fused.shared_layer.fused and not plain.shared_layer.fused
        lf = fused(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        lp = plain(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        np.testing.assert_allclose(lf.data, lp.data, rtol=2e-4, atol=2e-5)


class TestTapeSize:
    def test_ex3_shaped_step_is_about_300_nodes(self, graph, tape_ops):
        """8 blocks x 2-layer MLPs: one node per MLP layer (the graph ops
        carry their layer's LayerNorm → ReLU), two concats per block, and
        no vertex update in the last block."""
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=8, mlp_layers=2,
        ))
        labels = graph.edge_labels.astype(np.float32)
        logits = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        loss = BCEWithLogitsLoss()(logits, labels)
        ops_seen, tensors = tape_ops(loss)
        assert "layer_norm" not in ops_seen and "relu" not in ops_seen
        assert ops_seen.count("gather_concat_matmul") == 8
        assert ops_seen.count("scatter_mlp_input") == 7
        assert len(ops_seen) <= 60  # 124 with three nodes per MLP layer
        assert tensors <= 320  # every tensor reachable, parameters included
        loss.backward()
        dead = [n for n, p in model.named_parameters() if p.grad is None]
        assert dead and all(n.startswith("layer7.node_mlp.") for n in dead)


class TestTrainingParity:
    def test_short_training_converges_together(self, graph):
        """Convergence-parity gate: a handful of fused Adam steps lands
        within float tolerance of the unfused reference trajectory."""
        fused, plain = make_pair()
        labels = graph.edge_labels.astype(np.float32)
        losses = {}
        for name, model in (("fused", fused), ("plain", plain)):
            loss_fn = BCEWithLogitsLoss(pos_weight=2.0)
            opt = Adam(model.parameters(), lr=1e-3)
            hist = []
            for _ in range(5):
                loss = loss_fn(
                    model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols),
                    labels,
                )
                opt.zero_grad()
                loss.backward()
                opt.step()
                hist.append(loss.item())
            losses[name] = hist
        np.testing.assert_allclose(losses["fused"], losses["plain"], rtol=1e-3)
        assert losses["fused"][-1] < losses["fused"][0]


class TestPrecisionCast:
    def test_astype_roundtrip(self, graph):
        fused, _ = make_pair()
        fused.astype(np.float64)
        assert all(p.data.dtype == np.float64 for p in fused.parameters())
        # predict_proba casts inputs to the parameter dtype
        probs64 = fused.predict_proba(graph)
        fused.astype(np.float32)
        assert all(p.data.dtype == np.float32 for p in fused.parameters())
        probs32 = fused.predict_proba(graph)
        np.testing.assert_allclose(probs64, probs32, rtol=1e-3, atol=1e-4)


class TestNoPerShapeState:
    def test_memory_does_not_grow_with_the_shapes_seen(self):
        """ShaDow batches have a new (m, n) every step: nothing under the
        kernels may keep a buffer set or a plan per subgraph shape."""
        kernels.clear_plan_cache()
        default_arena().clear()
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=2, mlp_layers=2, seed=0,
        ))
        loss_fn = BCEWithLogitsLoss()
        graphs = [
            random_graph(20 + k, 60 + 3 * k, rng=np.random.default_rng(k), true_fraction=0.4)
            for k in range(40)
        ]
        assert len({(g.num_edges, g.num_nodes) for g in graphs}) == 40
        for g in graphs:
            logits = model(Tensor(g.x), Tensor(g.y), g.rows, g.cols)
            loss_fn(logits, g.edge_labels.astype(np.float32)).backward()
        assert len(kernels._PLAN_CACHE) > 0  # the last tape still holds its ids
        del graphs, g, logits
        gc.collect()
        assert default_arena().pooled_bytes == 0
        assert len(kernels._PLAN_CACHE) == 0
