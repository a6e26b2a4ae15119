"""GRU-update Interaction GNN variant."""

import numpy as np
import pytest

from repro.graph import random_graph
from repro.models import GRUInteractionGNN, IGNNConfig, InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.tensor import Tensor, no_grad


@pytest.fixture
def graph():
    return random_graph(50, 200, rng=np.random.default_rng(0), true_fraction=0.4)


def cfg(**kw):
    base = dict(node_features=6, edge_features=2, hidden=8, num_layers=3, mlp_layers=2, seed=0)
    base.update(kw)
    return IGNNConfig(**base)


class TestGRUIGNN:
    def test_logits_per_edge(self, graph):
        model = GRUInteractionGNN(cfg())
        out = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        assert out.shape == (graph.num_edges,)

    def test_weight_shared_across_iterations(self):
        assert (
            GRUInteractionGNN(cfg(num_layers=2)).num_parameters()
            == GRUInteractionGNN(cfg(num_layers=8)).num_parameters()
        )

    def test_fewer_parameters_than_distinct_mlp_stack(self):
        assert (
            GRUInteractionGNN(cfg(num_layers=4)).num_parameters()
            < InteractionGNN(cfg(num_layers=4)).num_parameters()
        )

    def test_trains(self, graph):
        model = GRUInteractionGNN(cfg(hidden=16))
        opt = Adam(model.parameters(), lr=3e-3)
        loss_fn = BCEWithLogitsLoss()
        labels = graph.edge_labels.astype(np.float32)
        first = last = None
        for i in range(25):
            opt.zero_grad()
            loss = loss_fn(
                model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols), labels
            )
            loss.backward()
            opt.step()
            first = loss.item() if i == 0 else first
            last = loss.item()
        assert last < 0.85 * first

    def test_deep_stack_stays_finite(self, graph):
        """The gating must keep a deep (8-iteration) stack numerically
        stable at init."""
        model = GRUInteractionGNN(cfg(num_layers=8))
        with no_grad():
            out = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        assert np.all(np.isfinite(out.numpy()))

    def test_predict_proba(self, graph):
        model = GRUInteractionGNN(cfg())
        p = model.predict_proba(graph)
        assert np.all((p >= 0) & (p <= 1))

    def test_predict_proba_keeps_eval_mode(self, graph):
        """Used to end in a forced ``.train()``."""
        model = GRUInteractionGNN(cfg()).eval()
        model.predict_proba(graph)
        assert not model.training
        model.train()
        model.predict_proba(graph)
        assert model.training

    def test_predict_proba_casts_to_the_parameter_dtype(self, graph):
        model = GRUInteractionGNN(cfg())
        p32 = model.predict_proba(graph)
        model.astype(np.float64)
        p64 = model.predict_proba(graph)  # float32 graph features
        assert p64.dtype == np.float64
        np.testing.assert_allclose(p64, p32, rtol=1e-3, atol=1e-4)

    def test_is_the_shared_traversal_over_a_gru_block(self):
        model = GRUInteractionGNN(cfg(num_layers=4))
        assert type(model).forward is InteractionGNN.forward
        assert len(model.blocks) == 4
        assert all(b is model.shared_layer for b in model.blocks)
        names = {n for n, _ in model.named_parameters()}
        assert "shared_layer.node_gru.w_ir" in names
        assert not any(".node_mlp." in n for n in names)

    def test_recompute_matches_plain_backprop(self, graph):
        grads = {}
        for recompute in (False, True):
            model = GRUInteractionGNN(cfg())
            logits = model(
                Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols, recompute=recompute
            )
            BCEWithLogitsLoss()(logits, graph.edge_labels.astype(np.float32)).backward()
            grads[recompute] = {n: p.grad for n, p in model.named_parameters()}
        for name, plain in grads[False].items():
            np.testing.assert_allclose(grads[True][name], plain, rtol=1e-4, atol=1e-6)
