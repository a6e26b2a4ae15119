"""Gradient checkpointing: exactness vs ordinary backprop, memory model."""

import weakref

import numpy as np
import pytest

from repro.graph import random_graph
from repro.memory import ActivationMemoryModel
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.tensor import Tensor


def make_pair(num_layers=3, hidden=8, seed=0):
    cfg = IGNNConfig(
        node_features=6, edge_features=2, hidden=hidden,
        num_layers=num_layers, mlp_layers=2, seed=seed,
    )
    m1, m2 = InteractionGNN(cfg), InteractionGNN(cfg)
    m2.load_state_dict(m1.state_dict())
    return m1, m2


@pytest.fixture
def graph():
    return random_graph(50, 200, rng=np.random.default_rng(0), true_fraction=0.4)


class TestExactness:
    """``loss_fn(model(..., recompute=True), labels).backward()`` is the
    whole checkpointed step: no wrapper spells it."""

    @pytest.mark.parametrize("num_layers", [1, 2, 4])
    def test_loss_matches_plain_forward(self, graph, num_layers):
        m1, m2 = make_pair(num_layers=num_layers)
        loss_fn = BCEWithLogitsLoss(pos_weight=2.0)
        labels = graph.edge_labels.astype(np.float32)
        plain = loss_fn(
            m1(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols), labels
        )
        ck = loss_fn(m2(graph.x, graph.y, graph.rows, graph.cols, recompute=True), labels)
        ck.backward()
        assert ck.item() == pytest.approx(plain.item(), abs=1e-5)

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_gradients_match_plain_backprop(self, graph, num_layers):
        m1, m2 = make_pair(num_layers=num_layers)
        loss_fn = BCEWithLogitsLoss(pos_weight=2.0)
        labels = graph.edge_labels.astype(np.float32)
        loss_fn(
            m1(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols), labels
        ).backward()
        loss_fn(
            m2(graph.x, graph.y, graph.rows, graph.cols, recompute=True), labels
        ).backward()
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            g1 = p1.grad if p1.grad is not None else np.zeros_like(p1.data)
            g2 = p2.grad if p2.grad is not None else np.zeros_like(p2.data)
            assert np.allclose(g1, g2, atol=1e-5), n1

    def test_gradients_bit_identical_to_plain_backprop(self, graph):
        """On the fused path no tensor has more than two gradient
        contributions, so the recomputation adds the same numbers in the
        same order: equal bits, not merely equal to tolerance."""
        self.assert_bit_identical(graph, num_layers=3)

    def test_gradients_bit_identical_to_plain_backprop_at_8_layers(self, graph):
        """The paper's depth: ``Y⁰`` feeds every block's message op."""
        self.assert_bit_identical(graph, num_layers=8)

    def test_recompute_releases_its_inner_graphs(self, graph, monkeypatch):
        """Each block's recomputed graph is walked by a nested backward()
        that consumes it, and the recomputed step still equals the plain
        one bit for bit."""
        inner = []
        backward = Tensor.backward

        def spy(root, grad=None):
            backward(root, grad)
            if grad is not None:  # an ops.checkpoint recomputation
                inner.append((weakref.ref(root.data), root._parents))

        monkeypatch.setattr(Tensor, "backward", spy)
        self.assert_bit_identical(graph, num_layers=3)
        assert len(inner) == 3  # one recomputation per block
        assert all(parents == () and data() is None for data, parents in inner)

    @staticmethod
    def assert_bit_identical(graph, num_layers):
        m1, m2 = make_pair(num_layers=num_layers)
        loss_fn = BCEWithLogitsLoss(pos_weight=2.0)
        labels = graph.edge_labels.astype(np.float32)
        plain = loss_fn(m1(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols), labels)
        plain.backward()
        ck = loss_fn(m2(graph.x, graph.y, graph.rows, graph.cols, recompute=True), labels)
        ck.backward()
        assert ck.item() == plain.item()
        dead = f"layer{num_layers - 1}.node_mlp"  # X^L is never read: neither path runs it
        for (name, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            if name.startswith(dead):
                assert p1.grad is None and p2.grad is None, name
            else:
                assert np.array_equal(p1.grad, p2.grad), name

    def test_float64_network_is_not_downcast(self, graph):
        """The recompute path keeps the network's precision: a float64
        network gets float64 gradients from float64 inputs."""
        _, model = make_pair(num_layers=2)
        model.astype(np.float64)
        logits = model(
            graph.x.astype(np.float64), graph.y.astype(np.float64),
            graph.rows, graph.cols, recompute=True,
        )
        BCEWithLogitsLoss()(logits, graph.edge_labels.astype(np.float32)).backward()
        assert all(
            p.grad.dtype == np.float64 for p in model.parameters() if p.grad is not None
        )

    def test_training_converges(self, graph):
        _, model = make_pair(num_layers=2, hidden=16)
        opt = Adam(model.parameters(), lr=3e-3)
        loss_fn = BCEWithLogitsLoss()
        labels = graph.edge_labels.astype(np.float32)
        losses = []
        for _ in range(20):
            opt.zero_grad()
            loss = loss_fn(
                model(graph.x, graph.y, graph.rows, graph.cols, recompute=True), labels
            )
            loss.backward()
            losses.append(loss.item())
            opt.step()
        assert losses[-1] < 0.8 * losses[0]


class TestMemoryModel:
    def test_checkpointing_cuts_footprint(self):
        cfg = IGNNConfig(6, 2, hidden=64, num_layers=8, mlp_layers=2)
        model = ActivationMemoryModel(cfg)
        n, m = 13_000, 47_800
        assert model.checkpointed_bytes(n, m) < 0.5 * model.total_bytes(n, m)

    def test_saving_grows_with_depth(self):
        """Deeper networks gain more: plain memory is L×working-set,
        checkpointed is L×boundary + one working set."""
        ratios = []
        for L in (2, 8):
            cfg = IGNNConfig(6, 2, hidden=64, num_layers=L, mlp_layers=2)
            model = ActivationMemoryModel(cfg)
            ratios.append(model.checkpointed_bytes(5000, 20_000) / model.total_bytes(5000, 20_000))
        assert ratios[1] < ratios[0]

    def test_skipped_event_fits_when_checkpointed(self):
        """The motivating case: a graph the full regime skips can train
        under checkpointing at the same capacity."""
        cfg = IGNNConfig(14, 8, hidden=64, num_layers=8, mlp_layers=3)
        model = ActivationMemoryModel(cfg)
        n, m = 330_700, 6_900_000  # paper's average CTD event
        capacity = model.checkpointed_bytes(n, m) * 2
        assert not model.fits(n, m, capacity)  # full graph: skipped
        assert model.checkpointed_bytes(n, m) <= capacity  # checkpointed: fits
