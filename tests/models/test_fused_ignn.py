"""Fused vs unfused IGNN message path: forward/grad/training parity."""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest

from repro.graph import random_graph
from repro.memory import default_arena
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.models.interaction_gnn import _IGNNLayer
from repro.tensor import Tensor, ops


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


def _concat_residual_forward(self, x, y, x0, y0, rows, cols, update=True):
    """The fused block as spelled before it read ``(Xˡ, X⁰)`` in place."""
    x_res = ops.concat([x, x0], axis=1)
    y_next = self.edge_mlp.forward_tail(
        ops.gather_concat_matmul((y, y0), x_res, rows, cols, *self.edge_mlp.first_layer)
    )
    if not update:
        return y_next
    return self.update(x, x_res, y_next, rows, cols), y_next


class TestTapeSize:
    def test_ex3_shaped_step_is_about_300_nodes(self, graph, tape_ops):
        """8 blocks x 2-layer MLPs: one node per MLP layer (the graph ops
        carry their layer's LayerNorm → ReLU), two no-copy fan-in nodes
        per block (the vertex-side ``(Xˡ, X⁰)``, read in place like the
        edge side's pair), no concat, and no vertex update in the last
        block."""
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=8, mlp_layers=2,
        ))
        labels = graph.edge_labels.astype(np.float32)
        logits = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        loss = BCEWithLogitsLoss()(logits, labels)
        ops_seen, tensors, _ = tape_ops(loss)
        assert "layer_norm" not in ops_seen and "relu" not in ops_seen
        assert ops_seen.count("gather_concat_matmul") == 8
        assert ops_seen.count("scatter_mlp_input") == 7
        assert ops_seen.count("fan_in") == 16 and "concat" not in ops_seen
        assert len(ops_seen) <= 54  # 124 with three nodes per MLP layer
        assert tensors <= 328  # every tensor reachable, parameters included
        loss.backward()
        dead = [n for n, p in model.named_parameters() if p.grad is None]
        assert dead and all(n.startswith("layer7.node_mlp.") for n in dead)

    def test_the_vertex_residual_costs_the_tape_nothing(self, tape_ops):
        """On an Ex3-shaped batch (n = 1 363, m ≈ 4 500, hidden 64 × 8
        layers) the fused tape is exactly ``L · n · 2h · itemsize`` bytes
        smaller than the same network with each block's ``[Xˡ X⁰]``
        concatenated, the spelling the fused path had before it read the
        pair in place."""
        n, m, hidden, layers = 1363, 4510, 64, 8
        g = random_graph(n, m, rng=np.random.default_rng(3), true_fraction=0.3)
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=hidden, num_layers=layers,
            mlp_layers=2,
        ))

        def tape():
            logits = model(Tensor(g.x), Tensor(g.y), g.rows, g.cols)
            return tape_ops(BCEWithLogitsLoss()(logits, g.edge_labels.astype(np.float32)))

        pair_ops, _, pair_bytes = tape()
        with mock.patch.object(_IGNNLayer, "forward", _concat_residual_forward):
            cat_ops, _, cat_bytes = tape()
        assert g.num_nodes == n and g.num_edges > 3 * n
        assert cat_ops.count("concat") == layers and "concat" not in pair_ops
        assert cat_bytes - pair_bytes == layers * n * 2 * hidden * 4

    @staticmethod
    def reachable_shapes(root):
        """Shapes of every array the tape keeps alive from ``root``: each
        tensor's data and every array a backward closure captures (through
        nested closures, tuples and lists)."""
        seen, shapes, stack = set(), set(), [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                shapes.add(obj.shape)
            elif isinstance(obj, Tensor):
                stack.append(obj.data)
                stack.extend(obj._parents)
                stack.append(obj._backward)
            elif isinstance(obj, (tuple, list)):
                stack.extend(obj)
            elif callable(obj):
                for cell in getattr(obj, "__closure__", None) or ():
                    try:
                        stack.append(cell.cell_contents)
                    except ValueError:  # a name bound later, or never
                        pass
        return shapes

    @pytest.mark.parametrize("fused", [True, False])
    def test_no_edge_residual_copy_on_the_fused_path(self, graph, fused):
        """The fused tape holds no ``(m, 2h)`` and no ``(n, 2h)`` array:
        ``[Yˡ Y⁰]`` and ``[Xˡ X⁰]`` are read in place.  The unfused
        reference still builds both (the walk finds them)."""
        hidden = 64
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=hidden, num_layers=8,
            mlp_layers=2, fused=fused,
        ))
        logits = model(Tensor(graph.x), Tensor(graph.y), graph.rows, graph.cols)
        loss = BCEWithLogitsLoss()(logits, graph.edge_labels.astype(np.float32))
        shapes = self.reachable_shapes(loss)
        assert graph.num_edges != graph.num_nodes
        assert ((graph.num_nodes, 2 * hidden) in shapes) == (not fused)
        assert ((graph.num_edges, 2 * hidden) in shapes) == (not fused)


class TestFloat64Parity:
    def test_eight_layer_network_fused_vs_unfused(self, graph):
        """The kernel gate: in float64 the fused network is the unfused
        reference to 1e-11, logits and every parameter gradient."""
        fused, plain = make_pair(num_layers=8, hidden=16)
        labels = graph.edge_labels.astype(np.float64)
        results = []
        for model in (fused, plain):
            model.astype(np.float64)
            logits = model(
                Tensor(graph.x.astype(np.float64)), Tensor(graph.y.astype(np.float64)),
                graph.rows, graph.cols,
            )
            BCEWithLogitsLoss(pos_weight=2.0)(logits, labels).backward()
            grads = {n: p.grad for n, p in model.named_parameters()}
            results.append((logits.data, grads))
        (lf, gf), (lp, gp) = results
        np.testing.assert_allclose(lf, lp, rtol=1e-11, atol=1e-11)
        assert gf.keys() == gp.keys()
        for name in gf:
            if gf[name] is None:
                assert gp[name] is None and name.startswith("layer7.node_mlp."), name
                continue
            np.testing.assert_allclose(gf[name], gp[name], rtol=1e-11, atol=1e-11,
                                       err_msg=name)


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
        kernels may keep a buffer set or a plan per subgraph shape — a
        step's plans are its graph's, and die with it."""
        default_arena().clear()
        model = InteractionGNN(IGNNConfig(
            node_features=6, edge_features=2, hidden=8, num_layers=2, mlp_layers=2, seed=0,
        ))
        loss_fn = BCEWithLogitsLoss()
        shapes = set()
        for k in range(40):
            g = random_graph(20 + k, 60 + 3 * k, rng=np.random.default_rng(k), true_fraction=0.4)
            shapes.add((g.num_edges, g.num_nodes))
            logits = model.logits(g)
            loss = loss_fn(logits, g.edge_labels.astype(np.float32))
            loss.backward()
            refs = [weakref.ref(plan) for plan in g.plans]
            del g, logits, loss
            assert all(ref() is None for ref in refs)
        assert len(shapes) == 40
        gc.collect()
        assert default_arena().pooled_bytes == 0
