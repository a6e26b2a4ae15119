"""Linear / LayerNorm / Dropout / MLP layer behaviour."""

import numpy as np
import pytest

from repro.nn import MLP, Dropout, LayerNorm, Linear
from repro.tensor import Tensor


class TestLinear:
    def test_output_shape(self):
        l = Linear(5, 3, rng=np.random.default_rng(0))
        out = l(Tensor(np.ones((7, 5), dtype=np.float32)))
        assert out.shape == (7, 3)

    def test_matches_manual_affine(self):
        rng = np.random.default_rng(0)
        l = Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        expected = x @ l.weight.data + l.bias.data
        assert np.allclose(l(Tensor(x)).numpy(), expected, atol=1e-6)

    def test_no_bias(self):
        l = Linear(4, 2, bias=False, rng=np.random.default_rng(0))
        assert l.bias is None
        assert len(list(l.parameters())) == 1

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_init_within_kaiming_bound(self):
        l = Linear(100, 50, rng=np.random.default_rng(0))
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 100)
        assert np.abs(l.weight.data).max() <= bound + 1e-6

    def test_seeded_init_reproducible(self):
        l1 = Linear(8, 8, rng=np.random.default_rng(9))
        l2 = Linear(8, 8, rng=np.random.default_rng(9))
        assert np.array_equal(l1.weight.data, l2.weight.data)


class TestLayerNorm:
    def test_learnable_params(self):
        ln = LayerNorm(6)
        assert len(list(ln.parameters())) == 2

    def test_identity_scale_shift(self):
        rng = np.random.default_rng(0)
        ln = LayerNorm(8)
        x = rng.normal(5.0, 2.0, size=(4, 8)).astype(np.float32)
        out = ln(Tensor(x)).numpy()
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)


class TestDropout:
    def test_training_mode_drops(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        out = d(Tensor(np.ones(1000, dtype=np.float32))).numpy()
        assert np.any(out == 0)

    def test_eval_mode_keeps_all(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        d.eval()
        out = d(Tensor(np.ones(1000, dtype=np.float32))).numpy()
        assert np.all(out == 1.0)


class TestMLP:
    def test_default_output_width_is_hidden(self):
        m = MLP(4, 16, rng=np.random.default_rng(0))
        out = m(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.shape == (2, 16)

    def test_explicit_output_width(self):
        m = MLP(4, 16, out_features=1, num_layers=3, rng=np.random.default_rng(0))
        assert m(Tensor(np.ones((2, 4), dtype=np.float32))).shape == (2, 1)

    def test_num_layers_controls_linear_count(self):
        for n in (1, 2, 4):
            m = MLP(4, 8, num_layers=n, layer_norm=False, rng=np.random.default_rng(0))
            linears = [p for name, p in m.named_parameters() if name.endswith("weight")]
            assert len(linears) == n

    def test_table1_depths(self):
        """Table I: CTD uses 3-layer MLPs, Ex3 uses 2-layer."""
        for depth in (2, 3):
            m = MLP(6, 64, num_layers=depth, rng=np.random.default_rng(0))
            weights = [n for n, _ in m.named_parameters() if "weight" in n and "net" in n]
            # LayerNorm also has 'weight'; count Linear weights by 2-D shape
            linear_weights = [
                p for n, p in m.named_parameters() if p.data.ndim == 2
            ]
            assert len(linear_weights) == depth

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            MLP(4, 8, num_layers=0)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            MLP(4, 8, activation="swish")

    def test_output_activation_bounds_relu(self):
        m = MLP(4, 8, num_layers=2, output_activation=True, rng=np.random.default_rng(0))
        out = m(Tensor(np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)))
        assert np.all(out.numpy() >= 0.0)  # ends in ReLU

    def test_no_output_activation_signed(self):
        m = MLP(4, 8, num_layers=2, output_activation=False, rng=np.random.default_rng(0))
        out = m(Tensor(np.random.default_rng(1).normal(size=(50, 4)).astype(np.float32)))
        assert np.any(out.numpy() < 0.0)


class TestOneLayerOneNode:
    """``Linear → LayerNorm → ReLU`` runs as one ``linear`` tape node; any
    other stack is the plain module chain."""

    X = np.random.default_rng(2).normal(size=(9, 4)).astype(np.float32)

    def test_relu_layernorm_mlp_is_linear_nodes_only(self, tape_ops):
        m = MLP(4, 8, num_layers=3, output_activation=True, rng=np.random.default_rng(0))
        assert tape_ops(m(Tensor(self.X)))[0] == ["linear"] * 3
        head = MLP(4, 8, out_features=1, num_layers=2, rng=np.random.default_rng(0))
        assert tape_ops(head(Tensor(self.X)))[0] == ["linear"] * 2

    @pytest.mark.parametrize(
        "kwargs, ops_per_layer",
        [
            (dict(activation="tanh"), ["layer_norm", "linear", "tanh"]),
            (dict(layer_norm=False), ["linear", "relu"]),
            (dict(activation="none"), ["layer_norm", "linear"]),
        ],
        ids=["tanh", "no-layernorm", "no-activation"],
    )
    def test_other_stacks_take_the_unfused_modules(self, tape_ops, kwargs, ops_per_layer):
        m = MLP(4, 8, num_layers=2, output_activation=True,
                rng=np.random.default_rng(0), **kwargs)
        assert tape_ops(m(Tensor(self.X)))[0] == sorted(2 * ops_per_layer)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_stack_equals_the_module_chain(self, tape_ops, dtype):
        m = MLP(4, 8, num_layers=2, output_activation=True,
                rng=np.random.default_rng(0)).astype(dtype)
        x = Tensor(self.X.astype(dtype), requires_grad=True)
        m(x).sum().backward()
        grads = [x.grad.copy()] + [p.grad.copy() for p in m.parameters()]
        x.grad = None
        m.zero_grad()
        out = x
        for layer in m.net._layers:  # module by module: three nodes a layer
            out = layer(out)
        assert tape_ops(out)[0] == sorted(2 * ["layer_norm", "linear", "relu"])
        assert np.array_equal(out.data, m(x).data)
        out.sum().backward()
        for g, p in zip(grads, [x, *m.parameters()]):
            assert np.array_equal(g, p.grad)

    def test_first_layer_and_tail_compose_to_forward(self):
        from repro.tensor import ops

        for kwargs in (dict(), dict(layer_norm=False), dict(activation="tanh")):
            m = MLP(4, 8, num_layers=2, output_activation=True,
                    rng=np.random.default_rng(0), **kwargs)
            weight, bias, norm = m.first_layer
            assert (norm is None) == bool(kwargs)
            split = m.forward_tail(ops.linear(Tensor(self.X), weight, bias, norm))
            assert np.array_equal(split.data, m(Tensor(self.X)).data)
