"""Module/Parameter system: registration, traversal, serialisation."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, Parameter, Sequential
from repro.tensor import Tensor, ops


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        self.fc1 = Linear(4, 8, rng=rng)
        self.fc2 = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.fc2(ops.relu(self.fc1(x)))


class TestRegistration:
    def test_named_parameters_order_is_deterministic(self):
        m = TwoLayer()
        names = [n for n, _ in m.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_two_instances_agree_on_order(self):
        names1 = [n for n, _ in TwoLayer().named_parameters()]
        names2 = [n for n, _ in TwoLayer().named_parameters()]
        assert names1 == names2

    def test_num_parameters(self):
        m = TwoLayer()
        assert m.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_modules_iterates_tree(self):
        m = TwoLayer()
        kinds = [type(x).__name__ for x in m.modules()]
        assert kinds[0] == "TwoLayer"
        assert kinds.count("Linear") == 2

    def test_register_module_by_name(self):
        m = Module()
        child = Linear(2, 2, rng=np.random.default_rng(0))
        m.register_module("head", child)
        assert dict(m.named_parameters()).keys() == {"head.weight", "head.bias"}


class TestModes:
    def test_train_eval_recursive(self):
        m = TwoLayer()
        m.eval()
        assert not m.training and not m.fc1.training
        m.train()
        assert m.training and m.fc2.training

    @pytest.mark.parametrize("training", [True, False])
    def test_inference_restores_prior_mode(self, training):
        m = TwoLayer().train(training)
        with m.inference():
            assert not m.training and not m.fc1.training
            out = m(Tensor(np.ones((3, 4), dtype=np.float32)))
            assert not out.requires_grad  # no autograd inside
        assert m.training is training and m.fc2.training is training

    @pytest.mark.parametrize("training", [True, False])
    def test_inference_restores_mode_when_forward_raises(self, training):
        m = TwoLayer().train(training)
        with pytest.raises(ValueError):
            with m.inference():
                m(Tensor(np.ones((3, 5), dtype=np.float32)))  # wrong width
        assert m.training is training and m.fc1.training is training
        # autograd is back on after the failed body
        assert m(Tensor(np.ones((3, 4), dtype=np.float32))).requires_grad

    def test_zero_grad_clears_all(self):
        m = TwoLayer()
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        ops.sum(m(x)).backward()
        assert any(p.grad is not None for p in m.parameters())
        m.zero_grad()
        assert all(p.grad is None for p in m.parameters())


class TestStateDict:
    def test_round_trip(self):
        m1, m2 = TwoLayer(), TwoLayer()
        # perturb m2 so the load is observable
        for p in m2.parameters():
            p.data += 1.0
        m2.load_state_dict(m1.state_dict())
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.data, p2.data)

    def test_state_dict_is_a_copy(self):
        m = TwoLayer()
        sd = m.state_dict()
        sd["fc1.weight"][:] = 99.0
        assert not np.any(m.fc1.weight.data == 99.0)

    def test_missing_key_raises(self):
        m = TwoLayer()
        sd = m.state_dict()
        del sd["fc2.bias"]
        with pytest.raises(KeyError):
            m.load_state_dict(sd)

    def test_shape_mismatch_raises(self):
        m = TwoLayer()
        sd = m.state_dict()
        sd["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            m.load_state_dict(sd)


class TestSequential:
    def test_len_and_getitem(self):
        rng = np.random.default_rng(0)
        s = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        assert len(s) == 2
        assert isinstance(s[1], Linear)

    def test_applies_in_order(self):
        rng = np.random.default_rng(0)
        l1, l2 = Linear(2, 3, rng=rng), Linear(3, 1, rng=rng)
        s = Sequential(l1, l2)
        x = Tensor(np.ones((4, 2), dtype=np.float32))
        manual = l2(l1(x)).numpy()
        assert np.allclose(s(x).numpy(), manual)

    def test_parameters_discovered(self):
        rng = np.random.default_rng(0)
        s = Sequential(Linear(2, 3, rng=rng), Linear(3, 1, rng=rng))
        assert len(list(s.parameters())) == 4
