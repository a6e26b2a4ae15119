"""Optimiser and scheduler unit tests (closed-form single steps)."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, CosineAnnealingLR, Parameter, StepLR, WarmupLR


def make_param(value=1.0, grad=0.5):
    p = Parameter(np.array([value], dtype=np.float32))
    p.grad = np.array([grad], dtype=np.float32)
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = make_param(1.0, 0.5)
        SGD([p], lr=0.1).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_momentum_accumulates(self):
        p = make_param(0.0, 1.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step()  # v=1, x=-0.1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # v=1.9, x=-0.29
        assert p.data[0] == pytest.approx(-0.29, abs=1e-6)

    def test_weight_decay(self):
        p = make_param(2.0, 0.0)
        SGD([p], lr=0.1, weight_decay=0.5).step()
        assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_skips_gradless_params(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        SGD([p], lr=0.1).step()
        assert p.data[0] == 1.0

    def test_zero_grad(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_validates_lr(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_validates_momentum(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, momentum=1.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        # With bias correction, the first Adam step ≈ lr * sign(grad).
        p = make_param(0.0, 0.5)
        Adam([p], lr=0.01).step()
        assert p.data[0] == pytest.approx(-0.01, rel=1e-3)

    def test_manual_two_steps(self):
        p = make_param(0.0, 1.0)
        opt = Adam([p], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step()
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # replicate manually
        m = v = 0.0
        x = 0.0
        for t in (1, 2):
            g = 1.0
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert p.data[0] == pytest.approx(x, rel=1e-4)

    def test_decoupled_weight_decay(self):
        p = make_param(1.0, 0.0)
        p.grad = np.array([0.0], dtype=np.float32)
        Adam([p], lr=0.1, weight_decay=0.5, decoupled_weight_decay=True).step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5 * 1.0)

    def test_validates_betas(self):
        with pytest.raises(ValueError):
            Adam([make_param()], lr=0.1, betas=(1.0, 0.999))

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0], dtype=np.float32))
        opt = Adam([p], lr=0.3)
        for _ in range(200):
            p.grad = 2.0 * p.data  # d/dx x^2
            opt.step()
        assert abs(p.data[0]) < 1e-2


class TestSchedulers:
    def test_step_lr(self):
        opt = SGD([make_param()], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        # step() advances the epoch counter first: after k steps the rate
        # is gamma^(k // step_size).
        lrs = [sched.step() for _ in range(4)]
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01])

    def test_cosine_endpoints(self):
        opt = SGD([make_param()], lr=1.0)
        sched = CosineAnnealingLR(opt, t_max=10)
        mid = None
        last = None
        for i in range(10):
            last = sched.step()
            if i == 4:
                mid = last
        assert last == pytest.approx(0.0, abs=1e-9)
        assert 0.0 < mid < 1.0

    def test_warmup_reaches_base(self):
        opt = SGD([make_param()], lr=2.0)
        sched = WarmupLR(opt, warmup_epochs=4)
        lrs = [sched.step() for _ in range(6)]
        assert lrs[0] == pytest.approx(0.5)
        assert lrs[3] == pytest.approx(2.0)
        assert lrs[5] == pytest.approx(2.0)

    def test_warmup_then_cosine(self):
        opt = SGD([make_param()], lr=1.0)
        inner = CosineAnnealingLR(opt, t_max=10)
        sched = WarmupLR(opt, warmup_epochs=2, after=inner)
        for _ in range(12):
            lr = sched.step()
        assert lr == pytest.approx(0.0, abs=1e-9)

    def test_validates_args(self):
        opt = SGD([make_param()], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
        with pytest.raises(ValueError):
            CosineAnnealingLR(opt, t_max=0)
        with pytest.raises(ValueError):
            WarmupLR(opt, warmup_epochs=0)


class TestOptimizerStateDict:
    """Round-tripping optimiser state (the resumable-training contract)."""

    def test_adam_state_roundtrip_bit_equal(self):
        """A restored Adam continues bit-identically to the original."""
        rng = np.random.default_rng(11)
        pa = Parameter(rng.standard_normal(5).astype(np.float32))
        pb = Parameter(pa.data.copy())
        a, b = Adam([pa], lr=1e-2), Adam([pb], lr=1e-2)
        for _ in range(3):
            g = rng.standard_normal(5).astype(np.float32)
            pa.grad = g.copy()
            pb.grad = g.copy()
            a.step()
            b.step()
        # checkpoint a -> fresh optimizer over a fresh (copied) parameter
        pc = Parameter(pa.data.copy())
        c = Adam([pc], lr=1e-2)
        c.load_state_dict(a.state_dict())
        g = np.arange(5, dtype=np.float32)
        for opt, p in ((b, pb), (c, pc)):
            p.grad = g.copy()
            opt.step()
        np.testing.assert_array_equal(pb.data, pc.data)

    def test_adam_step_leaves_the_loaded_state_unchanged(self):
        """The moments update in place, so loading must copy: a step after
        ``load_state_dict(state)`` does not write into ``state``."""
        rng = np.random.default_rng(5)
        p = Parameter(rng.standard_normal(4).astype(np.float32))
        src = Adam([p], lr=1e-2)
        p.grad = rng.standard_normal(4).astype(np.float32)
        src.step()
        state = src.state_dict()
        before = {k: np.array(v, copy=True) for k, v in state.items()}
        q = Parameter(p.data.copy())
        opt = Adam([q], lr=1e-2)
        opt.load_state_dict(state)
        q.grad = rng.standard_normal(4).astype(np.float32)
        opt.step()
        assert state.keys() == before.keys()
        for key, value in before.items():
            np.testing.assert_array_equal(state[key], value, err_msg=key)

    def test_adam_state_dict_contents(self):
        p = make_param(1.0, 0.5)
        opt = Adam([p], lr=1e-3)
        opt.step()
        state = opt.state_dict()
        assert int(state["t"]) == 1
        assert "m0" in state and "v0" in state
        assert float(state["lr"]) == pytest.approx(1e-3)

    def test_adam_load_rejects_shape_mismatch(self):
        p = make_param(1.0, 0.5)
        opt = Adam([p], lr=1e-3)
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict({"t": np.asarray(1), "m0": np.zeros(9), "v0": np.zeros(9)})

    def test_sgd_velocity_roundtrip(self):
        p = make_param(0.0, 1.0)
        opt = SGD([p], lr=0.1, momentum=0.9)
        opt.step()
        q = Parameter(p.data.copy())
        restored = SGD([q], lr=0.1, momentum=0.9)
        restored.load_state_dict(opt.state_dict())
        p.grad = np.array([1.0], dtype=np.float32)
        q.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        restored.step()
        np.testing.assert_array_equal(p.data, q.data)

    def test_restored_lr_overrides_constructor(self):
        p = make_param(1.0, 0.5)
        opt = Adam([p], lr=1e-3)
        opt.lr = 5e-4  # e.g. a scheduler decayed it
        q = Parameter(p.data.copy())
        restored = Adam([q], lr=1e-3)
        restored.load_state_dict(opt.state_dict())
        assert restored.lr == pytest.approx(5e-4)
