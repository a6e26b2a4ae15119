"""Forward-value semantics of the op library (including property tests)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, ops, unbroadcast

finite_floats = st.floats(-1e3, 1e3, allow_nan=False, width=32)


class TestForwardValues:
    def test_concat_axis1(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        b = Tensor(np.zeros((2, 3), dtype=np.float32))
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        assert np.all(out.numpy()[:, :2] == 1) and np.all(out.numpy()[:, 2:] == 0)

    def test_gather_rows_matches_numpy(self):
        a = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        idx = np.array([3, 1, 1, 0])
        assert np.array_equal(ops.gather_rows(a, idx).numpy(), a.numpy()[idx])

    def test_segment_sum_matches_manual(self):
        a = Tensor(np.arange(8, dtype=np.float32).reshape(4, 2))
        seg = np.array([1, 0, 1, 2])
        out = ops.segment_sum(a, seg, 3).numpy()
        assert np.allclose(out[0], a.numpy()[1])
        assert np.allclose(out[1], a.numpy()[0] + a.numpy()[2])
        assert np.allclose(out[2], a.numpy()[3])

    def test_segment_sum_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_segment_mean_empty_segment_is_zero(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        out = ops.segment_mean(a, np.array([0, 0]), 2).numpy()
        assert np.allclose(out[0], 1.0)
        assert np.allclose(out[1], 0.0)

    def test_sigmoid_extreme_values_stable(self):
        x = Tensor(np.array([-1000.0, 0.0, 1000.0], dtype=np.float32))
        out = ops.sigmoid(x).numpy()
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0, abs=1e-6)

    def test_bce_extreme_logits_finite(self):
        logits = Tensor(np.array([-500.0, 500.0], dtype=np.float32), requires_grad=True)
        loss = ops.bce_with_logits(logits, np.array([0.0, 1.0]))
        assert np.isfinite(loss.item())
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_bce_matches_manual(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=20)
        t = (rng.random(20) > 0.5).astype(np.float64)
        loss = ops.bce_with_logits(Tensor(x), t).item()
        s = 1 / (1 + np.exp(-x))
        manual = -(t * np.log(s) + (1 - t) * np.log(1 - s)).mean()
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_bce_pos_weight_matches_manual(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        t = (rng.random(20) > 0.5).astype(np.float64)
        w = 3.0
        loss = ops.bce_with_logits(Tensor(x), t, pos_weight=w).item()
        s = 1 / (1 + np.exp(-x))
        manual = -(w * t * np.log(s) + (1 - t) * np.log(1 - s)).mean()
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_bce_none_reduction_shape(self):
        out = ops.bce_with_logits(Tensor(np.zeros(5)), np.ones(5), reduction="none")
        assert out.shape == (5,)

    def test_bce_unknown_reduction(self):
        with pytest.raises(ValueError):
            ops.bce_with_logits(Tensor(np.zeros(2)), np.ones(2), reduction="bogus")

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = ops.softmax(Tensor(rng.normal(size=(4, 7)))).numpy()
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_layer_norm_normalises(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(2.0, 3.0, size=(10, 16)).astype(np.float32))
        w = Tensor(np.ones(16, dtype=np.float32))
        b = Tensor(np.zeros(16, dtype=np.float32))
        out = ops.layer_norm(x, w, b).numpy()
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.std(axis=1), 1.0, atol=1e-2)

    def test_dropout_eval_mode_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(100, dtype=np.float32))
        out = ops.dropout(x, 0.5, rng, training=False)
        assert out is x

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(10000, dtype=np.float32))
        out = ops.dropout(x, 0.25, rng, training=True).numpy()
        survivors = out[out > 0]
        assert np.allclose(survivors, 1.0 / 0.75)
        assert abs((out > 0).mean() - 0.75) < 0.03

    def test_dropout_invalid_p(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.5, rng)

    def test_hinge_loss_zero_for_separated(self):
        # positives at distance 0, negatives beyond the margin
        d2 = Tensor(np.array([0.0, 0.0, 4.0, 4.0]))
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        loss = ops.hinge_embedding_loss(d2, labels, margin=1.0)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_hinge_loss_penalises_close_negatives(self):
        d2 = Tensor(np.array([0.01]))
        loss = ops.hinge_embedding_loss(d2, np.array([0.0]), margin=1.0)
        assert loss.item() > 0.5


class TestUnbroadcast:
    @given(
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=1, max_dims=3, max_side=4), elements=finite_floats)
    )
    @settings(max_examples=30, deadline=None)
    def test_broadcast_then_unbroadcast_sums(self, arr):
        target_shape = arr.shape
        broadcast = np.broadcast_to(arr, (2,) + target_shape)
        reduced = unbroadcast(np.array(broadcast), target_shape)
        assert reduced.shape == target_shape
        assert np.allclose(reduced, 2 * arr, rtol=1e-4, atol=1e-4)

    def test_unbroadcast_size_one_axis(self):
        grad = np.ones((3, 4))
        out = unbroadcast(grad, (3, 1))
        assert out.shape == (3, 1)
        assert np.all(out == 4)

    def test_unbroadcast_noop(self):
        grad = np.ones((2, 2))
        assert unbroadcast(grad, (2, 2)) is grad


class TestBinaryOpProperties:
    @given(
        hnp.arrays(np.float32, st.integers(1, 20), elements=finite_floats),
        hnp.arrays(np.float32, st.integers(1, 1), elements=finite_floats),
    )
    @settings(max_examples=30, deadline=None)
    def test_add_commutes(self, a, b):
        left = ops.add(Tensor(a), Tensor(b)).numpy()
        right = ops.add(Tensor(b), Tensor(a)).numpy()
        assert np.allclose(left, right, equal_nan=True)

    @given(hnp.arrays(np.float32, st.integers(1, 20), elements=finite_floats))
    @settings(max_examples=30, deadline=None)
    def test_relu_idempotent(self, a):
        once = ops.relu(Tensor(a)).numpy()
        twice = ops.relu(Tensor(once)).numpy()
        assert np.array_equal(once, twice)

    @given(hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-20, 20)))
    @settings(max_examples=30, deadline=None)
    def test_sigmoid_in_unit_interval(self, a):
        out = ops.sigmoid(Tensor(a)).numpy()
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
