"""Parity and gradient suites for the fused scatter/gather kernels.

Every fused op is checked against its unfused reference composition:
float64 comparisons are tight (the reductions are exact enough), and the
reduceat-vs-add.at pairwise/sequential ordering difference is covered by
an explicit float32 tolerance case.
"""

import numpy as np
import pytest

from repro.memory import default_arena, set_arena_enabled
from repro.tensor import Tensor, gradcheck, kernels, ops


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def t64(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ----------------------------------------------------------------------
# scatter plans
# ----------------------------------------------------------------------
class TestScatterPlan:
    def test_presorted_skips_sort(self):
        idx = np.array([0, 0, 1, 3, 3, 3], dtype=np.int64)
        plan = kernels.scatter_plan(idx)
        assert plan.order is None
        np.testing.assert_array_equal(plan.unique, [0, 1, 3])
        np.testing.assert_array_equal(plan.sizes, [2, 1, 3])
        np.testing.assert_array_equal(plan.starts, [0, 2, 3])

    def test_unsorted_stable_order(self):
        idx = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        plan = kernels.scatter_plan(idx)
        assert plan.order is not None
        np.testing.assert_array_equal(idx[plan.order], np.sort(idx))
        np.testing.assert_array_equal(plan.unique, [0, 1, 2])
        np.testing.assert_array_equal(plan.sizes, [2, 1, 2])

    def test_empty(self):
        plan = kernels.scatter_plan(np.empty(0, dtype=np.int64))
        assert plan.length == 0 and plan.unique.size == 0

    def test_counts_includes_empty_segments(self):
        idx = np.array([0, 0, 3], dtype=np.int64)
        counts = kernels.scatter_plan(idx).counts(5)
        np.testing.assert_array_equal(counts, [2, 0, 0, 1, 0])

    def test_cache_hit_same_array(self):
        idx = np.array([1, 0, 1], dtype=np.int64)
        assert kernels.scatter_plan(idx) is kernels.scatter_plan(idx)

    def test_cache_distinguishes_equal_arrays(self):
        a = np.array([1, 0], dtype=np.int64)
        b = np.array([1, 0], dtype=np.int64)
        # equal contents, distinct identity: plans may differ as objects
        pa, pb = kernels.scatter_plan(a), kernels.scatter_plan(b)
        np.testing.assert_array_equal(pa.unique, pb.unique)


# ----------------------------------------------------------------------
# scatter_add_rows / scatter_add_1d vs np.add.at
# ----------------------------------------------------------------------
class TestScatterAddParity:
    @pytest.mark.parametrize("sort", [True, False])
    def test_matches_add_at_float64(self, rng, sort):
        idx = rng.integers(0, 13, size=200)
        if sort:
            idx = np.sort(idx)
        vals = rng.normal(size=(200, 5))
        ref = np.zeros((13, 5))
        np.add.at(ref, idx, vals)
        out = kernels.scatter_add_rows(vals, idx, 13)
        np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13)

    def test_float32_tolerance(self, rng):
        # reduceat sums pairwise, add.at left-to-right: bits may differ,
        # values agree to float32 round-off
        idx = rng.integers(0, 7, size=4096)
        vals = rng.normal(size=(4096, 3)).astype(np.float32)
        ref = np.zeros((7, 3), dtype=np.float32)
        np.add.at(ref, idx, vals)
        out = kernels.scatter_add_rows(vals, idx, 7)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-4)

    def test_non_contiguous_segment_ids(self, rng):
        idx = np.array([9, 2, 9, 2, 5], dtype=np.int64)
        vals = rng.normal(size=(5, 2))
        ref = np.zeros((12, 2))
        np.add.at(ref, idx, vals)
        np.testing.assert_allclose(kernels.scatter_add_rows(vals, idx, 12), ref)

    def test_empty_index(self):
        out = kernels.scatter_add_rows(np.empty((0, 4)), np.empty(0, np.int64), 3)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_out_is_overwritten(self, rng):
        idx = np.array([0, 0, 1], dtype=np.int64)
        vals = rng.normal(size=(3, 2))
        out = np.full((2, 2), 99.0)
        kernels.scatter_add_rows(vals, idx, 2, out=out)
        ref = np.zeros((2, 2))
        np.add.at(ref, idx, vals)
        np.testing.assert_allclose(out, ref)

    def test_accumulate_adds_onto_out(self, rng):
        idx = np.array([1, 1, 3], dtype=np.int64)
        vals = rng.normal(size=(3, 2))
        out = np.ones((4, 2))
        kernels.scatter_add_rows(vals, idx, 4, out=out, accumulate=True)
        ref = np.ones((4, 2))
        np.add.at(ref, idx, vals)
        np.testing.assert_allclose(out, ref)

    def test_1d_payload_uses_bincount(self, rng):
        idx = rng.integers(0, 6, size=50)
        vals = rng.normal(size=50)
        ref = np.zeros(6)
        np.add.at(ref, idx, vals)
        np.testing.assert_allclose(kernels.scatter_add_rows(vals, idx, 6), ref)

    def test_1d_out_of_bounds_raises(self):
        with pytest.raises(IndexError):
            kernels.scatter_add_1d(np.ones(3), np.array([0, 1, 5]), 4)

    def test_wrong_out_shape_raises(self):
        with pytest.raises(ValueError):
            kernels.scatter_add_rows(
                np.ones((3, 2)), np.zeros(3, np.int64), 4, out=np.zeros((4, 3))
            )

    def test_arena_disabled_same_result(self, rng):
        idx = rng.integers(0, 5, size=64)
        vals = rng.normal(size=(64, 3))
        pooled = kernels.scatter_add_rows(vals, idx, 5)
        prev = set_arena_enabled(False)
        try:
            plain = kernels.scatter_add_rows(vals, idx, 5)
        finally:
            set_arena_enabled(prev)
        np.testing.assert_array_equal(pooled, plain)


# ----------------------------------------------------------------------
# autograd ops on the kernels
# ----------------------------------------------------------------------
class TestSegmentOps:
    def test_segment_sum_forward_parity(self, rng):
        idx = rng.integers(0, 9, size=40)
        a = Tensor(rng.normal(size=(40, 4)))
        ref = np.zeros((9, 4))
        np.add.at(ref, idx, a.data)
        np.testing.assert_allclose(ops.segment_sum(a, idx, 9).data, ref)

    def test_segment_sum_gradcheck(self, rng):
        a = t64(rng, 12, 3)
        idx = rng.integers(0, 5, size=12)
        gradcheck(lambda a: ops.sum(ops.segment_sum(a, idx, 5)), [a])

    def test_segment_mean_forward_parity(self, rng):
        idx = rng.integers(0, 6, size=30)
        a = Tensor(rng.normal(size=(30, 4)))
        sums = np.zeros((6, 4))
        np.add.at(sums, idx, a.data)
        counts = np.maximum(np.bincount(idx, minlength=6), 1)
        np.testing.assert_allclose(
            ops.segment_mean(a, idx, 6).data, sums / counts[:, None]
        )

    def test_segment_mean_empty_segments_zero(self, rng):
        # regression: the folded divisor must not divide empty rows by 0
        idx = np.array([0, 0, 4], dtype=np.int64)
        a = Tensor(rng.normal(size=(3, 2)))
        out = ops.segment_mean(a, idx, 6).data
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out[[1, 2, 3, 5]], np.zeros((4, 2)))

    def test_segment_mean_gradcheck(self, rng):
        a = t64(rng, 10, 3)
        idx = np.array([0, 2, 2, 0, 4, 4, 4, 1, 1, 0])  # segment 3 empty
        gradcheck(lambda a: ops.sum(ops.segment_mean(a, idx, 5)), [a])

    def test_gather_rows_duplicate_indices_gradcheck(self, rng):
        a = t64(rng, 6, 3)
        idx = np.array([0, 5, 0, 0, 3, 5])
        gradcheck(lambda a: ops.sum(ops.mul(ops.gather_rows(a, idx), 2.0)), [a])

    def test_getitem_fancy_index_grad_parity(self, rng):
        idx = np.array([1, 3, 1, 0])
        a = t64(rng, 5, 2)
        out = ops.sum(ops.mul(a[idx], a[idx]))
        out.backward()
        ref = np.zeros((5, 2))
        np.add.at(ref, idx, 2.0 * a.data[idx])
        np.testing.assert_allclose(a.grad, ref, rtol=1e-12, atol=1e-12)

    def test_gather_rows_negative_index_fallback(self, rng):
        # negative fancy indices must keep numpy wrap semantics in the grad
        a = t64(rng, 4, 2)
        idx = np.array([-1, 0, -1])
        out = ops.sum(ops.gather_rows(a, idx))
        out.backward()
        ref = np.zeros((4, 2))
        np.add.at(ref, idx, np.ones((3, 2)))
        np.testing.assert_array_equal(a.grad, ref)


# ----------------------------------------------------------------------
# fused edge-message / vertex-update ops
# ----------------------------------------------------------------------
def unfused_edge_input(y, x, rows, cols, w, b):
    cat = ops.concat([y, ops.gather_rows(x, rows), ops.gather_rows(x, cols)], axis=1)
    out = ops.matmul(cat, w)
    return ops.add(out, b) if b is not None else out


def unfused_node_input(msg, rows, cols, x, w, b):
    n = x.shape[0]
    cat = ops.concat(
        [ops.segment_sum(msg, rows, n), ops.segment_sum(msg, cols, n), x], axis=1
    )
    out = ops.matmul(cat, w)
    return ops.add(out, b) if b is not None else out


class TestGatherConcatMatmul:
    def edge_case(self, rng, m=25, n=7, e=4, f=3, h=6):
        y = t64(rng, m, e)
        x = t64(rng, n, f)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        w = t64(rng, e + 2 * f, h)
        b = t64(rng, h)
        return y, x, rows, cols, w, b

    def test_forward_parity(self, rng):
        y, x, rows, cols, w, b = self.edge_case(rng)
        fused = ops.gather_concat_matmul(y, x, rows, cols, w, b)
        ref = unfused_edge_input(y, x, rows, cols, w, b)
        np.testing.assert_allclose(fused.data, ref.data, rtol=1e-12, atol=1e-12)

    def test_forward_parity_no_bias(self, rng):
        y, x, rows, cols, w, _ = self.edge_case(rng)
        fused = ops.gather_concat_matmul(y, x, rows, cols, w)
        ref = unfused_edge_input(y, x, rows, cols, w, None)
        np.testing.assert_allclose(fused.data, ref.data, rtol=1e-12, atol=1e-12)

    def test_gradcheck(self, rng):
        y, x, rows, cols, w, b = self.edge_case(rng, m=10, n=4, e=2, f=2, h=3)
        gradcheck(
            lambda y, x, w, b: ops.sum(
                ops.relu(ops.gather_concat_matmul(y, x, rows, cols, w, b))
            ),
            [y, x, w, b],
        )

    def test_grads_match_unfused(self, rng):
        y, x, rows, cols, w, b = self.edge_case(rng)
        ops.sum(ops.gather_concat_matmul(y, x, rows, cols, w, b)).backward()
        fused_grads = [p.grad.copy() for p in (y, x, w, b)]
        for p in (y, x, w, b):
            p.grad = None
        ops.sum(unfused_edge_input(y, x, rows, cols, w, b)).backward()
        for g, p in zip(fused_grads, (y, x, w, b)):
            np.testing.assert_allclose(g, p.grad, rtol=1e-11, atol=1e-11)

    def test_weight_shape_validated(self, rng):
        y, x, rows, cols, _, b = self.edge_case(rng)
        bad_w = t64(rng, 5, 6)
        with pytest.raises(ValueError):
            ops.gather_concat_matmul(y, x, rows, cols, bad_w, b)

    def test_row_stable_mode_deterministic(self, rng):
        """Same arrays, same shape → same bits: what per-event inference
        parity rests on now that no kernel is swapped in for it."""
        y, x, rows, cols, w, b = self.edge_case(rng)
        a1 = ops.gather_concat_matmul(y, x, rows, cols, w, b).data
        a2 = ops.gather_concat_matmul(y, x, rows, cols, w, b).data
        np.testing.assert_array_equal(a1, a2)


class TestScatterMlpInput:
    def node_case(self, rng, m=25, n=7, f=3, h=6, out_h=5):
        msg = t64(rng, m, h)
        x = t64(rng, n, f)
        rows = rng.integers(0, n, size=m)
        cols = rng.integers(0, n, size=m)
        w = t64(rng, 2 * h + f, out_h)
        b = t64(rng, out_h)
        return msg, rows, cols, x, w, b

    def test_forward_parity(self, rng):
        msg, rows, cols, x, w, b = self.node_case(rng)
        fused = ops.scatter_mlp_input(msg, rows, cols, x, w, b)
        ref = unfused_node_input(msg, rows, cols, x, w, b)
        np.testing.assert_allclose(fused.data, ref.data, rtol=1e-12, atol=1e-12)

    def test_gradcheck(self, rng):
        msg, rows, cols, x, w, b = self.node_case(rng, m=9, n=4, f=2, h=3, out_h=3)
        gradcheck(
            lambda msg, x, w, b: ops.sum(
                ops.relu(ops.scatter_mlp_input(msg, rows, cols, x, w, b))
            ),
            [msg, x, w, b],
        )

    def test_grads_match_unfused(self, rng):
        msg, rows, cols, x, w, b = self.node_case(rng)
        ops.sum(ops.scatter_mlp_input(msg, rows, cols, x, w, b)).backward()
        fused_grads = [p.grad.copy() for p in (msg, x, w, b)]
        for p in (msg, x, w, b):
            p.grad = None
        ops.sum(unfused_node_input(msg, rows, cols, x, w, b)).backward()
        for g, p in zip(fused_grads, (msg, x, w, b)):
            np.testing.assert_allclose(g, p.grad, rtol=1e-11, atol=1e-11)

    def test_weight_shape_validated(self, rng):
        msg, rows, cols, x, _, b = self.node_case(rng)
        bad_w = t64(rng, 4, 5)
        with pytest.raises(ValueError):
            ops.scatter_mlp_input(msg, rows, cols, x, bad_w, b)


# ----------------------------------------------------------------------
# satellite bugfixes
# ----------------------------------------------------------------------
class TestBugfixes:
    def test_dropout_validates_p_even_when_not_training(self, rng):
        a = Tensor(rng.normal(size=(3, 3)))
        with pytest.raises(ValueError):
            ops.dropout(a, 1.5, rng, training=False)
        with pytest.raises(ValueError):
            ops.dropout(a, -0.1, rng, training=True)

    def test_dropout_eval_passthrough(self, rng):
        a = Tensor(rng.normal(size=(3, 3)))
        assert ops.dropout(a, 0.5, rng, training=False) is a

    def test_bce_with_logits_matches_naive(self, rng):
        x = Tensor(rng.normal(size=20) * 3.0)
        t = (rng.random(20) > 0.5).astype(np.float64)
        loss = ops.bce_with_logits(x, t).data
        p = 1.0 / (1.0 + np.exp(-x.data))
        naive = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
        np.testing.assert_allclose(loss, naive, rtol=1e-10)

    def test_bce_with_logits_extreme_logits_finite(self):
        x = Tensor(np.array([800.0, -800.0]))
        t = np.array([0.0, 1.0])
        assert np.isfinite(ops.bce_with_logits(x, t).data)


# ----------------------------------------------------------------------
# backward pooling: results identical with the arena on and off
# ----------------------------------------------------------------------
class TestArenaParity:
    def test_training_graph_grads_unchanged(self, rng):
        def run():
            local = np.random.default_rng(3)
            y = Tensor(local.normal(size=(30, 4)), requires_grad=True)
            x = Tensor(local.normal(size=(8, 3)), requires_grad=True)
            w1 = Tensor(local.normal(size=(10, 6)), requires_grad=True)
            w2 = Tensor(local.normal(size=(15, 5)), requires_grad=True)
            rows = local.integers(0, 8, size=30)
            cols = local.integers(0, 8, size=30)
            msg = ops.relu(ops.gather_concat_matmul(y, x, rows, cols, w1))
            out = ops.scatter_mlp_input(msg, rows, cols, x, w2)
            ops.sum(ops.mul(out, out)).backward()
            return [p.grad for p in (y, x, w1, w2)]

        pooled = run()
        prev = set_arena_enabled(False)
        try:
            plain = run()
        finally:
            set_arena_enabled(prev)
        for a, b in zip(pooled, plain):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
        # leaf .grad arrays must not alias pool-owned memory: thrash the
        # pool with same-shaped buffers and verify the grads are untouched
        snapshots = [g.copy() for g in pooled]
        arena = default_arena()
        for g in pooled:
            scratch = arena.take(g.shape, g.dtype)
            scratch.fill(1234.5)
            arena.give(scratch)
        for g, snap in zip(pooled, snapshots):
            np.testing.assert_array_equal(g, snap)
