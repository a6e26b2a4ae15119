"""Parity and gradient suites for the fused scatter/gather kernels.

Every fused op is checked against its unfused reference composition:
float64 comparisons are tight (the reductions are exact enough), float32
ones carry an explicit tolerance, and the kernels' contract (ids, dtypes,
strides, determinism) is stated as hypothesis properties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import default_arena, set_arena_enabled
from repro.tensor import Tensor, gradcheck, kernels, no_grad, ops


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
        # CSR-ordered ids: the operator's column order is the identity
        idx = np.array([0, 0, 1, 3, 3, 3], dtype=np.int64)
        op = kernels.ScatterPlan(idx).operator(4, np.float64)
        np.testing.assert_array_equal(op.indices, np.arange(6))
        np.testing.assert_array_equal(op.indptr, [0, 2, 3, 3, 6])

    def test_unsorted_stable_order(self):
        idx = np.array([2, 0, 2, 1, 0], dtype=np.int64)
        op = kernels.ScatterPlan(idx).operator(3, np.float64)
        # a segment's rows appear in original edge order
        np.testing.assert_array_equal(op.indices, [1, 4, 3, 0, 2])
        np.testing.assert_array_equal(op.indptr, [0, 2, 3, 5])
        assert op.shape == (3, 5) and op.has_canonical_format

    def test_empty(self):
        plan = kernels.ScatterPlan(np.empty(0, dtype=np.int64))
        assert plan.length == 0 and (plan.lo, plan.hi) == (0, -1)
        assert plan.operator(3, np.float32).shape == (3, 0)

    def test_counts_includes_empty_segments(self):
        idx = np.array([0, 0, 3], dtype=np.int64)
        op = kernels.ScatterPlan(idx).operator(5, np.float32)
        np.testing.assert_array_equal(np.diff(op.indptr), [2, 0, 0, 1, 0])

    def test_records_bounds(self):
        idx = np.array([4, 2, 7], dtype=np.int64)
        plan = kernels.ScatterPlan(idx)
        assert (plan.lo, plan.hi, plan.length) == (2, 7, 3)
        assert plan.index is idx  # an int64 array is held, not copied
        plan.check(8)
        with pytest.raises(IndexError, match="7.*7 segments"):
            plan.check(7)

    def test_operator_per_num_segments_and_dtype(self):
        # one plan per index array; it keeps one operator per shape and
        # data dtype
        idx = np.array([1, 0, 1], dtype=np.int64)
        plan = kernels.ScatterPlan(idx)
        a = plan.operator(2, np.float32)
        assert plan.operator(2, np.float32) is a
        assert plan.operator(5, np.float32).shape == (5, 3)
        assert plan.operator(2, np.float64).dtype == np.float64
        assert a.dtype == np.float32


# ----------------------------------------------------------------------
# scatter_add_rows vs np.add.at
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
        # values agree to float32 round-off whatever the summation order
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

    def test_1d_payload_uses_bincount(self, rng):
        idx = rng.integers(0, 6, size=50)
        vals = rng.normal(size=50)
        ref = np.zeros(6)
        np.add.at(ref, idx, vals)
        np.testing.assert_allclose(kernels.scatter_add_rows(vals, idx, 6), ref)

    def test_1d_out_of_bounds_raises(self):
        with pytest.raises(IndexError):
            kernels.scatter_add_rows(np.ones(3), np.array([0, 1, 5]), 4)

    @pytest.mark.parametrize("payload", [np.ones((4, 2)), np.ones(4)], ids=["2d", "1d"])
    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "num_segments"])
    def test_out_of_range_id_raises_index_error(self, payload, bad):
        # one rule for both paths: nothing wraps, nothing reaches a C loop
        idx = np.array([0, 1, bad, 1], dtype=np.int64)
        with pytest.raises(IndexError, match=rf"index {bad} is out of bounds for 3 segments"):
            kernels.scatter_add_rows(payload, idx, 3)
        with pytest.raises(IndexError, match=rf"index {bad} is out of bounds for 3 segments"):
            kernels.scatter_add_rows(payload, kernels.ScatterPlan(idx), 3)

    def test_empty_index_1d(self):
        out = kernels.scatter_add_rows(np.empty(0), np.empty(0, np.int64), 3)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_gather_rows_out_rejects_out_of_range(self):
        values = np.arange(6.0).reshape(3, 2)
        for bad in (-1, 3):
            with pytest.raises(IndexError):
                kernels.gather_rows_out(values, np.array([0, bad], dtype=np.int64))

    def test_wrong_out_shape_raises(self):
        # gather_rows_out is the one kernel that writes into a caller's out=
        with pytest.raises(ValueError):
            kernels.gather_rows_out(
                np.ones((4, 2)), np.zeros(3, np.int64), out=np.zeros((4, 3))
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
# the kernels' contract, as properties
# ----------------------------------------------------------------------
@st.composite
def scatter_cases(draw):
    """(values, ids, n): sorted / unsorted ids, empty segments, all equal."""
    m, n, f = draw(st.integers(0, 400)), draw(st.integers(1, 60)), draw(st.integers(1, 9))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["unsorted", "sorted", "sparse", "equal"]))
    if kind == "equal":
        ids = np.full(m, int(rng.integers(0, n)), dtype=np.int64)
    elif kind == "sparse":  # most segments stay empty
        ids = rng.choice(rng.integers(0, n, size=max(1, n // 8)), size=m)
    else:
        ids = rng.integers(0, n, size=m)
    if kind == "sorted":
        ids = np.sort(ids)
    return rng.normal(size=(m, f)).astype(dtype), ids.astype(np.int64), n


def add_at(values, ids, n, base=None):
    ref = np.zeros((n,) + values.shape[1:], values.dtype) if base is None else base.copy()
    np.add.at(ref, ids, values)
    return ref


class TestKernelProperties:
    @given(scatter_cases())
    @settings(max_examples=60, deadline=None)
    def test_scatter_add_rows_is_add_at(self, case):
        values, ids, n = case
        tol = dict(rtol=1e-12, atol=1e-12) if values.dtype == np.float64 else dict(rtol=1e-4, atol=1e-4)
        ref = add_at(values, ids, n)
        out = kernels.scatter_add_rows(values, ids, n)
        assert out.dtype == values.dtype  # scipy upcasts unless data matches
        np.testing.assert_allclose(out, ref, **tol)
        # same arrays, same shape -> same bits, from the array or its plan
        np.testing.assert_array_equal(kernels.scatter_add_rows(values, ids, n), out)
        plan = kernels.ScatterPlan(ids)
        np.testing.assert_array_equal(kernels.scatter_add_rows(values, plan, n), out)

    @given(scatter_cases())
    @settings(max_examples=60, deadline=None)
    def test_operator_is_the_stable_argsort_csr(self, case):
        # the linear COO->CSR pass builds the operator a stable argsort +
        # bincount + cumsum build gives, sorted ids or not, empty or not
        values, ids, n = case
        op = kernels.ScatterPlan(ids).operator(n, values.dtype)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=n), out=indptr[1:])
        np.testing.assert_array_equal(op.indptr, indptr)
        np.testing.assert_array_equal(op.indices, np.argsort(ids, kind="stable"))
        assert op.dtype == values.dtype and op.has_canonical_format

    @given(scatter_cases())
    @settings(max_examples=40, deadline=None)
    def test_scatter_add_rows_column_slice(self, case):
        # concat's backward hands the kernel column slices of one gradient
        values, ids, n = case
        f = values.shape[1]
        sliced = np.concatenate([values - 1, values, values + 1], axis=1)[:, f : 2 * f]
        out = kernels.scatter_add_rows(sliced, ids, n)
        assert out.dtype == values.dtype
        np.testing.assert_array_equal(out, kernels.scatter_add_rows(values, ids, n))

    @given(scatter_cases())
    @settings(max_examples=40, deadline=None)
    def test_gather_rows_out_is_fancy_indexing(self, case):
        grads, ids, n = case  # gather is the scatter's transpose: (n, f)[ids]
        table = np.random.default_rng(0).normal(size=(n, grads.shape[1])).astype(grads.dtype)
        np.testing.assert_array_equal(kernels.gather_rows_out(table, ids), table[ids])
        dest = np.empty_like(grads)
        assert kernels.gather_rows_out(table, kernels.ScatterPlan(ids), out=dest) is dest
        np.testing.assert_array_equal(dest, table[ids])


def textbook_layer_norm(x, w, b, eps=1e-5):
    x = x.astype(np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * w + b


class TestLayerNorm:
    @pytest.mark.parametrize("shape", [(7, 5), (3, 4, 5)], ids=["2d", "3d"])
    def test_gradcheck(self, rng, shape):
        a, w, b = t64(rng, *shape), t64(rng, shape[-1]), t64(rng, shape[-1])
        probe = rng.normal(size=shape)  # a non-symmetric readout
        gradcheck(
            lambda a, w, b: ops.sum(ops.mul(ops.layer_norm(a, w, b), probe)),
            [a, w, b], atol=1e-5,
        )

    def test_nd_input_matches_its_2d_view(self, rng):
        x = rng.normal(size=(3, 4, 6))
        w, b = rng.normal(size=6), rng.normal(size=6)
        nd = ops.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        flat = ops.layer_norm(Tensor(x.reshape(12, 6)), Tensor(w), Tensor(b)).data
        assert nd.shape == x.shape
        np.testing.assert_array_equal(nd.reshape(12, 6), flat)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(9, 6), (3, 4, 6), (6,)], ids=["2d", "3d", "1d"])
    def test_bits_of_the_standalone_spelling(self, rng, shape, dtype):
        """``layer_norm`` is a node over the layer tail the fused ops
        apply; its output and three gradients are, bit for bit, those of
        the arithmetic written out here on its own (forward: gemv mean,
        einsum variance, normalise, affine; backward: the standard
        ``inv * (g - mean(g) - xhat * mean(g * xhat))``)."""
        f = shape[-1]
        x = (rng.normal(size=shape) * 3.0).astype(dtype)
        w, b = rng.normal(size=f).astype(dtype), rng.normal(size=f).astype(dtype)
        seed = rng.normal(size=shape).astype(dtype)

        rows = x.reshape(-1, f)
        xhat = rows - (rows @ np.full(f, 1.0 / f, dtype=dtype))[:, None]
        var = np.einsum("ij,ij->i", xhat, xhat)
        var *= 1.0 / f
        inv = (1.0 / np.sqrt(var + 1e-5))[:, None]
        xhat *= inv
        ref_out = (xhat * w + b).reshape(shape)
        grad = seed.reshape(-1, f)
        gxhat = grad * w
        proj = xhat * (np.einsum("ij,ij->i", gxhat, xhat) / f)[:, None]
        proj += (grad @ (w / f))[:, None]
        ref_grads = [
            ((gxhat - proj) * inv).reshape(shape),
            np.einsum("ij,ij->j", grad, xhat),
            np.ones(grad.shape[0], dtype=dtype) @ grad,
        ]

        leaves = [Tensor(v.copy(), requires_grad=True) for v in (x, w, b)]
        out = ops.layer_norm(*leaves, eps=1e-5)
        assert out._op == "layer_norm" and out._parents == tuple(leaves)
        out.backward(seed)
        assert out.dtype == dtype and np.array_equal(out.data, ref_out)
        for leaf, ref in zip(leaves, ref_grads):
            assert leaf.grad.dtype == dtype and np.array_equal(leaf.grad, ref)
        # the tail works in place — on the op's own copy, never the input
        assert np.array_equal(leaves[0].data, x)
        with no_grad():
            quiet = ops.layer_norm(*leaves)
        assert quiet.is_leaf and quiet._parents == ()
        assert np.array_equal(quiet.data, ref_out) and np.array_equal(leaves[0].data, x)

    @given(st.integers(0, 2**16), st.integers(1, 300), st.integers(8, 96))
    @settings(max_examples=40, deadline=None)
    def test_float32_forward_matches_two_pass_formula(self, seed, m, f):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=(m, f)) * 3.0 + rng.normal(size=(m, 1))).astype(np.float32)
        w = rng.normal(size=f).astype(np.float32)
        b = rng.normal(size=f).astype(np.float32)
        out = ops.layer_norm(Tensor(x), Tensor(w), Tensor(b)).data
        assert out.dtype == np.float32
        ref = textbook_layer_norm(x, w, b)
        np.testing.assert_allclose(out, ref, rtol=0, atol=2e-6 * max(1.0, np.abs(ref).max()))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_degenerate_rows_stay_finite(self, dtype):
        # f = 1 and a constant row both have variance 0
        for x in (np.array([[2.0], [-5.0]]), np.array([[4.0] * 6, [0.0] * 6])):
            f = x.shape[1]
            a = Tensor(x.astype(dtype), requires_grad=True)
            w = Tensor(np.full(f, 1.5, dtype), requires_grad=True)
            b = Tensor(np.full(f, 0.25, dtype), requires_grad=True)
            out = ops.layer_norm(a, w, b)
            np.testing.assert_allclose(out.data, 0.25, atol=1e-6)
            ops.sum(ops.mul(out, out)).backward()
            for p in (a, w, b):
                assert p.grad.dtype == dtype and np.all(np.isfinite(p.grad))


# ----------------------------------------------------------------------
# autograd ops on the kernels
# ----------------------------------------------------------------------
#: each graph op on ``(tensors, rows, cols, n)``: rows / cols are index
#: arrays or their plans
GRAPH_OPS = {
    "gather_rows": lambda t, rows, cols, n: ops.gather_rows(t["x"], rows),
    "segment_sum": lambda t, rows, cols, n: ops.segment_sum(t["msg"], cols, n),
    "segment_mean": lambda t, rows, cols, n: ops.segment_mean(t["msg"], rows, n),
    "gather_concat_matmul": lambda t, rows, cols, n: ops.gather_concat_matmul(
        t["y"], t["x"], rows, cols, t["w"], t["b"]
    ),
    "scatter_mlp_input": lambda t, rows, cols, n: ops.scatter_mlp_input(
        t["msg"], rows, cols, t["x"], t["w"], t["b"]
    ),
}


class TestSegmentOps:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(GRAPH_OPS))
    def test_plan_or_array_same_bits(self, name, dtype):
        def run(as_plan):
            rng = np.random.default_rng(3)
            n, m, h = 9, 40, 5
            rows, cols = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
            if as_plan:
                rows, cols = kernels.ScatterPlan(rows), kernels.ScatterPlan(cols)
            shapes = {"x": (n, h), "y": (m, h), "msg": (m, h), "w": (3 * h, h), "b": (h,)}
            t = {
                k: Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                for k, shape in shapes.items()
            }
            out = GRAPH_OPS[name](t, rows, cols, n)
            ops.sum(ops.mul(out, out)).backward()
            return [out.data] + [p.grad for p in t.values() if p.grad is not None]

        from_arrays, from_plans = run(False), run(True)
        assert len(from_arrays) == len(from_plans) > 1
        for a, b in zip(from_arrays, from_plans):
            assert a.dtype == dtype
            np.testing.assert_array_equal(a, b)

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

    def test_split_pair_matches_concat_float64(self, rng):
        """``y = (Yˡ, Y⁰)`` against ``concat → op`` with the same weight:
        the forward and every gradient, LayerNorm → ReLU included."""
        ya, yb, x = t64(rng, 25, 4), t64(rng, 25, 4), t64(rng, 7, 3)
        rows, cols = rng.integers(0, 7, size=25), rng.integers(0, 7, size=25)
        w, b, gamma, beta = t64(rng, 14, 6), t64(rng, 6), t64(rng, 6), t64(rng, 6)
        seed = rng.normal(size=(25, 6))
        params = (ya, yb, x, w, b, gamma, beta)
        results = []
        for y in ((ya, yb), ops.concat([ya, yb], axis=1)):
            for p in params:
                p.grad = None
            out = ops.gather_concat_matmul(y, x, rows, cols, w, b, (gamma, beta, 1e-5))
            ops.sum(ops.mul(out, seed)).backward()
            results.append([out.data] + [p.grad for p in params])
        for split, cat in zip(*results):
            np.testing.assert_allclose(split, cat, rtol=1e-11, atol=1e-11)

    def test_split_x_pair_matches_concat_float64(self, rng):
        """``x = (Xˡ, X⁰)`` too, the IGNN's call: both pairs against
        ``concat → op``, the forward and every gradient."""
        ya, yb, xa, xb = t64(rng, 25, 4), t64(rng, 25, 4), t64(rng, 7, 3), t64(rng, 7, 3)
        rows, cols = rng.integers(0, 7, size=25), rng.integers(0, 7, size=25)
        w, b, gamma, beta = t64(rng, 20, 6), t64(rng, 6), t64(rng, 6), t64(rng, 6)
        seed = rng.normal(size=(25, 6))
        params = (ya, yb, xa, xb, w, b, gamma, beta)
        results = []
        for split in (True, False):
            for p in params:
                p.grad = None
            y, x = ((ya, yb), (xa, xb)) if split else (
                ops.concat([ya, yb], axis=1), ops.concat([xa, xb], axis=1)
            )
            out = ops.gather_concat_matmul(y, x, rows, cols, w, b, (gamma, beta, 1e-5))
            ops.sum(ops.mul(out, seed)).backward()
            results.append([out.data] + [p.grad for p in params])
        for split, cat in zip(*results):
            np.testing.assert_allclose(split, cat, rtol=1e-11, atol=1e-11)

    def test_single_tensor_form_bits(self, rng):
        """One ``y`` keeps the original arithmetic bit for bit:
        ``y@W_y + gather(x@W_r) + gather(x@W_c)`` and its gradients."""
        m, n, e, f, h = 40, 9, 6, 5, 7
        y, x, w = (
            Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in ((m, e), (n, f), (e + 2 * f, h))
        )
        rows, cols = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        seed = rng.normal(size=(m, h)).astype(np.float32)
        out = ops.gather_concat_matmul(y, x, rows, cols, w)
        out.backward(seed)
        w_y, w_r, w_c = w.data[:e], w.data[e : e + f], w.data[e + f :]
        ref = y.data @ w_y
        ref += np.take(x.data @ w_r, rows, axis=0)
        ref += np.take(x.data @ w_c, cols, axis=0)
        np.testing.assert_array_equal(out.data, ref)
        g_r = kernels.scatter_add_rows(seed, rows, n)
        g_c = kernels.scatter_add_rows(seed, cols, n)
        g_x = g_r @ w_r.T
        g_x += g_c @ w_c.T
        np.testing.assert_array_equal(y.grad, seed @ w_y.T)
        np.testing.assert_array_equal(x.grad, g_x)
        np.testing.assert_array_equal(
            w.grad, np.concatenate([y.data.T @ seed, x.data.T @ g_r, x.data.T @ g_c])
        )

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

    def test_split_pair_matches_concat_float64(self, rng):
        """``x = (Xˡ, X⁰)`` against ``concat → op`` with the same weight:
        the forward and every gradient, LayerNorm → ReLU included."""
        msg, rows, cols, _, _, b = self.node_case(rng)
        xa, xb = t64(rng, 7, 3), t64(rng, 7, 3)
        w, gamma, beta = t64(rng, 2 * 6 + 6, 5), t64(rng, 5), t64(rng, 5)
        seed = rng.normal(size=(7, 5))
        params = (msg, xa, xb, w, b, gamma, beta)
        results = []
        for x in ((xa, xb), ops.concat([xa, xb], axis=1)):
            for p in params:
                p.grad = None
            out = ops.scatter_mlp_input(msg, rows, cols, x, w, b, norm=(gamma, beta, 1e-5))
            ops.sum(ops.mul(out, seed)).backward()
            results.append([out.data] + [p.grad for p in params])
        for split, cat in zip(*results):
            np.testing.assert_allclose(split, cat, rtol=1e-11, atol=1e-11)

    def test_single_tensor_form_bits(self, rng):
        """One ``x`` keeps the original arithmetic bit for bit:
        ``seg(msg)@W_s + seg(msg)@W_d + x@W_x`` and its gradients."""
        m, n, h, f, k = 40, 9, 6, 5, 7
        msg, x, w = (
            Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in ((m, h), (n, f), (2 * h + f, k))
        )
        rows, cols = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        seed = rng.normal(size=(n, k)).astype(np.float32)
        out = ops.scatter_mlp_input(msg, rows, cols, x, w)
        out.backward(seed)
        w_s, w_d, w_x = w.data[:h], w.data[h : 2 * h], w.data[2 * h :]
        m_src = kernels.scatter_add_rows(msg.data, rows, n)
        m_dst = kernels.scatter_add_rows(msg.data, cols, n)
        ref = m_src @ w_s
        ref += m_dst @ w_d
        ref += x.data @ w_x
        np.testing.assert_array_equal(out.data, ref)
        np.testing.assert_array_equal(x.grad, seed @ w_x.T)
        np.testing.assert_array_equal(
            w.grad, np.concatenate([m_src.T @ seed, m_dst.T @ seed, x.data.T @ seed])
        )


class TestFanIn:
    def test_is_the_input_array_and_one_gradient_sum(self, rng):
        """No copy forward; its consumers' gradients reach the input as
        one sum, even when another consumer of the input was recorded
        between them: ``a`` sees ``1 + (1e8 - 1e8)``; without the node it
        would see ``(-1e8 + 1) + 1e8 = 0`` in float32."""
        a = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        shared = ops.fan_in(a)
        assert shared.data is a.data and shared._op == "fan_in"
        first = ops.mul(shared, Tensor(np.float32([1e8])))
        direct = ops.mul(a, Tensor(np.float32([1.0])))
        last = ops.mul(shared, Tensor(np.float32([-1e8])))
        ops.sum(ops.add(ops.add(first, direct), last)).backward()
        assert a.grad.tolist() == [1.0]
        with no_grad():
            assert ops.fan_in(a).is_leaf


# ----------------------------------------------------------------------
# one MLP layer as one tape node: the LayerNorm → ReLU epilogue
# ----------------------------------------------------------------------
def _layer_forms(rng, dtype):
    """``{name: (op, args, differentiated tensors)}`` — ``op(*args,
    norm=...)`` is the affine op of each of the three hosts, bias included."""
    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    m, n, f, h = 23, 7, 4, 6
    rows, cols = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
    x2, w_lin, b_lin = t(m, f), t(f, h), t(h)
    y, x, w_edge, b_edge = t(m, 3), t(n, f), t(3 + 2 * f, h), t(h)
    msg, xv, w_node, b_node = t(m, 5), t(n, f), t(2 * 5 + f, h), t(h)
    return {
        "linear": (ops.linear, (x2, w_lin, b_lin), (x2, w_lin, b_lin)),
        "gather_concat_matmul": (
            ops.gather_concat_matmul, (y, x, rows, cols, w_edge, b_edge),
            (y, x, w_edge, b_edge),
        ),
        "scatter_mlp_input": (
            ops.scatter_mlp_input, (msg, rows, cols, xv, w_node, b_node),
            (msg, xv, w_node, b_node),
        ),
    }


FORMS = ["linear", "gather_concat_matmul", "scatter_mlp_input"]


class TestNormReluEpilogue:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("form", FORMS)
    def test_bit_equal_to_three_op_spelling(self, rng, form, dtype):
        op, args, leaves = _layer_forms(rng, dtype)[form]
        gamma = Tensor(rng.normal(size=6).astype(dtype), requires_grad=True)
        beta = Tensor(rng.normal(size=6).astype(dtype), requires_grad=True)
        leaves = leaves + (gamma, beta)
        seed = rng.normal(size=op(*args).shape).astype(dtype)

        def run(build, inspect=lambda out: None):
            for p in leaves:
                p.grad = None
            out = build()
            inspect(out)  # backward() consumes the node: look first
            out.backward(seed)
            return out, [p.grad.copy() for p in leaves]

        def one_node(fused):
            # the layer is ONE node over the op's inputs and the norm's
            assert fused._op == form and fused._parents[-2:] == (gamma, beta)
            assert all(p.is_leaf for p in fused._parents)

        fused, fused_grads = run(lambda: op(*args, norm=(gamma, beta, 1e-5)), one_node)
        ref, ref_grads = run(
            lambda: ops.relu(ops.layer_norm(op(*args), gamma, beta, eps=1e-5))
        )
        assert fused.dtype == dtype and np.array_equal(fused.data, ref.data)
        assert (fused.data == 0).any() and (fused.data > 0).any()
        assert len(fused_grads) >= 5
        for g, r in zip(fused_grads, ref_grads):
            assert g.dtype == dtype and np.array_equal(g, r)

    @pytest.mark.parametrize("form", FORMS)
    def test_gradcheck(self, rng, form):
        op, args, leaves = _layer_forms(rng, np.float64)[form]
        gamma, beta = t64(rng, 6), t64(rng, 6)
        slots = [next(i for i, a in enumerate(args) if a is p) for p in leaves]
        weights = rng.normal(size=op(*args).shape)

        def loss(*tensors):
            *inputs, g, b = tensors
            call = list(args)
            for slot, tensor in zip(slots, inputs):
                call[slot] = tensor
            out = op(*call, norm=(g, b, 1e-5))
            return ops.sum(ops.mul(out, Tensor(weights)))

        gradcheck(loss, [*leaves, gamma, beta], atol=1e-5)

    @pytest.mark.parametrize("form", FORMS)
    def test_no_grad_keeps_nothing_and_touches_no_input(self, rng, form):
        op, args, leaves = _layer_forms(rng, np.float32)[form]
        gamma, beta = Tensor(np.ones(6)), Tensor(np.zeros(6))
        tensors = leaves + (gamma, beta)
        before = [p.data.copy() for p in tensors]
        expected = op(*args, norm=(gamma, beta, 1e-5)).data
        with no_grad():
            out = op(*args, norm=(gamma, beta, 1e-5))
        assert out.is_leaf and out._parents == () and not out.requires_grad
        assert np.array_equal(out.data, expected)
        for p, data in zip(tensors, before):
            assert np.array_equal(p.data, data)

    def test_single_row_linear(self, rng):
        x, w, b = t64(rng, 4), t64(rng, 4, 6), t64(rng, 6)
        gamma, beta = t64(rng, 6), t64(rng, 6)
        fused = ops.linear(x, w, b, norm=(gamma, beta, 1e-5))
        ref = ops.relu(ops.layer_norm(ops.linear(x, w, b), gamma, beta, eps=1e-5))
        assert fused.shape == (6,) and np.array_equal(fused.data, ref.data)
        gradcheck(
            lambda *t: ops.sum(ops.pow(ops.linear(*t[:3], norm=(t[3], t[4], 1e-5)), 2.0)),
            [x, w, b, gamma, beta], atol=1e-5,
        )


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
