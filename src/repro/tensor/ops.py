"""Differentiable operations for the :class:`repro.tensor.Tensor` engine.

Every function takes tensors (or array-likes) and returns a new tensor whose
backward closure maps the output gradient to one gradient per parent.  The
op set is exactly what the Exa.TrkX pipeline needs:

* dense algebra — ``matmul``, elementwise arithmetic, activations;
* Algorithm 1 plumbing — ``concat`` (the ``[Y  X[A.rows]  X[A.cols]]``
  message construction), ``gather_rows`` (``X[A.rows]``), and
  ``segment_sum`` (the ``REDUCTION(Y, A.rows, +)`` aggregation);
* losses — numerically-stable ``bce_with_logits`` with ``pos_weight``
  (track/non-track edges are heavily imbalanced), and the hinge-style
  pairwise losses used by the metric-learning embedding stage.

Gradient formulas are checked against central finite differences in
``tests/tensor/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .tensor import Tensor, astensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow",
    "matmul",
    "linear",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "getitem",
    "concat",
    "fan_in",
    "stack",
    "gather_rows",
    "segment_sum",
    "segment_mean",
    "gather_concat_matmul",
    "scatter_mlp_input",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "sqrt",
    "abs",
    "clip",
    "dropout",
    "layer_norm",
    "checkpoint",
    "parts",
    "softmax",
    "squared_distance",
    "bce_with_logits",
    "hinge_embedding_loss",
    "mse_loss",
]

_py_sum = sum  # keep a handle on the builtin before we shadow it

#: an index array, or the scatter plan its owner holds for it
IndexOrPlan = Union[kernels.ScatterPlan, np.ndarray]


def _segment_plan(segment_ids: IndexOrPlan, a: Tensor) -> kernels.ScatterPlan:
    """The plan of ``segment_ids``, checked to index every row of ``a``."""
    plan = kernels.ScatterPlan.of(segment_ids)
    if plan.length != a.shape[0]:
        raise ValueError(f"segment_ids length {plan.length} != rows {a.shape[0]}")
    return plan


def _column_sum(grad: np.ndarray) -> np.ndarray:
    """``grad.sum(axis=0)`` of a 2-D gradient as a BLAS gemv: numpy's
    axis-0 reduce walks the rows one strided add at a time (~6x slower
    at IGNN shapes)."""
    return np.ones(grad.shape[0], dtype=grad.dtype) @ grad


def _column_blocks(a) -> Tuple[Tensor, ...]:
    """``a`` as a tuple of column blocks: one tensor, or a tuple/list of
    tensors read in place of their concat."""
    return tuple(map(astensor, a)) if isinstance(a, (tuple, list)) else (astensor(a),)


def _row_blocks(w: np.ndarray, blocks: Sequence[Tensor]) -> list:
    """Views of ``w`` split into one row block per column block."""
    views, lo = [], 0
    for t in blocks:
        views.append(w[lo : lo + t.shape[1]])
        lo += t.shape[1]
    return views


def _blocks_matmul(blocks: Sequence[Tensor], w_blocks: Sequence[np.ndarray]) -> np.ndarray:
    """``Σᵢ blocks[i] @ w_blocks[i]``: the product of the blocks' concat
    with the stacked weight, without building the concat."""
    out = blocks[0].data @ w_blocks[0]
    for t, w_t in zip(blocks[1:], w_blocks[1:]):
        out += t.data @ w_t
    return out


def _finish_layer(out: np.ndarray, bias: Optional[Tensor], norm, relu: bool = True):
    """The tail of one MLP layer, in place on the array ``out`` its op
    owns: ``+ bias`` and, given ``norm = (gamma, beta, eps)``, layer
    normalisation over the last axis then (unless ``relu=False``) ReLU —
    inside the op's own tape node.  This is the one spelling of the
    LayerNorm arithmetic: :func:`layer_norm` is a node over the same tail.

    Returns ``(result, tail parents, pull)``; ``pull(grad)`` maps the
    node's output gradient to ``(gradient of the array handed in, the
    tail parents' gradients)``.  Under grad the node holds ``(xhat, inv,
    result)`` — the ReLU mask is ``result > 0`` — and under ``no_grad``
    nothing.
    """
    tail = ()
    if bias is not None:
        tail = (astensor(bias),)
        out += tail[0].data
    if norm is not None:
        gamma, beta = astensor(norm[0]), astensor(norm[1])
        tail += (gamma, beta)
        f = out.shape[-1]
        w = gamma.data.reshape(f)
        # Row means are BLAS gemvs against a constant vector; the variance
        # is a row dot product of the centred values (einsum: no squared
        # temporary); the centred buffer is then normalised in place.
        xhat = out.reshape(-1, f)  # one code path: N-D inputs are rows of f
        xhat -= (xhat @ np.full(f, 1.0 / f, dtype=xhat.dtype))[:, None]
        var = np.einsum("ij,ij->i", xhat, xhat)
        var *= 1.0 / f
        inv = (1.0 / np.sqrt(var + norm[2]))[:, None]
        xhat *= inv
        act = xhat * w if is_grad_enabled() else np.multiply(xhat, w, out=xhat)
        act += beta.data.reshape(f)
        if relu:
            np.maximum(act, 0, out=act)
        out = act.reshape(out.shape)

    def pull(grad: np.ndarray):
        g_norm = ()
        if norm is not None:
            grad = grad.reshape(-1, f)
            grad = grad * (act > 0) if relu else grad.copy()
            g_norm = (
                np.einsum("ij,ij->j", grad, xhat).reshape(gamma.shape),
                _column_sum(grad).reshape(beta.shape),
            )
            # Standard layer-norm backward, dx = inv * (g - mean(g) - xhat *
            # mean(g * xhat)) with g = grad * w; mean(g) comes straight from
            # ``grad`` as a gemv, all on this closure's private temporaries
            g_mean = grad @ (w / f)
            grad *= w
            proj = xhat * (np.einsum("ij,ij->i", grad, xhat) / f)[:, None]
            proj += g_mean[:, None]
            grad -= proj
            grad *= inv
            grad = grad.reshape(out.shape)
        if bias is None:
            return grad, g_norm
        return grad, (_column_sum(grad) if grad.ndim > 1 else grad,) + g_norm

    return out, tail, pull


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a + b`` with NumPy broadcasting."""
    a, b = astensor(a), astensor(b)
    out = a.data + b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

    return Tensor.from_op(out, (a, b), backward, op="add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a - b`` with NumPy broadcasting."""
    a, b = astensor(a), astensor(b)
    out = a.data - b.data

    def backward(grad: np.ndarray):
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return Tensor.from_op(out, (a, b), backward, op="sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a * b`` with NumPy broadcasting."""
    a, b = astensor(a), astensor(b)
    out = a.data * b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor.from_op(out, (a, b), backward, op="mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise ``a / b`` with NumPy broadcasting."""
    a, b = astensor(a), astensor(b)
    out = a.data / b.data

    def backward(grad: np.ndarray):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data * b.data), b.shape),
        )

    return Tensor.from_op(out, (a, b), backward, op="div")


def neg(a: Tensor) -> Tensor:
    """Elementwise negation."""
    a = astensor(a)

    def backward(grad: np.ndarray):
        return (-grad,)

    return Tensor.from_op(-a.data, (a,), backward, op="neg")


def pow(a: Tensor, exponent: float) -> Tensor:
    """Elementwise power with a constant scalar exponent."""
    a = astensor(a)
    out = a.data ** exponent

    def backward(grad: np.ndarray):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return Tensor.from_op(out, (a,), backward, op="pow")


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root."""
    a = astensor(a)
    root = np.sqrt(a.data)

    def backward(grad: np.ndarray):
        return (grad * 0.5 / root,)

    return Tensor.from_op(root, (a,), backward, op="sqrt")


def abs(a: Tensor) -> Tensor:  # noqa: A001 - mirrors numpy naming
    """Elementwise absolute value (subgradient 0 at the kink)."""
    a = astensor(a)

    def backward(grad: np.ndarray):
        return (grad * np.sign(a.data),)

    return Tensor.from_op(np.abs(a.data), (a,), backward, op="abs")


def clip(a: Tensor, lo: Optional[float], hi: Optional[float]) -> Tensor:
    """Clamp values to ``[lo, hi]``; gradient is zero outside the range."""
    a = astensor(a)
    out = np.clip(a.data, lo, hi)
    mask = np.ones_like(a.data)
    if lo is not None:
        mask = mask * (a.data >= lo)
    if hi is not None:
        mask = mask * (a.data <= hi)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor.from_op(out, (a,), backward, op="clip")


# ----------------------------------------------------------------------
# linear algebra and shape ops
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` for 1-D or 2-D operands."""
    a, b = astensor(a), astensor(b)
    out = a.data @ b.data

    def backward(grad: np.ndarray):
        ga = gb = None
        if a.ndim == 2 and b.ndim == 2:
            ga = grad @ b.data.T
            gb = a.data.T @ grad
        elif a.ndim == 1 and b.ndim == 2:
            ga = grad @ b.data.T
            gb = np.outer(a.data, grad)
        elif a.ndim == 2 and b.ndim == 1:
            ga = np.outer(grad, b.data)
            gb = a.data.T @ grad
        else:  # 1-D dot product
            ga = grad * b.data
            gb = grad * a.data
        return ga, gb

    return Tensor.from_op(out, (a, b), backward, op="matmul")


def linear(
    x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, norm=None
) -> Tensor:
    """Fused affine map ``x @ weight + bias`` as one autograd node.

    The hot-path spelling of ``add(matmul(x, w), b)``: the bias is added
    in place on the matmul output (no broadcast temporary, no extra
    staging-table entry) and its gradient is a single column sum.  With
    ``norm = (gamma, beta, eps)`` the node is the whole MLP layer
    ``relu(layer_norm(x @ weight + bias, gamma, beta, eps))``.
    """
    x, weight = astensor(x), astensor(weight)
    out, tail, pull = _finish_layer(x.data @ weight.data, bias, norm)

    def backward(grad: np.ndarray):
        grad, g_tail = pull(np.asarray(grad))
        gx = grad @ weight.data.T
        gw = x.data.T @ grad if x.ndim == 2 else np.outer(x.data, grad)
        return (gx, gw) + g_tail

    return Tensor.from_op(out, (x, weight) + tail, backward, op="linear")


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum reduction over ``axis`` (all axes if ``None``)."""
    a = astensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False) * np.ones(1, dtype=a.dtype),)

    return Tensor.from_op(out, (a,), backward, op="sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean reduction over ``axis`` (all axes if ``None``)."""
    a = astensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]

    def backward(grad: np.ndarray):
        g = np.asarray(grad) / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(ax % a.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape) * np.ones(1, dtype=a.dtype),)

    return Tensor.from_op(out, (a,), backward, op="mean")


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """Reshape; gradient reshapes back."""
    a = astensor(a)
    out = a.data.reshape(shape)

    def backward(grad: np.ndarray):
        return (grad.reshape(a.shape),)

    return Tensor.from_op(out, (a,), backward, op="reshape")


def transpose(a: Tensor) -> Tensor:
    """2-D transpose; gradient transposes back."""
    a = astensor(a)

    def backward(grad: np.ndarray):
        return (grad.T,)

    return Tensor.from_op(a.data.T, (a,), backward, op="transpose")


def getitem(a: Tensor, idx) -> Tensor:
    """Basic and fancy indexing; gradient scatter-adds into the source."""
    a = astensor(a)
    out = a.data[idx]

    def backward(grad: np.ndarray):
        if (
            isinstance(idx, np.ndarray)
            and idx.ndim == 1
            and np.issubdtype(idx.dtype, np.integer)
            and a.ndim >= 1
        ):
            plan = kernels.ScatterPlan(idx)
            if plan.lo >= 0:
                # Row gather: use the segment-reduce kernel instead of the
                # per-row ufunc dispatch of ``np.add.at``.
                return (kernels.scatter_add_rows(np.asarray(grad), plan, a.shape[0]),)
        g = np.zeros_like(a.data)
        np.add.at(g, idx, grad)
        return (g,)

    return Tensor.from_op(out, (a,), backward, op="getitem")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis``; gradient splits back per input.

    This is the workhorse of Algorithm 1: messages are built as
    ``concat([Y, X[A.rows], X[A.cols]], axis=1)`` and vertex updates as
    ``concat([M_src, M_dst, X], axis=1)``.
    """
    tensors = [astensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % out.ndim
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        grads = []
        slicer: list = [slice(None)] * grad.ndim
        for i in range(len(tensors)):
            slicer[ax] = slice(offsets[i], offsets[i + 1])
            grads.append(grad[tuple(slicer)])
        return tuple(grads)

    return Tensor.from_op(out, tensors, backward, op="concat")


def fan_in(a: Tensor) -> Tensor:
    """``a`` itself — same array, no copy — as one tape node of its own.

    The node's consumers' gradients meet in its staging slot, so they are
    summed together before the total reaches ``a``: ``a`` receives one
    contribution per fan-in, whatever else reads it.  The IGNN routes a
    block's two uses of ``Xˡ`` and of ``X⁰`` through one each, the
    association an :func:`checkpoint` block's input gets.  With nothing
    to record (``no_grad``, or ``a`` needs no gradient) it returns ``a``.
    """
    a = astensor(a)
    if not (a.requires_grad and is_grad_enabled()):
        return a

    def backward(grad: np.ndarray):
        return (grad,)

    return Tensor.from_op(a.data, (a,), backward, op="fan_in")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis; gradient unstacks."""
    tensors = [astensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)
    ax = axis % out.ndim

    def backward(grad: np.ndarray):
        return tuple(np.take(grad, i, axis=ax) for i in range(len(tensors)))

    return Tensor.from_op(out, tensors, backward, op="stack")


# ----------------------------------------------------------------------
# graph ops — the MSG / AGG primitives of Algorithm 1
# ----------------------------------------------------------------------
def gather_rows(a: Tensor, index: IndexOrPlan) -> Tensor:
    """Row gather ``a[index]`` (``X[A.rows]`` in Algorithm 1).

    Parameters
    ----------
    a:
        ``(n, f)`` feature matrix.
    index:
        Integer array of row indices, one per edge, or its
        :class:`~repro.tensor.kernels.ScatterPlan`.  Indices may repeat;
        the gradient scatter-adds duplicate rows.
    """
    a = astensor(a)
    plan = kernels.ScatterPlan.of(index)
    out = a.data[plan.index]

    def backward(grad: np.ndarray):
        if plan.lo < 0:  # Python-style negative ids: numpy wrap semantics
            g = np.zeros_like(a.data)
            np.add.at(g, plan.index, grad)
            return (g,)
        return (kernels.scatter_add_rows(np.asarray(grad), plan, a.shape[0]),)

    return Tensor.from_op(out, (a,), backward, op="gather_rows")


def segment_sum(a: Tensor, segment_ids: IndexOrPlan, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets by ``segment_ids``.

    This is the ``REDUCTION(Y, A.rows, +)`` aggregation of Algorithm 1: each
    vertex sums the messages on its incident edges.  The gradient of a
    segment sum is a row gather.

    Parameters
    ----------
    a:
        ``(m, f)`` per-edge message matrix.
    segment_ids:
        ``(m,)`` vertex index per edge, or its
        :class:`~repro.tensor.kernels.ScatterPlan`.
    num_segments:
        Number of output rows (vertex count).
    """
    a = astensor(a)
    plan = _segment_plan(segment_ids, a)
    out = kernels.scatter_add_rows(a.data, plan, num_segments)

    def backward(grad: np.ndarray):
        return (kernels.gather_rows_out(np.asarray(grad), plan),)

    return Tensor.from_op(out, (a,), backward, op="segment_sum")


def segment_mean(a: Tensor, segment_ids: IndexOrPlan, num_segments: int) -> Tensor:
    """Mean-aggregate rows per segment; empty segments yield zero rows.

    Fused: the per-segment counts come from the incidence operator of
    ``segment_ids`` (an index array or its plan) and the division happens
    in place on the freshly reduced sums — no dense ``(n, 1)`` divisor
    array and no extra autograd node for the division.
    """
    a = astensor(a)
    plan = _segment_plan(segment_ids, a)
    out = kernels.scatter_add_rows(a.data, plan, num_segments)
    counts = np.diff(plan.operator(num_segments, a.dtype).indptr)
    # Empty segments keep a zero row: 0 / max(0, 1) == 0.
    safe = np.maximum(counts, 1).astype(a.dtype)
    safe_col = safe.reshape((num_segments,) + (1,) * (a.ndim - 1))
    out /= safe_col

    def backward(grad: np.ndarray):
        scaled = np.asarray(grad) / safe_col
        return (kernels.gather_rows_out(scaled, plan),)

    return Tensor.from_op(out, (a,), backward, op="segment_mean")


def gather_concat_matmul(
    y: Union[Tensor, Sequence[Tensor]],
    x: Union[Tensor, Sequence[Tensor]],
    rows: IndexOrPlan,
    cols: IndexOrPlan,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    norm=None,
) -> Tensor:
    """Fused MSG-step input: ``concat([y, x[rows], x[cols]], 1) @ W + b``.

    Algebraically identical to gather → concat → first ``Linear`` of the
    edge MLP, but splits ``W`` into its ``y``/``rows``/``cols`` blocks and
    multiplies **before** gathering: with ``n`` vertices and ``m ≫ n``
    edges, ``x @ W_block`` costs ``n·f·h`` instead of gathering two
    ``(m, f)`` copies of ``x`` and paying ``m·f·h`` twice.  Neither the
    gathered rows nor the ``(m, 2f+e)`` concat buffer is ever
    materialised, and the backward pass reduces the output gradient once
    per endpoint (sorted segment reduce) instead of scatter-adding
    ``(m, f)`` intermediates.

    Parameters
    ----------
    y:
        ``(m, e)`` per-edge features (``y_res`` in Algorithm 1), or a tuple
        of column blocks read in place of their concat (the IGNN's
        ``(Yˡ, Y⁰)``), each against its own row block of ``W_y``, in order.
    x:
        ``(n, f)`` per-vertex features (``x_res``), or a tuple of column
        blocks (the IGNN's ``(Xˡ, X⁰)``), read in place like ``y``: each
        against its own row block of ``W_r`` and of ``W_c``.
    rows, cols:
        ``(m,)`` edge endpoint indices into ``x``, or their
        :class:`~repro.tensor.kernels.ScatterPlan` values.
    weight:
        ``(e + 2f, h)`` first-layer weight, laid out ``[W_y; W_r; W_c]``
        to match the ``concat([y, x[rows], x[cols]])`` column order.
    bias:
        Optional ``(h,)`` first-layer bias.
    norm:
        Optional ``(gamma, beta, eps)``: the first layer's LayerNorm →
        ReLU, applied inside this node (see :func:`linear`).
    """
    ys, xs, weight = _column_blocks(y), _column_blocks(x), astensor(weight)
    rows, cols = kernels.ScatterPlan.of(rows), kernels.ScatterPlan.of(cols)
    e, f = (_py_sum(t.shape[1] for t in blocks) for blocks in (ys, xs))
    if weight.shape[0] != e + 2 * f:
        raise ValueError(
            f"weight rows {weight.shape[0]} != edge_dim + 2*node_dim = {e + 2 * f}"
        )
    w = weight.data
    w_ys = _row_blocks(w[:e], ys)
    w_rs, w_cs = _row_blocks(w[e : e + f], xs), _row_blocks(w[e + f :], xs)

    out = _blocks_matmul(ys, w_ys)
    scratch = kernels.gather_rows_out(_blocks_matmul(xs, w_rs), rows)
    out += scratch
    out += kernels.gather_rows_out(_blocks_matmul(xs, w_cs), cols, out=scratch)
    out, tail, pull = _finish_layer(out, bias, norm)

    def backward(grad: np.ndarray):
        grad, g_tail = pull(np.asarray(grad))
        n = xs[0].shape[0]
        # Per-endpoint reductions of the output gradient (h columns).
        g_r = kernels.scatter_add_rows(grad, rows, n)
        g_c = kernels.scatter_add_rows(grad, cols, n)
        g_w = np.empty_like(w)
        for t, g_t in zip(ys, _row_blocks(g_w[:e], ys)):
            g_t[...] = t.data.T @ grad
        for g_blocks, g_end in ((g_w[e : e + f], g_r), (g_w[e + f :], g_c)):
            for t, g_t in zip(xs, _row_blocks(g_blocks, xs)):
                g_t[...] = t.data.T @ g_end
        g_ys = tuple(grad @ w_t.T for w_t in w_ys)
        g_xs = []
        for w_r, w_c in zip(w_rs, w_cs):
            g_x = g_r @ w_r.T
            g_x += g_c @ w_c.T
            g_xs.append(g_x)
        return g_ys + tuple(g_xs) + (g_w,) + g_tail

    return Tensor.from_op(
        out, ys + xs + (weight,) + tail, backward, op="gather_concat_matmul"
    )


def scatter_mlp_input(
    messages: Tensor,
    rows: IndexOrPlan,
    cols: IndexOrPlan,
    x: Union[Tensor, Sequence[Tensor]],
    weight: Tensor,
    bias: Optional[Tensor] = None,
    num_segments: Optional[int] = None,
    norm=None,
) -> Tensor:
    """Fused AGG-step input:
    ``concat([seg_sum(msg, rows), seg_sum(msg, cols), x], 1) @ W + b``.

    The vertex-update twin of :func:`gather_concat_matmul`: both incident
    message aggregations and the concat with the vertex state feed the
    node MLP's first ``Linear`` without materialising the ``(n, 2h+f)``
    concat buffer.  The backward pass pushes the output gradient through
    the weight blocks at vertex granularity (``n`` rows) and gathers to
    edge granularity (``m`` rows) once, instead of twice via separate
    ``segment_sum`` backward passes.

    Parameters
    ----------
    messages:
        ``(m, h)`` per-edge messages (edge-MLP output).
    rows, cols:
        ``(m,)`` edge endpoint indices, or their
        :class:`~repro.tensor.kernels.ScatterPlan` values.
    x:
        ``(n, f)`` per-vertex features (``x_res``), or a tuple of column
        blocks read in place of their concat (the IGNN's ``(Xˡ, X⁰)``),
        each against its own row block of ``W_x``.
    weight:
        ``(2h + f, k)`` first-layer weight, laid out ``[W_src; W_dst; W_x]``
        to match ``concat([m_src, m_dst, x])``.
    bias:
        Optional ``(k,)`` first-layer bias.
    num_segments:
        Vertex count ``n``; defaults to ``x.shape[0]``.
    norm:
        Optional ``(gamma, beta, eps)``, as in :func:`gather_concat_matmul`.
    """
    messages, xs, weight = astensor(messages), _column_blocks(x), astensor(weight)
    rows, cols = kernels.ScatterPlan.of(rows), kernels.ScatterPlan.of(cols)
    h, f = messages.shape[1], _py_sum(t.shape[1] for t in xs)
    n = xs[0].shape[0] if num_segments is None else int(num_segments)
    if any(t.shape[0] != n for t in xs):
        raise ValueError(f"x rows {xs[0].shape[0]} != num_segments {n}")
    if weight.shape[0] != 2 * h + f:
        raise ValueError(
            f"weight rows {weight.shape[0]} != 2*msg_dim + node_dim = {2 * h + f}"
        )
    w = weight.data
    w_s, w_d, w_xs = w[:h], w[h : 2 * h], _row_blocks(w[2 * h :], xs)

    m_src = kernels.scatter_add_rows(messages.data, rows, n)
    m_dst = kernels.scatter_add_rows(messages.data, cols, n)
    out = m_src @ w_s
    out += m_dst @ w_d
    out += _blocks_matmul(xs, w_xs)
    out, tail, pull = _finish_layer(out, bias, norm)

    def backward(grad: np.ndarray):
        grad, g_tail = pull(np.asarray(grad))
        # (n, h) gradients w.r.t. m_src / m_dst, gathered to the edges
        g_msg = kernels.gather_rows_out(grad @ w_s.T, rows)
        g_msg += kernels.gather_rows_out(grad @ w_d.T, cols)
        g_xs = tuple(grad @ w_x.T for w_x in w_xs)
        g_w = np.empty_like(w)
        g_w[:h] = m_src.T @ grad
        g_w[h : 2 * h] = m_dst.T @ grad
        for t, g_t in zip(xs, _row_blocks(g_w[2 * h :], xs)):
            g_t[...] = t.data.T @ grad
        return (g_msg,) + g_xs + (g_w,) + g_tail

    return Tensor.from_op(
        out, (messages,) + xs + (weight,) + tail, backward, op="scatter_mlp_input"
    )


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    """Rectified linear unit."""
    a = astensor(a)
    out = np.maximum(a.data, 0)

    def backward(grad: np.ndarray):
        return (grad * (a.data > 0),)

    return Tensor.from_op(out, (a,), backward, op="relu")


def leaky_relu(a: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    a = astensor(a)
    out = np.where(a.data > 0, a.data, negative_slope * a.data)

    def backward(grad: np.ndarray):
        return (grad * np.where(a.data > 0, 1.0, negative_slope).astype(a.dtype),)

    return Tensor.from_op(out, (a,), backward, op="leaky_relu")


def tanh(a: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    a = astensor(a)
    out = np.tanh(a.data)

    def backward(grad: np.ndarray):
        return (grad * (1.0 - out * out),)

    return Tensor.from_op(out, (a,), backward, op="tanh")


def sigmoid(a: Tensor) -> Tensor:
    """Logistic sigmoid, computed stably for large |x|."""
    a = astensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.clip(x, 0, None))),
                   np.exp(np.clip(x, None, 0)) / (1.0 + np.exp(np.clip(x, None, 0))))
    out = out.astype(a.dtype, copy=False)

    def backward(grad: np.ndarray):
        return (grad * out * (1.0 - out),)

    return Tensor.from_op(out, (a,), backward, op="sigmoid")


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    a = astensor(a)
    out = np.exp(a.data)

    def backward(grad: np.ndarray):
        return (grad * out,)

    return Tensor.from_op(out, (a,), backward, op="exp")


def log(a: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    a = astensor(a)

    def backward(grad: np.ndarray):
        return (grad / a.data,)

    return Tensor.from_op(np.log(a.data), (a,), backward, op="log")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    a = astensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return Tensor.from_op(out, (a,), backward, op="softmax")


# ----------------------------------------------------------------------
# regularisation / normalisation
# ----------------------------------------------------------------------
def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale by ``1/(1-p)``.

    A no-op when ``training`` is False or ``p == 0``.
    """
    a = astensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p <= 0.0:
        return a
    keep = (rng.random(a.shape) >= p).astype(a.dtype)
    scale = 1.0 / (1.0 - p)
    out = a.data * keep * scale

    def backward(grad: np.ndarray):
        return (grad * keep * scale,)

    return Tensor.from_op(out, (a,), backward, op="dropout")


def layer_norm(a: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with learned affine transform.

    The acorn IGNN applies layer-norm inside each MLP; we match that so the
    8-layer network trains stably at hidden dim 64.
    """
    a = astensor(a)
    out, tail, pull = _finish_layer(a.data.copy(), None, (weight, bias, eps), relu=False)

    def backward(grad: np.ndarray):
        grad, g_tail = pull(np.asarray(grad))
        return (grad,) + g_tail

    return Tensor.from_op(out, (a,) + tail, backward, op="layer_norm")


# ----------------------------------------------------------------------
# activation recompute
# ----------------------------------------------------------------------
def checkpoint(fn: Callable[..., object], *inputs: Tensor):
    """``fn(*inputs)`` without keeping its interior activations
    (``torch.utils.checkpoint`` for this engine).

    The forward runs ``fn`` under :func:`no_grad` and keeps only the
    inputs; the backward re-runs it on fresh leaves and differentiates
    that second graph, which is freed before the next node's turn.
    Parameters ``fn`` closes over are not parents of the result: they
    receive their gradients during the recomputation, whether or not any
    input requires one.  ``fn`` must be deterministic and return a tensor
    or a tuple of tensors of one dtype; all outputs are packed into one
    tape node, so one recomputation serves every output.
    """
    inputs = tuple(astensor(t) for t in inputs)
    if not is_grad_enabled():
        return fn(*inputs)

    def pack(outs) -> Tensor:
        outs = (outs,) if isinstance(outs, Tensor) else outs
        return concat([reshape(o, (-1,)) for o in outs], axis=0)

    with no_grad():
        outs = fn(*(t.detach() for t in inputs))
        flat = pack(outs).data

    def backward(grad: np.ndarray):
        leaves = [Tensor(t.data, requires_grad=t.requires_grad) for t in inputs]
        root = pack(fn(*leaves))
        if root.requires_grad:
            root.backward(grad)
        return tuple(leaf.grad for leaf in leaves)

    node = Tensor.from_op(flat, inputs, backward, op="checkpoint", always=True)

    def unpack(lo: int, shape: Tuple[int, ...]) -> Tensor:
        # a view of the packed node (not getitem: its slice backward is an
        # np.add.at, ~40x the cost of this assignment)
        hi = lo + int(np.prod(shape))

        def backward(grad: np.ndarray):
            g = np.zeros_like(flat)
            g[lo:hi] = grad.reshape(-1)
            return (g,)

        return Tensor.from_op(flat[lo:hi].reshape(shape), (node,), backward, op="unpack")

    if isinstance(outs, Tensor):
        return unpack(0, outs.shape)
    offsets = np.cumsum([0] + [o.size for o in outs])
    return tuple(unpack(int(lo), o.shape) for lo, o in zip(offsets, outs))


def parts(outs: Sequence[Tensor], lanes: Callable) -> Tensor:
    """The outputs of independent passes, concatenated along axis 0 as one
    tape node whose backward walks each pass's own tape.

    ``outs`` share leaves (the parameters) but no interior node.  The
    backward seeds each output with its rows of the gradient and runs one
    nested :meth:`Tensor.backward` per output through ``lanes`` (``map``,
    or an order-preserving parallel map such as
    :func:`repro._per_event.per_event`), each staging its leaf gradients
    in a dict of its own.  It then adds them into ``.grad`` output by
    output, in order: no two walks write one ``.grad``, and the sums are
    the same whatever ``lanes`` ran them on.  The outputs are not the
    node's parents, so the outer walk never reaches their tapes; as in
    :func:`checkpoint`, the node records itself.
    """
    outs = [astensor(o) for o in outs]
    bounds = np.cumsum([0] + [o.shape[0] for o in outs])

    def backward(grad: np.ndarray):
        def walk(out: Tensor, lo: int, hi: int) -> dict:
            staged: dict = {}
            if out.requires_grad:
                out.backward(grad[lo:hi], into=staged)
            return staged

        for staged in lanes(walk, outs, bounds[:-1], bounds[1:]):
            for leaf, g in staged.items():
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)
                leaf.grad += g
        return ()

    return Tensor.from_op(
        np.concatenate([o.data for o in outs]), (), backward, op="parts",
        always=any(o.requires_grad for o in outs),
    )


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def bce_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    pos_weight: Optional[float] = None,
    reduction: str = "mean",
) -> Tensor:
    """Binary cross-entropy on logits, numerically stable.

    Implements the standard fused form
    ``max(x, 0) - x t + log(1 + exp(-|x|))`` with an optional positive-class
    weight.  Track edges are a small fraction of all candidate edges, so the
    GNN stage trains with ``pos_weight > 1`` exactly as acorn does.

    Parameters
    ----------
    logits:
        ``(m,)`` raw scores.
    targets:
        ``(m,)`` binary labels (0/1), **not** differentiated.
    pos_weight:
        Multiplier on the positive-class term; ``None`` means 1.
    reduction:
        ``"mean"``, ``"sum"``, or ``"none"``.
    """
    logits = astensor(logits)
    t = np.asarray(targets, dtype=logits.dtype)
    x = logits.data
    w = 1.0 if pos_weight is None else float(pos_weight)
    # per-element weight: w on positives, 1 on negatives
    coeff = 1.0 + (w - 1.0) * t
    # With pos_weight the loss is -[w t log s + (1-t) log(1-s)]; expand via
    # the stable log-sigmoid identities (both share one softplus(-|x|)).
    softplus_neg_abs = np.log1p(np.exp(-np.abs(x)))
    log_sig = -(np.maximum(-x, 0) + softplus_neg_abs)       # log σ(x)
    log_one_minus = -(np.maximum(x, 0) + softplus_neg_abs)  # log (1-σ(x))
    loss = -(w * t * log_sig + (1.0 - t) * log_one_minus)

    sig = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))

    if reduction == "mean":
        scale = 1.0 / x.size
        out = np.asarray(loss.mean(), dtype=x.dtype)
    elif reduction == "sum":
        scale = 1.0
        out = np.asarray(loss.sum(), dtype=x.dtype)
    elif reduction == "none":
        scale = None
        out = loss.astype(x.dtype, copy=False)
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(grad: np.ndarray):
        # d/dx of -[w t log σ + (1-t) log(1-σ)] = (w t + 1 - t) σ - w t
        local = coeff * sig - w * t
        if scale is None:
            g = grad * local
        else:
            g = float(grad) * scale * local
        return (g.astype(x.dtype, copy=False),)

    return Tensor.from_op(out, (logits,), backward, op="bce_with_logits")


def mse_loss(pred: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean-squared error against a constant target."""
    pred = astensor(pred)
    t = np.asarray(target, dtype=pred.dtype)
    diff = pred - Tensor(t)
    sq = mul(diff, diff)
    if reduction == "mean":
        return mean(sq)
    if reduction == "sum":
        return sum(sq)
    return sq


def squared_distance(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise squared Euclidean distance between two (m, f) matrices."""
    d = sub(a, b)
    return sum(mul(d, d), axis=-1)


def hinge_embedding_loss(
    dist_sq: Tensor,
    labels: np.ndarray,
    margin: float = 1.0,
    reduction: str = "mean",
) -> Tensor:
    """Metric-learning hinge loss used by the embedding stage.

    For pairs labelled positive (same particle) the loss pulls the squared
    distance toward zero; for negative pairs it pushes the *distance*
    beyond ``margin``:

    ``L = y * d^2 + (1 - y) * max(0, margin - d)^2``

    Parameters
    ----------
    dist_sq:
        ``(m,)`` squared distances between embedded hit pairs.
    labels:
        ``(m,)`` binary pair labels.
    margin:
        Repulsion margin for negative pairs.
    """
    dist_sq = astensor(dist_sq)
    y = np.asarray(labels, dtype=dist_sq.dtype)
    eps = 1e-12
    d = sqrt(clip(dist_sq, eps, None))
    pos_term = mul(Tensor(y), dist_sq)
    hinge = clip(sub(Tensor(np.full_like(y, margin)), d), 0.0, None)
    neg_term = mul(Tensor(1.0 - y), mul(hinge, hinge))
    total = add(pos_term, neg_term)
    if reduction == "mean":
        return mean(total)
    if reduction == "sum":
        return sum(total)
    return total
