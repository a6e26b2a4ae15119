"""Tensor container semantics: construction, grads, no_grad, backward."""

import weakref

import numpy as np
import pytest

from repro.tensor import DEFAULT_DTYPE, Tensor, astensor, is_grad_enabled, no_grad, ops


class TestConstruction:
    def test_float_list_uses_default_dtype(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.dtype == DEFAULT_DTYPE

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_integer_tensor_allowed(self):
        t = Tensor(np.arange(5))
        assert np.issubdtype(t.dtype, np.integer)

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(ValueError):
            Tensor(np.arange(5), requires_grad=True)

    def test_shape_size_ndim_len(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.size == 12
        assert t.ndim == 2
        assert len(t) == 3

    def test_zeros_ones_helpers(self):
        assert np.all(Tensor.zeros(2, 3).numpy() == 0)
        assert np.all(Tensor.ones(2, 3).numpy() == 1)

    def test_astensor_passthrough(self):
        t = Tensor([1.0])
        assert astensor(t) is t

    def test_repr_mentions_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad=True" in repr(t)


class TestBackward:
    def test_scalar_backward_seeds_one(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = ops.sum(ops.mul(x, x))
        y.backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_grad(self):
        x = Tensor(np.array([1.0]))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_nonscalar_backward_needs_seed(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ops.mul(x, x)
        with pytest.raises(RuntimeError):
            y.backward()

    def test_nonscalar_backward_with_seed(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = ops.mul(x, x)
        y.backward(np.array([1.0, 1.0]))
        assert np.allclose(x.grad, [2.0, 4.0])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        for _ in range(3):
            ops.sum(x).backward()
        assert np.allclose(x.grad, [3.0])

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        ops.sum(x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x: grad should be 4x
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = ops.mul(x, x)
        b = ops.mul(x, x)
        ops.sum(ops.add(a, b)).backward()
        assert np.allclose(x.grad, [12.0])

    def test_shared_subexpression(self):
        # z = (x+1); y = z*z → dy/dx = 2(x+1)
        x = Tensor(np.array([2.0]), requires_grad=True)
        z = ops.add(x, Tensor(np.array([1.0])))
        ops.sum(ops.mul(z, z)).backward()
        assert np.allclose(x.grad, [6.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = ops.add(y, Tensor(np.array([0.001])))
        ops.sum(y).backward()
        assert np.allclose(x.grad, [1.0])

    def test_interior_nodes_keep_no_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        h = ops.mul(x, x)
        ops.sum(h).backward()
        assert h.grad is None  # only leaves accumulate
        assert x.grad is not None


def _saved(backward, name):
    """The array a backward closure saved as ``name``, looked up through
    the closures it nests (``linear`` → its layer tail's ``pull``)."""
    cells = dict(zip(backward.__code__.co_freevars, backward.__closure__))
    if name in cells:
        return cells[name].cell_contents
    return _saved(cells["pull"].cell_contents, name)


class TestBackwardConsumesTheGraph:
    """``backward()`` frees the graph as it walks it (PyTorch's default
    ``retain_graph=False``): a node's saved arrays die once the node is
    differentiated, and the graph cannot be walked a second time."""

    @staticmethod
    def layer(rng):
        x, w, b, gamma, beta = (
            Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
            for s in ((5, 4), (4, 3), (3,), (3,), (3,))
        )
        hidden = ops.linear(x, w, b, norm=(gamma, beta, 1e-5))
        return (x, w, b, gamma, beta), hidden

    def test_a_saved_activation_is_gone_when_backward_returns(self):
        leaves, hidden = self.layer(np.random.default_rng(0))
        loss = ops.sum(ops.tanh(hidden))
        xhat = weakref.ref(_saved(hidden._backward, "xhat"))
        del hidden
        assert xhat() is not None  # the tape holds LayerNorm's xhat ...
        loss.backward()
        assert xhat() is None  # ... until backward has used it
        assert all(p.grad is not None for p in leaves)

    def test_tensors_the_caller_holds_keep_their_data(self):
        leaves, hidden = self.layer(np.random.default_rng(1))
        loss = ops.sum(ops.mul(hidden, hidden))
        before = [t.data.copy() for t in leaves + (hidden, loss)]
        loss.backward()
        for t, data in zip(leaves + (hidden, loss), before):
            assert np.array_equal(t.data, data)
        assert not hidden.is_leaf and hidden.requires_grad and hidden.grad is None

    def test_a_second_backward_through_a_consumed_graph_raises(self):
        leaves, hidden = self.layer(np.random.default_rng(2))
        loss = ops.sum(hidden)
        loss.backward()
        first = [p.grad.copy() for p in leaves]
        with pytest.raises(RuntimeError, match="already consumed"):
            loss.backward()
        with pytest.raises(RuntimeError, match="already consumed"):
            ops.sum(ops.mul(hidden, 2.0)).backward()  # a new root, a consumed interior
        for p, g in zip(leaves, first):  # the refused walks added nothing
            assert np.array_equal(p.grad, g)

    @pytest.mark.parametrize("combine", ["c1+(c2+c3)", "(c3+c1)+c2", "(c2+c1)+c3"])
    def test_contributions_are_summed_newest_consumer_first(self, combine):
        """A tensor's gradient contributions are added in the reverse of
        the order its consumers were recorded, whatever the graph's shape:
        ``(g3 + g2) + g1``, which float32 tells apart from any other order."""
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        c1, c2, c3 = (ops.mul(x, Tensor(np.float32([k]))) for k in (1.0, -1e8, 1e8))
        if combine == "c1+(c2+c3)":
            total = ops.add(c1, ops.add(c2, c3))
        elif combine == "(c3+c1)+c2":
            total = ops.add(ops.add(c3, c1), c2)
        else:
            total = ops.add(ops.add(c2, c1), c3)
        ops.sum(total).backward()
        assert x.grad.tolist() == [1.0]  # (1e8 - 1e8) + 1, not (1 - 1e8) + 1e8 = 0


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_no_grad_is_reentrant(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        """Overlapping scopes from concurrent threads (the serving worker
        pool runs inference under ``no_grad`` per batch) must not leak:
        an out-of-order exit must neither re-enable recording inside
        another thread's live scope nor leave grad disabled process-wide."""
        import threading

        entered_b = threading.Event()
        release_b = threading.Event()
        b_state = {}

        def hold_scope():
            with no_grad():
                entered_b.set()
                release_b.wait(timeout=10.0)
                b_state["disabled_inside"] = not is_grad_enabled()
            b_state["enabled_after"] = is_grad_enabled()

        with no_grad():
            worker = threading.Thread(target=hold_scope)
            worker.start()
            assert entered_b.wait(timeout=10.0)
        assert is_grad_enabled()  # A's exit restores A's thread...
        release_b.set()
        worker.join(timeout=10.0)
        # ...without touching B's scope, and nothing leaks afterwards.
        assert b_state == {"disabled_inside": True, "enabled_after": True}
        assert is_grad_enabled()

    def test_detach_breaks_graph(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = ops.mul(x, x).detach()
        assert not y.requires_grad


class TestOperatorSugar:
    def test_arithmetic_operators(self):
        a = Tensor(np.array([4.0]))
        b = Tensor(np.array([2.0]))
        assert np.allclose((a + b).numpy(), [6.0])
        assert np.allclose((a - b).numpy(), [2.0])
        assert np.allclose((a * b).numpy(), [8.0])
        assert np.allclose((a / b).numpy(), [2.0])
        assert np.allclose((-a).numpy(), [-4.0])
        assert np.allclose((a ** 2).numpy(), [16.0])

    def test_scalar_radd_rmul(self):
        a = Tensor(np.array([3.0]))
        assert np.allclose((1.0 + a).numpy(), [4.0])
        assert np.allclose((2.0 * a).numpy(), [6.0])
        assert np.allclose((1.0 - a).numpy(), [-2.0])
        assert np.allclose((6.0 / a).numpy(), [2.0])

    def test_matmul_operator(self):
        a = Tensor(np.eye(3, dtype=np.float32))
        b = Tensor(np.arange(9, dtype=np.float32).reshape(3, 3))
        assert np.allclose((a @ b).numpy(), b.numpy())

    def test_transpose_property(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert a.T.shape == (3, 2)

    def test_getitem(self):
        a = Tensor(np.arange(10, dtype=np.float32))
        assert np.allclose(a[2:5].numpy(), [2, 3, 4])

    def test_item_on_scalar(self):
        assert ops.sum(Tensor(np.array([1.5, 2.5]))).item() == pytest.approx(4.0)
