"""``ops.checkpoint``: recompute-on-backward is the same function."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck, no_grad, ops


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def t64(rng, *shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def block(w):
    """A two-output function closing over ``w`` (the IGNN block's shape:
    two states in, two states out, the second output feeding the first)."""

    def fn(a, b):
        b_next = ops.tanh(ops.matmul(ops.concat([a, b], axis=1), w))
        return ops.mul(a, ops.sum(b_next, axis=1, keepdims=True)), b_next

    return fn


def scalar(a_out, b_out):
    return ops.add(ops.sum(ops.pow(a_out, 2.0)), ops.sum(ops.mul(b_out, b_out)))


class TestCheckpointGradients:
    def test_gradcheck_two_outputs_float64(self, rng):
        a, b, w = t64(rng, 5, 3), t64(rng, 5, 2), t64(rng, 5, 2)
        gradcheck(
            lambda a, b, w: scalar(*ops.checkpoint(block(w), a, b)), [a, b, w]
        )

    def test_matches_the_plain_graph_to_rounding(self, rng):
        """Same sums, possibly associated differently: a tensor with three
        or more gradient contributions may see them added in another order
        (the fused IGNN has none — see tests/models/test_checkpointing.py)."""
        grads = {}
        for recompute in (False, True):
            r = np.random.default_rng(1)
            a, b, w = t64(r, 7, 3), t64(r, 7, 2), t64(r, 5, 2)
            outs = ops.checkpoint(block(w), a, b) if recompute else block(w)(a, b)
            scalar(*outs).backward()
            grads[recompute] = [t.grad for t in (a, b, w)]
        for plain, recomputed in zip(grads[False], grads[True]):
            np.testing.assert_allclose(recomputed, plain, rtol=1e-13, atol=1e-13)

    def test_chained_blocks_and_a_dead_output(self, rng):
        """Two checkpointed blocks in a row, the last block's first output
        unused — the IGNN's dead final vertex update."""
        a, b, w1, w2 = t64(rng, 4, 3), t64(rng, 4, 2), t64(rng, 5, 2), t64(rng, 5, 2)

        def f(a, b, w1, w2):
            a1, b1 = ops.checkpoint(block(w1), a, b)
            _, b2 = ops.checkpoint(block(w2), a1, b1)
            return ops.sum(ops.mul(b2, b2))

        gradcheck(f, [a, b, w1, w2])

    def test_single_output_returns_a_tensor(self, rng):
        a, w = t64(rng, 4, 3), t64(rng, 3, 2)
        out = ops.checkpoint(lambda a: ops.tanh(ops.matmul(a, w)), a)
        assert isinstance(out, Tensor) and out.shape == (4, 2)
        gradcheck(
            lambda a, w: ops.sum(ops.checkpoint(lambda a: ops.tanh(ops.matmul(a, w)), a)),
            [a, w],
        )


class TestClosedOverParameters:
    def test_parameter_gets_its_gradient_when_no_input_requires_grad(self, rng):
        """The inputs are raw data, the only trainable tensor is closed
        over: its gradient must not be dropped."""
        a = t64(rng, 6, 3, requires_grad=False)
        b = t64(rng, 6, 2, requires_grad=False)
        w_plain = t64(rng, 5, 2)
        w_ck = Tensor(w_plain.data.copy(), requires_grad=True)
        scalar(*block(w_plain)(a, b)).backward()
        scalar(*ops.checkpoint(block(w_ck), a, b)).backward()
        assert w_ck.grad is not None
        np.testing.assert_allclose(w_ck.grad, w_plain.grad, rtol=1e-13, atol=1e-13)
        assert a.grad is None and b.grad is None

    def test_nothing_trainable_anywhere_is_harmless(self, rng):
        a = t64(rng, 3, 3, requires_grad=False)
        b = t64(rng, 3, 2, requires_grad=False)
        w = t64(rng, 5, 2, requires_grad=False)
        scalar(*ops.checkpoint(block(w), a, b)).backward()
        assert a.grad is None and b.grad is None and w.grad is None


class TestCheckpointForward:
    def test_runs_fn_once_forward_and_once_backward(self, rng):
        a, b, w = t64(rng, 4, 3), t64(rng, 4, 2), t64(rng, 5, 2)
        calls = []
        inner = block(w)

        def counted(a, b):
            calls.append(1)
            return inner(a, b)

        outs = ops.checkpoint(counted, a, b)
        assert len(calls) == 1
        # the forward recorded one node over the inputs, not fn's interior
        assert all(o._parents[0]._parents == (a, b) for o in outs)
        scalar(*outs).backward()
        assert len(calls) == 2  # one recomputation serves both outputs

    def test_values_equal_the_plain_call(self, rng):
        a, b, w = t64(rng, 4, 3), t64(rng, 4, 2), t64(rng, 5, 2)
        for plain, ck in zip(block(w)(a, b), ops.checkpoint(block(w), a, b)):
            assert np.array_equal(plain.data, ck.data)
            assert ck.dtype == np.float64

    def test_no_grad_is_a_plain_call(self, rng):
        a, b, w = t64(rng, 4, 3), t64(rng, 4, 2), t64(rng, 5, 2)
        with no_grad():
            outs = ops.checkpoint(block(w), a, b)
        assert all(not o.requires_grad and o.is_leaf for o in outs)
