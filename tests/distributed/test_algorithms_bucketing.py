"""Alternative all-reduce algorithms and their cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed import (
    NVLINK_A100,
    halving_doubling_allreduce,
    halving_doubling_time,
    tree_allreduce,
    tree_time,
)
from repro.models import IGNNConfig, InteractionGNN

finite = st.floats(-100, 100, allow_nan=False, width=32)


def paper_scale_gradient_sizes():
    """Bytes per gradient tensor of the paper's IGNN (hidden 64, 8 layers)."""
    model = InteractionGNN(IGNNConfig(6, 2, hidden=64, num_layers=8, mlp_layers=2))
    return [p.size * 4 for p in model.parameters()]


class TestHalvingDoubling:
    @given(st.sampled_from([1, 2, 4, 8]), hnp.array_shapes(min_dims=1, max_dims=2, max_side=9))
    @settings(max_examples=40, deadline=None)
    def test_equals_direct_sum(self, p, shape):
        rng = np.random.default_rng(0)
        bufs = [rng.normal(size=shape).astype(np.float32) for _ in range(p)]
        direct = np.sum([b.astype(np.float64) for b in bufs], axis=0).astype(np.float32)
        for out in halving_doubling_allreduce(bufs):
            assert np.allclose(out, direct, atol=1e-3)

    def test_average(self):
        bufs = [np.full(6, float(r), dtype=np.float32) for r in range(4)]
        out = halving_doubling_allreduce(bufs, average=True)
        assert np.allclose(out[0], 1.5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            halving_doubling_allreduce([np.ones(3)] * 3)

    def test_all_ranks_identical(self):
        rng = np.random.default_rng(1)
        bufs = [rng.normal(size=11).astype(np.float32) for _ in range(8)]
        out = halving_doubling_allreduce(bufs)
        for o in out[1:]:
            assert np.allclose(o, out[0], atol=1e-5)


class TestTree:
    @given(st.integers(1, 9), hnp.array_shapes(min_dims=1, max_dims=2, max_side=9))
    @settings(max_examples=40, deadline=None)
    def test_equals_direct_sum_any_rank_count(self, p, shape):
        rng = np.random.default_rng(0)
        bufs = [rng.normal(size=shape).astype(np.float32) for _ in range(p)]
        direct = np.sum([b.astype(np.float64) for b in bufs], axis=0).astype(np.float32)
        for out in tree_allreduce(bufs):
            assert np.allclose(out, direct, atol=1e-3)

    def test_inputs_not_mutated(self):
        bufs = [np.ones(4, dtype=np.float32) for _ in range(3)]
        copies = [b.copy() for b in bufs]
        tree_allreduce(bufs)
        for b, c in zip(bufs, copies):
            assert np.array_equal(b, c)


class TestAlgorithmCostModels:
    def test_latency_scaling(self):
        """Ring latency is linear in P, halving-doubling logarithmic."""
        alpha, beta = 10e-6, 0.0
        ring16 = NVLINK_A100.__class__(alpha=alpha, beta=beta).allreduce_time(0, 16)
        hd16 = halving_doubling_time(0, 16, alpha, beta)
        assert ring16 == pytest.approx(2 * 15 * alpha)
        assert hd16 == pytest.approx(2 * 4 * alpha)

    def test_tree_pays_bandwidth_per_level(self):
        alpha, beta = 0.0, 1e-9
        n = 10**6
        assert tree_time(n, 8, alpha, beta) == pytest.approx(2 * 3 * n * beta)

    def test_single_rank_free(self):
        assert halving_doubling_time(100, 1, 1e-5, 1e-9) == 0.0
        assert tree_time(100, 1, 1e-5, 1e-9) == 0.0

    def test_coalescing_pays_under_every_algorithm_at_paper_scale(self):
        """Per-parameter calls vs one coalesced call on the paper's IGNN
        gradients: coalescing wins under every algorithm; per parameter
        the log-depth halving-doubling beats the ring at P=8; coalesced,
        halving-doubling is never beaten and at P=2 the bandwidth term
        puts the ring ahead of the tree."""
        sizes = paper_scale_gradient_sizes()
        alpha, beta = NVLINK_A100.alpha, NVLINK_A100.beta
        cost = {
            "ring": NVLINK_A100.allreduce_time,
            "hd": lambda n, p: halving_doubling_time(n, p, alpha, beta),
            "tree": lambda n, p: tree_time(n, p, alpha, beta),
        }
        for p in (2, 4, 8):
            per_param = {k: sum(f(s, p) for s in sizes) for k, f in cost.items()}
            coalesced = {k: f(sum(sizes), p) for k, f in cost.items()}
            assert all(per_param[k] > coalesced[k] for k in cost), p
            assert coalesced["hd"] <= min(coalesced["ring"], coalesced["tree"]) + 1e-12, p
            if p == 8:
                assert per_param["hd"] < per_param["ring"]
            if p == 2:
                assert coalesced["ring"] < coalesced["tree"]
