"""α–β cost model and gradient coalescing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    NVLINK_A100,
    CommCostModel,
    flatten_arrays,
    gradient_arrays,
    unflatten_array,
)
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import MLP
from repro.tensor import Tensor, ops


class TestCostModel:
    def test_single_rank_free(self):
        assert NVLINK_A100.allreduce_time(10**6, 1) == 0.0

    def test_latency_term_dominates_small_messages(self):
        m = CommCostModel(alpha=10e-6, beta=1e-11)
        t = m.allreduce_time(64, 4)
        assert t == pytest.approx(2 * 3 * 10e-6, rel=0.01)

    def test_bandwidth_term_dominates_large_messages(self):
        m = CommCostModel(alpha=10e-6, beta=1e-11)
        nbytes = 10**9
        t = m.allreduce_time(nbytes, 4)
        assert t == pytest.approx(2 * 0.75 * nbytes * 1e-11, rel=0.01)

    def test_coalescing_speedup_many_small_buffers(self):
        """The Section III-D effect: many f×f matrices → big speedup."""
        sizes = [64 * 64 * 4] * 50  # 50 small parameter matrices
        speedup = NVLINK_A100.coalescing_speedup(sizes, 4)
        assert speedup > 5.0

    def test_coalescing_pays_on_paper_scale_ignn_gradients(self):
        """Claim C3 on the paper's IGNN (hidden 64, 8 layers): one
        coalesced ring all-reduce of every gradient beats one call per
        parameter at P = 2, 4 and 8."""
        model = InteractionGNN(IGNNConfig(6, 2, hidden=64, num_layers=8, mlp_layers=2))
        sizes = [p.size * 4 for p in model.parameters()]
        for world in (2, 4, 8):
            per_param = sum(NVLINK_A100.allreduce_time(n, world) for n in sizes)
            assert per_param > NVLINK_A100.allreduce_time(sum(sizes), world), world

    def test_coalescing_neutral_single_buffer(self):
        assert NVLINK_A100.coalescing_speedup([1024], 4) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(4, 10_000), min_size=1, max_size=30),
        st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_coalesced_never_slower(self, sizes, world):
        assert NVLINK_A100.coalescing_speedup(sizes, world) >= 1.0 - 1e-9

    def test_monotone_in_world_size_latency(self):
        m = CommCostModel(alpha=1e-5, beta=0.0)
        times = [m.allreduce_time(100, p) for p in (2, 4, 8)]
        assert times == sorted(times)

    def test_validations(self):
        with pytest.raises(ValueError):
            NVLINK_A100.allreduce_time(100, 0)
        with pytest.raises(ValueError):
            NVLINK_A100.allreduce_time(-1, 2)

    def test_broadcast_single_rank_free(self):
        assert NVLINK_A100.broadcast_time(10**6, 1) == 0.0

    def test_broadcast_binomial_tree_rounds(self):
        """ceil(log2 P) rounds of (α + nβ): P=4 → 2 rounds, P=5 → 3."""
        m = CommCostModel(alpha=10e-6, beta=1e-11)
        nbytes = 1024
        per_round = 10e-6 + nbytes * 1e-11
        assert m.broadcast_time(nbytes, 4) == pytest.approx(2 * per_round)
        assert m.broadcast_time(nbytes, 5) == pytest.approx(3 * per_round)

    def test_broadcast_monotone_in_world_size(self):
        times = [NVLINK_A100.broadcast_time(4096, p) for p in (2, 4, 16)]
        assert times == sorted(times)
        assert times[0] > 0.0

    def test_broadcast_validations(self):
        with pytest.raises(ValueError):
            NVLINK_A100.broadcast_time(100, 0)
        with pytest.raises(ValueError):
            NVLINK_A100.broadcast_time(-1, 2)


class TestCoalesce:
    def test_round_trip_preserves_values_and_shapes(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s).astype(np.float32) for s in [(3, 4), (7,), (2, 5, 2)]]
        flat, specs = flatten_arrays(arrays)
        assert flat.size == sum(a.size for a in arrays)
        back = unflatten_array(flat, specs)
        for a, b in zip(arrays, back):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_unflatten_validates_size(self):
        flat, specs = flatten_arrays([np.ones(4, dtype=np.float32)])
        with pytest.raises(ValueError):
            unflatten_array(np.ones(5, dtype=np.float32), specs)

    def test_gradient_arrays_order_matches_named_parameters(self):
        m = MLP(4, 8, num_layers=2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 4), dtype=np.float32))
        ops.sum(m(x)).backward()
        grads = gradient_arrays(m)
        for (name, p), g in zip(m.named_parameters(), grads):
            assert g.shape == p.data.shape

    def test_gradient_arrays_zero_fills_missing(self):
        m = MLP(4, 8, num_layers=2, rng=np.random.default_rng(0))
        # no backward at all: every gradient should be a zero array
        grads = gradient_arrays(m)
        assert all(np.all(g == 0) for g in grads)

    def test_flat_layout_deterministic_across_replicas(self):
        """Coalescing relies on identical layout across ranks."""
        def build():
            return MLP(6, 12, num_layers=3, rng=np.random.default_rng(1))

        m1, m2 = build(), build()
        _, specs1 = flatten_arrays(gradient_arrays(m1))
        _, specs2 = flatten_arrays(gradient_arrays(m2))
        assert specs1 == specs2
