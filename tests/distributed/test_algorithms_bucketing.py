"""Alternative all-reduce algorithms and bucketed gradient sync."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed import (
    NVLINK_A100,
    BucketedSynchronizer,
    DistributedDataParallel,
    SimCommunicator,
    halving_doubling_allreduce,
    halving_doubling_time,
    overlapped_sync_time,
    partition_buckets,
    replicate_model,
    tree_allreduce,
    tree_time,
)
from repro.models import IGNNConfig, InteractionGNN
from repro.nn import MLP, BCEWithLogitsLoss
from repro.tensor import Tensor

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


class TestPartitionBuckets:
    def test_greedy_packing(self):
        buckets = partition_buckets([10, 10, 10, 10], bucket_bytes=25)
        assert [b.param_indices for b in buckets] == [(0, 1), (2, 3)]

    def test_oversized_tensor_gets_own_bucket(self):
        buckets = partition_buckets([100, 5, 5], bucket_bytes=10)
        assert buckets[0].param_indices == (0,)

    def test_every_param_exactly_once(self):
        sizes = [7, 3, 12, 1, 9, 30, 2]
        buckets = partition_buckets(sizes, 16)
        flat = [i for b in buckets for i in b.param_indices]
        assert flat == list(range(len(sizes)))

    def test_bytes_accounting(self):
        buckets = partition_buckets([4, 4, 4], 8)
        assert [b.nbytes for b in buckets] == [8, 4]

    def test_invalid_bucket_size(self):
        with pytest.raises(ValueError):
            partition_buckets([4], 0)


class TestBucketedSynchronizer:
    def _train_pair(self, bucket_bytes):
        def factory():
            return MLP(8, 16, out_features=1, num_layers=2, rng=np.random.default_rng(42))

        rng = np.random.default_rng(0)
        X = rng.normal(size=(16, 8)).astype(np.float32)
        Y = (rng.random(16) > 0.5).astype(np.float32)
        loss_fn = BCEWithLogitsLoss()

        world = 4
        models_a = replicate_model(factory, world)
        models_b = replicate_model(factory, world)
        comm_a, comm_b = SimCommunicator(world), SimCommunicator(world)
        coal = DistributedDataParallel(models_a, comm_a, strategy="coalesced")
        buck = BucketedSynchronizer(models_b, comm_b, bucket_bytes=bucket_bytes)
        shards = np.array_split(np.arange(16), world)
        for models in (models_a, models_b):
            for m, sh in zip(models, shards):
                m.zero_grad()
                loss_fn(m(Tensor(X[sh])).reshape(-1), Y[sh]).backward()
        coal.synchronize_gradients()
        buck.synchronize_gradients()
        return models_a, models_b, comm_a, comm_b

    @pytest.mark.parametrize("bucket_bytes", [64, 1024, 10**9])
    def test_gradients_match_coalesced(self, bucket_bytes):
        models_a, models_b, _, _ = self._train_pair(bucket_bytes)
        for (n1, p1), (n2, p2) in zip(
            models_a[0].named_parameters(), models_b[0].named_parameters()
        ):
            assert np.allclose(p1.grad, p2.grad, atol=1e-6), n1

    def test_call_count_between_extremes(self):
        _, _, comm_coal, comm_buck = self._train_pair(bucket_bytes=300)
        assert comm_coal.stats.num_allreduce_calls == 1
        assert comm_buck.stats.num_allreduce_calls > 1

    def test_world_size_checked(self):
        def factory():
            return MLP(4, 4, rng=np.random.default_rng(0))

        with pytest.raises(ValueError):
            BucketedSynchronizer(replicate_model(factory, 2), SimCommunicator(3))


class TestOverlapModel:
    SIZES = [64 * 64 * 4] * 40

    def test_giant_bucket_exposes_everything(self):
        """One bucket cannot overlap: exposed time = full all-reduce."""
        exposed = overlapped_sync_time(self.SIZES, 10**12, 4, 1.0, NVLINK_A100)
        assert exposed == pytest.approx(
            NVLINK_A100.allreduce_time(sum(self.SIZES), 4), rel=1e-6
        )

    def test_moderate_buckets_hide_communication(self):
        """With buckets, earlier reduces overlap later backward compute."""
        giant = overlapped_sync_time(self.SIZES, 10**12, 4, 1.0, NVLINK_A100)
        bucketed = overlapped_sync_time(self.SIZES, 64 * 64 * 4 * 8, 4, 1.0, NVLINK_A100)
        assert bucketed < giant

    def test_tiny_buckets_pay_latency(self):
        """Per-parameter buckets can be worse than one moderate bucket when
        backward is short (little to overlap) and α dominates."""
        tiny = overlapped_sync_time(self.SIZES, 1, 8, 0.0, NVLINK_A100)
        moderate = overlapped_sync_time(self.SIZES, 64 * 64 * 4 * 8, 8, 0.0, NVLINK_A100)
        assert moderate < tiny

    def test_a_moderate_bucket_beats_both_extremes_at_paper_scale(self):
        """Paper-scale gradients, P=4, a 5 ms backward: some moderate
        bucket exposes no more than one coalesced call and less than
        per-tensor buckets."""
        sizes = paper_scale_gradient_sizes()
        exposed = {
            b: overlapped_sync_time(sizes, b, 4, 5e-3, NVLINK_A100)
            for b in (1, 4 * 1024, 32 * 1024, 256 * 1024, 2**40)
        }
        best_moderate = min(exposed[b] for b in (4 * 1024, 32 * 1024, 256 * 1024))
        assert best_moderate <= exposed[2**40] + 1e-12
        assert best_moderate < exposed[1]

    def test_zero_backward_equals_unoverlapped_sum(self):
        sizes = [100, 100]
        exposed = overlapped_sync_time(sizes, 100, 4, 0.0, NVLINK_A100)
        expected = sum(NVLINK_A100.allreduce_time(s, 4) for s in sizes)
        assert exposed == pytest.approx(expected, rel=1e-9)
