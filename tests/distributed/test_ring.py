"""Ring all-reduce correctness (property-based) and accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.distributed import RingAllReduceStats, ring_allreduce

finite = st.floats(-100, 100, allow_nan=False, width=32)


@st.composite
def rank_buffers(draw):
    p = draw(st.integers(1, 8))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, max_side=17))
    bufs = [
        draw(hnp.arrays(np.float32, shape, elements=finite)) for _ in range(p)
    ]
    return bufs


class TestRingCorrectness:
    @given(rank_buffers())
    @settings(max_examples=50, deadline=None)
    def test_equals_direct_sum(self, bufs):
        out = ring_allreduce(bufs, average=False)
        direct = np.sum([b.astype(np.float64) for b in bufs], axis=0)
        for o in out:
            assert np.allclose(o, direct.astype(np.float32), atol=1e-3)

    @given(rank_buffers())
    @settings(max_examples=50, deadline=None)
    def test_all_ranks_identical(self, bufs):
        out = ring_allreduce(bufs, average=False)
        for o in out[1:]:
            assert np.array_equal(o, out[0])

    @given(rank_buffers())
    @settings(max_examples=30, deadline=None)
    def test_average_divides_by_world(self, bufs):
        summed = ring_allreduce(bufs, average=False)[0].astype(np.float64)
        averaged = ring_allreduce(bufs, average=True)[0].astype(np.float64)
        assert np.allclose(averaged, summed / len(bufs), atol=1e-3)

    @given(rank_buffers())
    @settings(max_examples=30, deadline=None)
    def test_inputs_not_mutated(self, bufs):
        copies = [b.copy() for b in bufs]
        ring_allreduce(bufs)
        for b, c in zip(bufs, copies):
            assert np.array_equal(b, c)


class TestRingAccounting:
    def test_step_count_is_2p_minus_2(self):
        for p in (2, 3, 4, 8):
            bufs = [np.ones(p * 4, dtype=np.float32) for _ in range(p)]
            stats = RingAllReduceStats()
            ring_allreduce(bufs, stats=stats)
            assert stats.steps == 2 * (p - 1)

    def test_bytes_scale_with_buffer(self):
        p = 4
        small = RingAllReduceStats()
        large = RingAllReduceStats()
        ring_allreduce([np.ones(16, dtype=np.float32)] * p, stats=small)
        ring_allreduce([np.ones(160, dtype=np.float32)] * p, stats=large)
        assert large.bytes_sent_per_rank > 8 * small.bytes_sent_per_rank

    def test_single_rank_is_identity(self):
        buf = np.arange(5, dtype=np.float32)
        out = ring_allreduce([buf])
        assert np.array_equal(out[0], buf)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([np.ones(3), np.ones(4)])

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce([])

    def test_uneven_chunking_works(self):
        # buffer size not divisible by world size
        p = 3
        bufs = [np.full(7, float(r), dtype=np.float32) for r in range(p)]
        out = ring_allreduce(bufs)
        assert np.allclose(out[0], 0.0 + 1.0 + 2.0)

    def test_buffer_smaller_than_world(self):
        p = 4
        bufs = [np.full(2, 1.0, dtype=np.float32) for _ in range(p)]
        out = ring_allreduce(bufs)
        assert np.allclose(out[0], 4.0)


# ----------------------------------------------------------------------
# the schedule: one definition, two executors
# ----------------------------------------------------------------------
def left_neighbour_accumulation(bufs, average):
    """The ring's arithmetic written without the schedule: chunk ``c``
    starts at rank ``c`` and each rank to the right in turn adds its own
    values to the travelling partial sum, in float64; every rank ends
    with every finished chunk; scale, then cast."""
    p = len(bufs)
    x = [b.astype(np.float64).ravel() for b in bufs]
    cuts = np.linspace(0, x[0].size, p + 1).astype(np.int64)
    out = np.empty(x[0].size)
    for c in range(p):
        lo, hi = cuts[c], cuts[c + 1]
        acc = x[c][lo:hi]
        for hop in range(1, p):
            acc = x[(c + hop) % p][lo:hi] + acc
        out[lo:hi] = acc
    if average:
        out = out * (1.0 / p)
    return out.reshape(bufs[0].shape).astype(bufs[0].dtype)


class TestOneSchedule:
    @given(
        p=st.integers(1, 8),
        n=st.sampled_from([1, 2, 3, 7, 64, 1000]),
        dtype=st.sampled_from([np.float32, np.float64]),
        average=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=120, deadline=None)
    def test_bits_and_accounting(self, p, n, dtype, average, seed):
        rng = np.random.default_rng(seed)
        bufs = [
            (rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
            for _ in range(p)
        ]
        stats = RingAllReduceStats()
        out = ring_allreduce(bufs, average=average, stats=stats)
        ref = left_neighbour_accumulation(bufs, average)
        assert len(out) == p
        for o in out:
            assert o.dtype == dtype and np.array_equal(o, ref)
        if p == 1:  # nothing is exchanged, nothing is accounted
            assert stats == RingAllReduceStats()
        else:
            assert stats.world_size == p
            assert stats.steps == 2 * (p - 1)
            # every step moves every chunk once: n float64 over the ring
            assert stats.bytes_sent_per_rank == 2 * (p - 1) * n * 8 // p

    @pytest.mark.parametrize("p", range(1, 9))
    def test_schedule_shape(self, p):
        from repro.distributed.ring import ring_barriers, ring_schedule

        n = 29
        shares = [ring_schedule(pos, p, n) for pos in range(p)]
        for share in shares:
            assert [s.reduce for s in share] == [True] * (p - 1) + [False] * (p - 1)
            assert [s.step for s in share] == 2 * list(range(p - 1))
            # a barrier ahead of every step but the first
            assert [s.barrier for s in share] == [False] * bool(share) + [True] * (len(share) - 1)
            assert sum(s.barrier for s in share) == ring_barriers(p) == max(2 * p - 3, 0)
        for steps in zip(*shares):
            # within a step the ranks move p distinct chunks, and nobody
            # writes the chunk its right neighbour is reading
            assert sorted(s.chunk for s in steps) == list(range(p))
            for pos, step in enumerate(steps):
                assert steps[(pos + 1) % p].chunk != step.chunk
