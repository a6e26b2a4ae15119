"""Budgeted streaming reads and streamed-vs-in-RAM training parity."""

import numpy as np
import pytest

from repro.graph import random_graph
from repro.pipeline import GNNTrainConfig, train_gnn
from repro.store import EventStore, ingest_graphs, ingest_simulated


@pytest.fixture(scope="module")
def sharded_store(tmp_path_factory):
    """Ten graphs across many small shards (forces LRU traffic)."""
    rng = np.random.default_rng(31)
    graphs = []
    for i in range(10):
        g = random_graph(60, 240, rng=rng, true_fraction=0.3)
        g.event_id = i
        graphs.append(g)
    d = str(tmp_path_factory.mktemp("stream") / "s")
    ingest_graphs(graphs, d, max_shard_bytes=8 * 1024)
    return d


class TestResidentBudget:
    def test_full_walk_stays_under_budget(self, sharded_store):
        budget = 32 * 1024  # about half the store: the walk must evict
        with EventStore(sharded_store, budget_bytes=budget) as store:
            assert len(store.manifest["shards"]) > 2
            for _ in range(3):  # repeated epochs re-touch every event
                for handle in store.handles():
                    handle.materialize()
                    assert store.resident_bytes <= budget
            assert store.stats.peak_resident_bytes <= budget
            assert store.stats.unmaps > 0  # the LRU actually evicted

    def test_eviction_and_remap_preserve_bits(self, sharded_store):
        budget = 24 * 1024  # tiny window: every walk evicts
        with EventStore(sharded_store, budget_bytes=budget) as store:
            first = [np.array(h.materialize().x) for h in store.handles()]
            second = [np.array(h.materialize().x) for h in store.handles()]
            for a, b in zip(first, second):
                assert np.array_equal(a, b)

    def test_cache_counters(self, sharded_store):
        with EventStore(sharded_store, budget_bytes=1 << 20) as store:
            handles = store.handles()
            for h in handles:
                h.materialize()
            assert store.stats.misses == len(handles)
            for h in handles:  # warm pass: everything stays mapped
                h.materialize()
            assert store.stats.hits == len(handles)
            assert 0.0 < store.stats.hit_rate() <= 1.0

    def test_unbudgeted_store_maps_everything(self, sharded_store):
        with EventStore(sharded_store) as store:
            for h in store.handles():
                h.materialize()
            assert store.stats.unmaps == 0
            assert store.mapped_shards == len(store.manifest["shards"])

    def test_budget_below_largest_shard_rejected(self, sharded_store):
        with pytest.raises(ValueError, match="budget"):
            EventStore(sharded_store, budget_bytes=512)


class TestTrainingParity:
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    def test_streamed_losses_bit_identical_to_in_ram(self, tmp_path, precision):
        """The acceptance bar: same EpochPlan, same per-step losses and
        final weights, whether graphs stream from mmap shards under a
        budget or sit fully resident in RAM."""
        from repro.detector import dataset_config

        d = str(tmp_path / "s")
        ingest_simulated(dataset_config("tiny"), d, max_shard_bytes=64 * 1024)
        cfg = GNNTrainConfig(
            mode="bulk",
            epochs=2,
            batch_size=64,
            bulk_k=2,
            hidden=8,
            num_layers=2,
            eval_every=2,
            seed=0,
            precision=precision,
        )
        with EventStore(d, budget_bytes=256 * 1024) as store:
            streamed = train_gnn(
                store.handles("train"), store.handles("val"), cfg
            )
            assert store.stats.hits > 0  # shard cache did real work
            in_ram = train_gnn(
                store.load_split("train"), store.load_split("val"), cfg
            )
        s_loss = [r.train_loss for r in streamed.history.records]
        r_loss = [r.train_loss for r in in_ram.history.records]
        assert s_loss == r_loss  # bit-identical, not approx
        s_state = streamed.model.state_dict()
        r_state = in_ram.model.state_dict()
        assert set(s_state) == set(r_state)
        for key in s_state:
            assert np.array_equal(s_state[key], r_state[key]), key

    def test_prefetch_workers_see_same_batches(self, tmp_path):
        """Lazy handles compose with the prefetching loader: worker
        threads materialising through the store LRU change nothing."""
        from repro.detector import dataset_config

        d = str(tmp_path / "s")
        ingest_simulated(dataset_config("tiny"), d, max_shard_bytes=64 * 1024)
        base = dict(
            mode="bulk", epochs=2, batch_size=64, bulk_k=2, hidden=8,
            num_layers=2, eval_every=2, seed=0,
        )
        with EventStore(d, budget_bytes=256 * 1024) as store:
            sync = train_gnn(
                store.handles("train"), store.handles("val"),
                GNNTrainConfig(**base),
            )
            threaded = train_gnn(
                store.handles("train"), store.handles("val"),
                GNNTrainConfig(**base, prefetch_workers=2),
            )
        assert [r.train_loss for r in sync.history.records] == [
            r.train_loss for r in threaded.history.records
        ]

    def test_sampled_steps_bit_identical_to_in_ram(self, sharded_store):
        """One plan over mmap handles and one over RAM copies sample the
        same batches, array for array, while the LRU evicts."""
        from repro.data import EpochPlan, sample_step
        from repro.sampling import BulkShadowSampler

        sampler = BulkShadowSampler(depth=2, fanout=4)
        with EventStore(sharded_store, budget_bytes=24 * 1024) as store:
            plans = [
                EpochPlan.build(gs, batch_size=16, k=2, rng=np.random.default_rng(0))
                for gs in (store.handles(), store.load_split(None))
            ]
            assert len(plans[0]) == len(plans[1]) > 0
            for streamed, resident in zip(plans[0].steps, plans[1].steps):
                for sb, rb in zip(
                    sample_step(sampler, streamed, ranks=(0,))[0],
                    sample_step(sampler, resident, ranks=(0,))[0],
                ):
                    for field in ("node_parent", "edge_parent", "component_ids", "roots"):
                        assert np.array_equal(getattr(sb, field), getattr(rb, field))
                    for field in ("edge_index", "x", "y"):
                        assert np.array_equal(getattr(sb.graph, field), getattr(rb.graph, field))
            assert store.stats.unmaps > 0
