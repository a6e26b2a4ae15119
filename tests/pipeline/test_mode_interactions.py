"""Execution modes compose: two cells of the training mode lattice where
three modes meet at once.

* the real multi-process backend (``backend="proc"``, P = 2) training on
  graphs streamed from an event store, stopped mid-epoch and resumed from
  its step checkpoint, ends on the uninterrupted run's weights;
* a permanent rank failure during a streamed epoch with four prefetch
  workers leaves the survivors on the in-RAM, synchronous run's weights
  under the same fault.

Each cell is bit for bit, not to a tolerance.
"""

import numpy as np
import pytest

from repro.detector import dataset_config
from repro.faults import CommFault, FaultPlan
from repro.pipeline import GNNTrainConfig, describe_checkpoint, train_gnn
from repro.store import EventStore, ingest_simulated

#: under half of the store's bytes: every streamed epoch evicts shards
BUDGET = 48 * 1024
BASE = dict(
    mode="bulk", epochs=2, batch_size=32, bulk_k=2, hidden=8, num_layers=2,
    depth=2, fanout=3, eval_every=2, seed=0,
)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("modes") / "store")
    ingest_simulated(dataset_config("tiny"), path, max_shard_bytes=16 * 1024)  # one event a shard
    return path


def assert_same_weights(a, b):
    a, b = a.model.state_dict(), b.model.state_dict()
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key


@pytest.mark.timeout(60)
def test_proc_streamed_resume_mid_epoch_is_bit_identical(store_dir, tmp_path):
    config = GNNTrainConfig(**BASE, world_size=2, backend="proc")
    ckpt = str(tmp_path / "step.npz")
    with EventStore(store_dir, budget_bytes=BUDGET) as store:
        train, val = store.handles("train"), store.handles("val")
        whole = train_gnn(train, val, config)
        crash_at = whole.trained_steps // 2 + 1  # inside epoch 1 of 2
        crashed = train_gnn(
            train, val,
            config.replace(checkpoint_path=ckpt, checkpoint_every_steps=1, max_steps=crash_at),
        )
        assert len(crashed.history) < config.epochs
        assert describe_checkpoint(ckpt)["step_in_epoch"] > 0
        resumed = train_gnn(train, val, config.replace(resume_from=ckpt))
        assert store.stats.unmaps > 0
    assert resumed.trained_steps == whole.trained_steps
    assert [r.train_loss for r in resumed.history.records] == [
        r.train_loss for r in whole.history.records
    ]
    assert_same_weights(resumed, whole)


@pytest.mark.faults
def test_rank_eviction_in_a_streamed_prefetched_epoch_is_bit_identical(store_dir):
    config = GNNTrainConfig(**BASE, world_size=4)

    def plan():  # a plan counts collective attempts: one per run
        return FaultPlan(comm_faults=[CommFault(at_call=3, rank=2, transient=False)])

    with EventStore(store_dir, budget_bytes=BUDGET) as store:
        streamed = train_gnn(
            store.handles("train"), store.handles("val"),
            config.replace(prefetch_workers=4), fault_plan=plan(),
        )
        assert store.stats.unmaps > 0  # the budget evicted during the epoch
        in_ram = train_gnn(
            store.load_split("train"), store.load_split("val"), config, fault_plan=plan(),
        )
    assert streamed.comm_stats.rank_failures == in_ram.comm_stats.rank_failures == [2]
    assert [r.train_loss for r in streamed.history.records] == [
        r.train_loss for r in in_ram.history.records
    ]
    assert_same_weights(streamed, in_ram)
