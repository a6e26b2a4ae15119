"""Training runs on the process's one thread pool: its live threads stay
within the caller's baseline plus the pool's helpers whatever
``prefetch_workers`` says, a run that raises leaves no prefetch sample
behind, an abandoned epoch the GC finalises on a pool thread does not
wait on itself, and a proc run forked while the pool is alive trains as
it would in a fresh process."""

import gc
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

import repro
from repro import _per_event
from repro.data import EpochPlan, PrefetchLoader, prefetch
from repro.faults import FaultPlan, NumericFault
from repro.graph import random_graph
from repro.models import InteractionGNN
from repro.pipeline import GNNTrainConfig, train_gnn
from repro.sampling import BulkShadowSampler

SMALL = dict(
    mode="bulk", epochs=1, batch_size=32, hidden=8, num_layers=2,
    mlp_layers=2, depth=2, fanout=3, bulk_k=2, world_size=2, seed=0,
)


def test_training_threads_stay_within_prefetch_plus_helpers(tiny_dataset, monkeypatch):
    live = []
    forward = InteractionGNN.forward

    def counted(self, *args, **kwargs):
        live.append(threading.active_count())
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(InteractionGNN, "forward", counted)
    # four prefetch workers asked for; the samples run on the pool's helpers
    baseline = threading.active_count()
    train_gnn(tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**SMALL, prefetch_workers=4))
    assert live and max(live) <= baseline + max(_per_event._HELPERS, 1)


def test_a_raising_run_leaves_no_sample_queued_or_running(
    tiny_dataset, monkeypatch, prefetch_samples
):
    sample_step = prefetch.sample_step

    def slow(*args):
        time.sleep(0.05)  # the next steps are still in flight when the loss turns NaN
        return sample_step(*args)

    monkeypatch.setattr(prefetch, "sample_step", slow)
    nan_loss = FaultPlan(numeric_faults=[NumericFault(at_step=1, target="loss")])
    with pytest.raises(FloatingPointError) as raised:
        train_gnn(
            tiny_dataset.train, tiny_dataset.val,
            GNNTrainConfig(**SMALL, prefetch_workers=2), fault_plan=nan_loss,
        )
    assert raised.traceback  # held: _train's frame and its locals stay reachable
    assert len(prefetch_samples) > 1
    assert all(future.done() for future in prefetch_samples)


def test_an_epoch_the_gc_finalises_on_a_pool_thread_does_not_wait_on_itself(
    forced_helpers, prefetch_samples
):
    dropped, calls = threading.Event(), []

    class Collecting(BulkShadowSampler):
        def sample_bulk(self, *args):
            calls.append(None)
            if len(calls) == 2 and dropped.wait(10):  # step 1, on the pool's one thread
                gc.collect()  # finalises the abandoned epoch here, with step 1 running
            return super().sample_bulk(*args)

    graph = random_graph(120, 480, rng=np.random.default_rng(1), true_fraction=0.3)
    plan = EpochPlan.build([graph], 16, 2, np.random.default_rng(0))
    gc.disable()  # only the pool thread's collect may find the cycle
    try:
        with forced_helpers(1):
            epoch = PrefetchLoader(Collecting(depth=2, fanout=3), workers=1).iter_epoch(
                plan, lambda: (0,)
            )
            next(epoch)  # steps 1 and 2 in flight
            cycle = [epoch]
            cycle.append(cycle)
            del epoch, cycle
            dropped.set()
            finished, _ = wait(prefetch_samples, timeout=10)
    finally:
        gc.enable()
    assert len(prefetch_samples) == 3 and len(finished) == 3
    assert prefetch_samples[2].cancelled()


FRESH = """
import json, sys
import numpy as np
from repro.detector import dataset_config, make_dataset
from repro.pipeline import GNNTrainConfig, train_gnn
data = make_dataset(dataset_config("tiny"))
result = train_gnn(data.train, data.val, GNNTrainConfig(**json.loads(sys.argv[1])))
np.savez(sys.argv[2], **result.model.state_dict())
"""


@pytest.mark.timeout(120)
def test_a_proc_run_forked_with_the_pool_alive_ends_on_the_fresh_process_weights(
    tiny_dataset, tmp_path
):
    train_gnn(tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**SMALL, prefetch_workers=1))
    assert _per_event._pool._threads  # alive when the proc backend forks
    proc = dict(SMALL, backend="proc", prefetch_workers=1)
    here = train_gnn(tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**proc))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    path = str(tmp_path / "fresh.npz")
    subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(proc), path], env=env, check=True, timeout=100
    )
    fresh, weights = np.load(path), here.model.state_dict()
    assert set(fresh.files) == set(weights)
    for key in weights:
        assert np.array_equal(fresh[key], weights[key]), key
