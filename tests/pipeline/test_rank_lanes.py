"""Rank steps on lanes: ``_train`` runs the P rank steps of an optimisation
step on the per-event pool and meets them in the all-reduce.

Every lane schedule must train the sequential loop's bits (the loop is
``_per_event._HELPERS = 0``), and a rank that raises or diverges must stop
the step only once every lane has settled and before any gradient is
reduced.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.faults import FaultPlan, NumericFault
from repro.guard import TrainingUnstableError
from repro.pipeline import GNNTrainConfig, train_gnn, trainers
from repro.tensor import Tensor

SMALL = dict(
    epochs=2, batch_size=32, hidden=8, num_layers=2, mlp_layers=2,
    depth=2, fanout=3, bulk_k=2, seed=3,
)
_sequential: dict = {}


def _run(data, **overrides):
    """State-dict bytes and per-epoch losses of one ``train_gnn`` call."""
    result = train_gnn(data.train, data.val, GNNTrainConfig(**dict(SMALL, **overrides)))
    weights = {k: v.tobytes() for k, v in result.model.state_dict().items()}
    return weights, [r.train_loss for r in result.history.records]


def _reference(data, forced_helpers, **config):
    key = tuple(sorted(config.items()))
    if key not in _sequential:
        with forced_helpers(0):
            _sequential[key] = _run(data, **config)
    return _sequential[key]


@pytest.mark.parametrize("helpers", [0, 1, 3])
@pytest.mark.parametrize("mode", ["bulk", "shadow"])
@pytest.mark.parametrize("backend", ["sim", "proc"])
@pytest.mark.parametrize("world", [2, 4])
def test_lanes_train_the_sequential_bits(tiny_dataset, forced_helpers, world, backend, mode, helpers):
    config = dict(world_size=world, backend=backend, mode=mode)
    with forced_helpers(helpers):
        got = _run(tiny_dataset, **config)
    assert got == _reference(tiny_dataset, forced_helpers, **config)


@pytest.mark.parametrize("helpers", [1, 3])
def test_a_fuzzed_schedule_trains_the_sequential_bits(tiny_dataset, forced_helpers, monkeypatch, helpers):
    fuzz = random.Random(helpers)
    step = trainers._Rank.step

    def jittered(self, *args):
        time.sleep(fuzz.uniform(0, 0.003))
        try:
            return step(self, *args)
        finally:
            time.sleep(fuzz.uniform(0, 0.003))

    monkeypatch.setattr(trainers._Rank, "step", jittered)
    config = dict(world_size=4, backend="sim", mode="bulk")
    with forced_helpers(helpers):
        got = _run(tiny_dataset, **config)
    assert got == _reference(tiny_dataset, forced_helpers, **config)


@pytest.mark.timeout(90)
def test_a_thread_switch_every_microsecond_trains_the_sequential_bits(tiny_dataset, forced_helpers):
    config = dict(world_size=4, backend="sim", mode="shadow", epochs=1)
    reference = _reference(tiny_dataset, forced_helpers, **config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_helpers(3):
            got = _run(tiny_dataset, **config)
    finally:
        sys.setswitchinterval(interval)
    assert got == reference


class _Spied:
    """Counts the rank steps running now and the all-reduces made."""

    def __init__(self, monkeypatch, slow_rank: int = 0) -> None:
        self.running = 0
        self.lock = threading.Lock()
        self.local = threading.local()
        self.comms = []
        step, create = trainers._Rank.step, trainers.create_communicator

        def counted(rank, *args):
            with self.lock:
                self.running += 1
            self.local.grank = rank.grank
            try:
                return step(rank, *args)
            finally:
                if rank.grank == slow_rank:
                    time.sleep(0.1)  # still running when the other lane fails
                with self.lock:
                    self.running -= 1
                self.local.grank = None

        def captured(*args, **kwargs):
            self.comms.append(create(*args, **kwargs))
            return self.comms[-1]

        monkeypatch.setattr(trainers._Rank, "step", counted)
        monkeypatch.setattr(trainers, "create_communicator", captured)

    @property
    def allreduces(self) -> int:
        return self.comms[-1].stats.num_allreduce_calls


@pytest.mark.faults
@pytest.mark.parametrize("helpers", [0, 1])
def test_an_error_in_rank_1s_backward_reraises_after_every_lane_settled(
    tiny_dataset, forced_helpers, monkeypatch, helpers
):
    spied = _Spied(monkeypatch)
    backward, calls = Tensor.backward, []

    def failing(self, *args, **kwargs):
        if getattr(spied.local, "grank", None) == 1:
            calls.append(None)
            if len(calls) == 3:  # rank 1's third step
                raise RuntimeError("injected backward failure")
        return backward(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", failing)
    with forced_helpers(helpers), pytest.raises(RuntimeError, match="injected"):
        try:
            train_gnn(tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**SMALL, world_size=2))
        finally:
            assert spied.running == 0  # no lane still running when the error surfaces
    assert spied.allreduces == 2  # the two steps before; the failing one reduced nothing


@pytest.mark.faults
@pytest.mark.parametrize("helpers", [0, 1])
@pytest.mark.parametrize(
    "target, watchdog, raised",
    [
        ("loss", False, FloatingPointError),
        ("loss", True, TrainingUnstableError),
        ("grad", True, TrainingUnstableError),
    ],
)
def test_a_non_finite_rank_1_never_reaches_the_reduce(
    tiny_dataset, forced_helpers, monkeypatch, helpers, target, watchdog, raised
):
    spied = _Spied(monkeypatch)
    plan = FaultPlan(numeric_faults=[NumericFault(at_step=1, target=target)])  # rank 1, step 0
    config = GNNTrainConfig(**SMALL, world_size=2, watchdog=watchdog, watchdog_max_rollbacks=0)
    with forced_helpers(helpers), pytest.raises(raised):
        try:
            train_gnn(tiny_dataset.train, tiny_dataset.val, config, fault_plan=plan)
        finally:
            assert spied.running == 0
    assert spied.allreduces == 0
