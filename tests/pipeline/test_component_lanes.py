"""Component lanes: at one rank a large ShaDow batch trains as two parts
(``trainers._cut``), whose forward and backward run as two lanes of the
per-event pool and meet in the step's one loss.

Whether a step splits is a function of its batch alone, so the trained
bits must be the same at every helper count and under every schedule
(the plain loop over the parts is ``_per_event._HELPERS = 0``).  The
split size is patched down to 0 here, as ``_HELPERS`` is, so the tiny
dataset's batches split.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.models import InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.pipeline import GNNTrainConfig, train_gnn, trainers
from repro.sampling import BulkShadowSampler, ShadowSampler
from repro.tensor import Tensor

SMALL = dict(
    epochs=2, batch_size=32, hidden=8, num_layers=2, mlp_layers=2,
    depth=2, fanout=3, bulk_k=2, seed=3,
)
_loops: dict = {}


@pytest.fixture
def split_everything(monkeypatch):
    """Every batch of two components or more splits; records each rank
    step's ``parts`` (``None`` = trained whole)."""
    monkeypatch.setattr(trainers, "_SPLIT_WORK", 0)
    seen = []
    step = trainers._Rank.step

    def recorded(self, graph, loss_fn, recompute=False, fault=None, parts=None):
        seen.append(parts)
        return step(self, graph, loss_fn, recompute, fault, parts)

    monkeypatch.setattr(trainers._Rank, "step", recorded)
    return seen


def _run(data, **overrides):
    """State-dict bytes and per-epoch losses of one ``train_gnn`` call."""
    result = train_gnn(data.train, data.val, GNNTrainConfig(**dict(SMALL, **overrides)))
    weights = {k: v.tobytes() for k, v in result.model.state_dict().items()}
    return weights, [r.train_loss for r in result.history.records]


def _loop(data, forced_helpers, **config):
    """The plain loop over the parts: no helper, one thread."""
    key = tuple(sorted(config.items()))
    if key not in _loops:
        with forced_helpers(0):
            _loops[key] = _run(data, **config)
    return _loops[key]


@pytest.mark.parametrize("helpers", [0, 1, 3])
@pytest.mark.parametrize("mode", ["bulk", "shadow"])
def test_lanes_train_the_loops_bits(tiny_dataset, forced_helpers, split_everything, mode, helpers):
    with forced_helpers(helpers):
        got = _run(tiny_dataset, mode=mode)
    assert split_everything and all(parts is not None for parts in split_everything)
    assert got == _loop(tiny_dataset, forced_helpers, mode=mode)


@pytest.mark.parametrize("helpers", [1, 3])
@pytest.mark.parametrize("mode", ["bulk", "shadow"])
def test_a_fuzzed_schedule_trains_the_loops_bits(
    tiny_dataset, forced_helpers, split_everything, monkeypatch, mode, helpers
):
    """A 0–3 ms sleep before and after each part's forward and backward."""
    fuzz, lock = random.Random(helpers), threading.Lock()
    traverse, backward = InteractionGNN._traverse, Tensor.backward

    def nap():
        with lock:
            pause = fuzz.uniform(0, 0.003)
        time.sleep(pause)

    def jittered_traverse(self, *args, **kwargs):
        nap()
        try:
            return traverse(self, *args, **kwargs)
        finally:
            nap()

    def jittered_backward(self, grad=None, into=None):
        if into is None:  # the trainer's backward; parts stage theirs
            return backward(self, grad)
        nap()
        try:
            return backward(self, grad, into)
        finally:
            nap()

    monkeypatch.setattr(InteractionGNN, "_traverse", jittered_traverse)
    monkeypatch.setattr(Tensor, "backward", jittered_backward)
    with forced_helpers(helpers):
        got = _run(tiny_dataset, mode=mode)
    assert got == _loop(tiny_dataset, forced_helpers, mode=mode)


@pytest.mark.timeout(90)
@pytest.mark.parametrize("mode", ["bulk", "shadow"])
def test_a_thread_switch_every_microsecond_trains_the_loops_bits(
    tiny_dataset, forced_helpers, split_everything, mode
):
    reference = _loop(tiny_dataset, forced_helpers, mode=mode, epochs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_helpers(1):
            got = _run(tiny_dataset, mode=mode, epochs=1)
    finally:
        sys.setswitchinterval(interval)
    assert got == reference


@pytest.mark.parametrize("sampler", [BulkShadowSampler, ShadowSampler])
def test_float64_split_gradients_match_the_whole_batch(tiny_dataset, forced_helpers, sampler):
    config = GNNTrainConfig(**SMALL, precision="float64")
    graph = tiny_dataset.train[0]
    rng = np.random.default_rng(0)
    batch = sampler(depth=2, fanout=3).sample(
        graph, rng.choice(graph.num_nodes, 16, replace=False), rng
    )
    parts = trainers._cut(batch, hidden=10**9)
    assert parts is not None and sum(p.num_edges for p in parts) == batch.graph.num_edges
    model = trainers._model_factory(config, graph.num_node_features, graph.num_edge_features)()
    rank = trainers._Rank(0, model, Adam(model.parameters(), lr=1e-3))
    loss_fn = BCEWithLogitsLoss(pos_weight=3.0)

    def gradients(cut):
        loss = rank.step(batch.graph, loss_fn, parts=cut)
        # the last block's vertex update is never read: no gradient
        return loss, [p.grad.copy() for p in model.parameters() if p.grad is not None]

    whole_loss, whole = gradients(None)
    with forced_helpers(1):
        split_loss, split = gradients(parts)
    assert split_loss == pytest.approx(whole_loss, rel=1e-12)
    assert len(whole) == len(split) > 0
    for a, b in zip(whole, split):
        assert np.linalg.norm(a - b) <= 1e-10 * max(np.linalg.norm(a), 1e-300)


@pytest.mark.parametrize("sampler", [BulkShadowSampler, ShadowSampler])
def test_both_samplers_lay_components_on_contiguous_ranges(tiny_dataset, sampler):
    """What lets ``_cut`` take its parts as views."""
    rng = np.random.default_rng(1)
    for graph in tiny_dataset.train:
        batch = sampler(depth=2, fanout=3).sample(
            graph, rng.choice(graph.num_nodes, 32, replace=False), rng
        )
        comp = batch.component_ids
        assert np.all(np.diff(comp) >= 0)
        assert np.all(np.diff(comp[batch.graph.rows]) >= 0)
        assert np.array_equal(comp[batch.graph.rows], comp[batch.graph.cols])


def test_a_one_component_batch_stays_whole(tiny_dataset):
    graph = tiny_dataset.train[0]
    rng = np.random.default_rng(0)
    batch = BulkShadowSampler(depth=2, fanout=3).sample(graph, np.array([5]), rng)
    assert batch.num_components == 1
    assert trainers._cut(batch, hidden=10**9) is None


def test_a_recomputed_step_stays_whole(tiny_dataset, split_everything, monkeypatch):
    build = trainers.EpochPlan.build

    def recomputed(*args, **kwargs):
        plan = build(*args, **kwargs)
        steps = tuple(dataclasses.replace(s, recompute=True) for s in plan.steps)
        return dataclasses.replace(plan, steps=steps)

    monkeypatch.setattr(trainers.EpochPlan, "build", recomputed)
    result = train_gnn(tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**dict(SMALL, epochs=1)))
    assert result.checkpointed_steps == result.trained_steps > 0
    assert split_everything and all(parts is None for parts in split_everything)


def test_full_graph_mode_stays_whole(tiny_dataset, split_everything):
    config = GNNTrainConfig(**dict(SMALL, epochs=1), mode="full")
    train_gnn(tiny_dataset.train, tiny_dataset.val, config)
    assert split_everything and all(parts is None for parts in split_everything)


def test_a_forward_over_parts_refuses_recompute(tiny_dataset):
    graph = tiny_dataset.train[0]
    rng = np.random.default_rng(0)
    batch = BulkShadowSampler(depth=2, fanout=3).sample(
        graph, rng.choice(graph.num_nodes, 8, replace=False), rng
    )
    config = GNNTrainConfig(**SMALL)
    model = trainers._model_factory(config, graph.num_node_features, graph.num_edge_features)()
    with pytest.raises(ValueError, match="recompute"):
        model.logits(trainers._cut(batch, hidden=10**9), recompute=True)


class _Contract:
    """Per rank step: the calls the ledger's traced run relies on, and the
    thread of every parameter ``.grad`` write."""

    def __init__(self, monkeypatch) -> None:
        self.local = threading.local()
        self.lock = threading.Lock()
        self.steps = []  # one dict of call counts per rank step
        self.running = 0  # rank steps running now
        self.stray = []  # calls made during a step off its thread, or nested
        self.owner = {}  # id(parameter) -> grank
        self.lane = {}  # grank -> thread running its step now, or None
        self.bad_writes = []
        step = trainers._Rank.step
        forward, loss, backward = (
            InteractionGNN.forward, BCEWithLogitsLoss.__call__, Tensor.backward
        )
        contract = self

        def counted_step(rank, *args):
            for p in rank.model.parameters():
                contract.owner[id(p)] = rank.grank
            calls = {"forward": 0, "loss": 0, "backward": 0, "split": args[-1] is not None}
            contract.lane[rank.grank] = threading.get_ident()
            contract.local.calls, contract.local.depth = calls, 0
            with contract.lock:
                contract.running += 1
            try:
                return step(rank, *args)
            finally:
                contract.local.calls = contract.lane[rank.grank] = None
                with contract.lock:
                    contract.running -= 1
                    contract.steps.append(calls)

        def top_level(kind, call, staged=False):
            calls = getattr(contract.local, "calls", None)
            depth = getattr(contract.local, "depth", 0)
            if calls is not None and depth == 0 and not staged:
                calls[kind] += 1
            elif not staged and contract.running:  # not validation's forwards
                with contract.lock:
                    contract.stray.append(kind)
            contract.local.depth = depth + 1
            try:
                return call()
            finally:
                contract.local.depth = depth

        monkeypatch.setattr(trainers._Rank, "step", counted_step)
        monkeypatch.setattr(
            InteractionGNN, "forward",
            lambda self, *a, **k: top_level("forward", lambda: forward(self, *a, **k)),
        )
        monkeypatch.setattr(
            BCEWithLogitsLoss, "__call__",
            lambda self, *a: top_level("loss", lambda: loss(self, *a)),
        )
        monkeypatch.setattr(
            Tensor, "backward",
            lambda self, grad=None, into=None: top_level(
                "backward", lambda: backward(self, grad, into), staged=into is not None
            ),
        )
        slot = Tensor.__dict__["grad"]

        def write(tensor, value):  # the all-reduce writes after the steps
            lane = contract.lane.get(contract.owner.get(id(tensor)))
            if lane is not None and threading.get_ident() != lane:
                contract.bad_writes.append(contract.owner[id(tensor)])
            slot.__set__(tensor, value)

        monkeypatch.setattr(Tensor, "grad", property(slot.__get__, write))


@pytest.mark.parametrize("world, helpers", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_each_rank_step_keeps_the_traced_runs_call_contract(
    tiny_dataset, forced_helpers, monkeypatch, world, helpers
):
    monkeypatch.setattr(trainers, "_SPLIT_WORK", 0)
    contract = _Contract(monkeypatch)
    with forced_helpers(helpers):
        result = train_gnn(
            tiny_dataset.train, tiny_dataset.val, GNNTrainConfig(**SMALL, world_size=world)
        )
    assert len(contract.steps) == result.trained_steps * world
    assert all(s["split"] == (world == 1) for s in contract.steps)
    for calls in contract.steps:
        assert (calls["forward"], calls["loss"], calls["backward"]) == (1, 1, 1)
    assert contract.stray == []
    assert contract.bad_writes == []
