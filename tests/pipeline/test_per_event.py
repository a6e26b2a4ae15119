"""The per-event map: the loop's results, in the loop's order, on every core.

Helper threads are forced by patching the private helper count, so these
cases run the threaded path on any machine.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro._per_event import per_event
from repro.data import EpochPlan, PrefetchLoader
from repro.graph import random_graph
from repro.nn import Module
from repro.obs import RunTelemetry, get_tracer, use_telemetry
from repro.pipeline import FilterStage, PipelineConfig
from repro.sampling import BulkShadowSampler
from repro.tensor import default_dtype, get_default_dtype


def _in_thread(fn, timeout=30.0):
    """Run ``fn`` on a thread; fail (not hang) if it does not finish in time."""
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault("value", fn()), daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "per-event map did not finish in time"
    return out["value"]


@pytest.mark.parametrize("helpers", [0, 1, 3])
def test_results_keep_item_order(forced_helpers, helpers):
    def slow_square(i, j):
        time.sleep(0.001 * (i % 3))
        return i * i + j

    with forced_helpers(helpers):
        assert list(per_event(slow_square, range(20), range(20))) == [
            i * i + i for i in range(20)
        ]
        assert list(per_event(slow_square, [], [])) == []


def test_items_run_on_two_threads_at_once(forced_helpers):
    barrier = threading.Barrier(2, timeout=10)  # neither item can finish alone

    def meet(i):
        barrier.wait()
        return threading.get_ident()

    with forced_helpers(1):
        lanes = _in_thread(lambda: list(per_event(meet, range(2))))
    assert len(set(lanes)) == 2


def test_errors_come_back_in_item_order(forced_helpers):
    def fn(i):
        if i == 2:
            time.sleep(0.05)  # item 5 fails first in time, item 2 first in order
            raise ValueError("item 2")
        if i == 5:
            raise KeyError("item 5")
        return i

    with forced_helpers(3):
        results = per_event(fn, range(12))
        assert [next(results), next(results)] == [0, 1]
        with pytest.raises(ValueError, match="item 2"):
            next(results)


def test_a_map_inside_an_item_runs_as_a_plain_loop(forced_helpers):
    def inner_item(j):
        time.sleep(0.002)  # long enough for an idle helper to claim one
        return j, threading.get_ident()

    def outer(i):
        inner = list(per_event(inner_item, range(4)))
        assert {ident for _, ident in inner} == {threading.get_ident()}
        return [j for j, _ in inner]

    # two outer items, two helpers: one helper is idle during the inner maps
    with forced_helpers(2):
        assert _in_thread(lambda: list(per_event(outer, range(2)))) == [[0, 1, 2, 3]] * 2


@pytest.mark.parametrize("outer_items", [1, 2])
def test_a_map_nested_in_a_one_item_map_may_use_the_idle_helper(forced_helpers, outer_items):
    """A one-item map claims no helper, so its item's map may; a map that
    claimed one runs its items' maps as plain loops, even beside an idle
    helper.  The bits are the loop's either way."""
    lone = outer_items == 1
    barrier = threading.Barrier(2, timeout=10)  # lone: neither inner item finishes alone

    def inner_item(j):
        if lone:
            barrier.wait()
        a = np.random.default_rng(j).standard_normal((64, 64))
        return a @ a.T, threading.get_ident()

    def outer(i):
        inner = list(per_event(inner_item, range(2)))
        return [a for a, _ in inner], {ident for _, ident in inner}

    def run():
        return _in_thread(lambda: list(per_event(outer, range(outer_items))))

    with forced_helpers(2):  # two outer items claim one helper; one stays idle
        got = run()
    with forced_helpers(0):
        barrier = threading.Barrier(1)  # the loop: one thread
        loop = [a for a, _ in run()]
    assert [len(idents) for _, idents in got] == ([2] if lone else [1, 1])
    assert all(
        np.array_equal(a, b) for (mine, _), theirs in zip(got, loop) for a, b in zip(mine, theirs)
    )


def test_concurrent_maps_share_the_pool_and_finish(forced_helpers):
    def fn(i):
        time.sleep(0.001)
        return -i

    results = [None] * 4

    def caller(k):
        results[k] = list(per_event(fn, range(10 * (k + 1))))

    with forced_helpers(1):
        threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[-i for i in range(10 * (k + 1))] for k in range(4)]


def test_a_map_and_a_prefetched_epoch_share_one_helper(forced_helpers):
    """One cell of the schedule fuzz: two users of one pool, each bit for
    bit its solo run."""
    graphs = [
        random_graph(120, 480, rng=np.random.default_rng(i), true_fraction=0.3) for i in (1, 2)
    ]
    plan = EpochPlan.build(graphs, 16, 3, np.random.default_rng(0))
    loader = PrefetchLoader(BulkShadowSampler(depth=2, fanout=3), workers=1)

    def epoch():
        return [
            np.concatenate([a for s in sampled[rank] for a in (s.node_parent, s.edge_parent)])
            for _, sampled in loader.iter_epoch(plan, lambda: (0, 1))
            for rank in (0, 1)
        ]

    def item(seed):
        time.sleep(0.002)  # leave the helper free between items now and then
        a = np.random.default_rng(seed).standard_normal((64, 64))
        return a @ a.T

    def mapped():
        return list(per_event(item, range(12)))

    with forced_helpers(1):
        solo = [_in_thread(epoch), _in_thread(mapped)]
        both = [None, None]

        def run(k, fn):
            both[k] = fn()

        threads = [
            threading.Thread(target=run, args=(k, fn), daemon=True)
            for k, fn in enumerate((epoch, mapped))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    for alone, shared in zip(solo, both):
        assert len(alone) == len(shared) > 1
        assert all(np.array_equal(a, b) for a, b in zip(alone, shared))


def test_every_item_runs_once_under_frequent_thread_switches(forced_helpers):
    ran = []  # list.append is atomic; a double or lost claim shows in it

    def fn(i):
        ran.append(i)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with forced_helpers(6):  # more helpers than cores
            for _ in range(20):
                ran.clear()
                assert _in_thread(lambda: list(per_event(fn, range(200)))) == list(range(200))
                assert sorted(ran) == list(range(200))
    finally:
        sys.setswitchinterval(interval)


def test_helpers_inherit_the_default_dtype_override(forced_helpers):
    barrier = threading.Barrier(2, timeout=10)  # one item runs on a helper

    def dtype(i):
        barrier.wait()
        return get_default_dtype()

    with forced_helpers(1), default_dtype(np.float64):
        assert list(per_event(dtype, range(2))) == [np.float64] * 2


def test_helper_spans_are_children_of_the_callers_open_span(
    forced_helpers, tmp_path
):
    barrier = threading.Barrier(2, timeout=10)

    def item(i):
        with get_tracer().span("item", i=i):
            barrier.wait()

    telemetry = RunTelemetry()
    with forced_helpers(1), use_telemetry(telemetry):
        with get_tracer().span("outer") as outer:
            list(per_event(item, range(2)))
    path = tmp_path / "trace.jsonl"
    telemetry.tracer.write_jsonl(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    items = [r for r in records if r["name"] == "item"]
    assert len(items) == 2
    assert {r["parent"] for r in items} == {outer.span_id}
    assert len({r["tid"] for r in items}) == 2
    assert all(r["depth"] == outer.depth + 1 for r in items)


def test_fitted_filter_scores_from_two_threads_without_writing_module_state(
    medium_graph,
):
    stage = FilterStage(PipelineConfig(filter_epochs=1)).fit(
        [medium_graph], np.random.default_rng(0)
    )
    net = stage.net
    assert not any(m.training for m in net.modules())
    expected = net.predict_proba(medium_graph)
    writes = []
    train = Module.train

    def recording_train(self, mode=True):
        writes.append(mode)
        return train(self, mode)

    def score():
        return [net.predict_proba(medium_graph) for _ in range(10)]

    with mock.patch.object(Module, "train", recording_train):
        threads_out = [None, None]

        def run(k):
            threads_out[k] = score()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    assert writes == []
    assert not net.training
    for scores in threads_out[0] + threads_out[1]:
        assert np.array_equal(scores, expected)
