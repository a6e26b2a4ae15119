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

from repro.nn import Module
from repro.obs import RunTelemetry, get_tracer, use_telemetry
from repro.pipeline import FilterStage, PipelineConfig
from repro.pipeline._per_event import per_event
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
