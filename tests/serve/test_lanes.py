"""The threaded engine's lanes: ``workers=W`` starts W threads, each of
which runs the synchronous engine's one dispatch step, :meth:`pump`.

No batcher thread and no private pool: the engine adds exactly W live
threads, ``next_due_time()`` is ``None`` exactly while every lane is busy,
and a closing engine's lanes drain the queue before ``close()`` joins
them.
"""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro import _per_event
from repro.serve import InferenceEngine, ServeConfig


def _serve_threads(threads):
    return sorted(t.name for t in threads if t.name.startswith("repro-serve"))


@contextlib.contextmanager
def held_lanes(pipe, monkeypatch):
    """``(gate, entered)``: every upstream call releases ``entered`` and
    then blocks until ``gate`` is set, so a test can hold lanes busy."""
    gate, entered = threading.Event(), threading.Semaphore(0)
    upstream = pipe.upstream_many

    def gated(*args, **kwargs):
        entered.release()
        assert gate.wait(30)
        return upstream(*args, **kwargs)

    monkeypatch.setattr(pipe, "upstream_many", gated)
    try:
        yield gate, entered
    finally:
        gate.set()


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_start_exactly_that_many_lanes(serve_pipeline, workers):
    before = set(threading.enumerate())
    engine = InferenceEngine(serve_pipeline, ServeConfig(workers=workers))
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == workers
        assert _serve_threads(started) == [f"repro-serve-{i}" for i in range(workers)]
    finally:
        engine.close()
    assert not _serve_threads(set(threading.enumerate()) - before)


def test_busy_lanes_hold_the_queue_and_close_drains_it(
    serve_pipeline, serve_events, monkeypatch
):
    """Both lanes held by a gated stage: nothing is due, later submits
    queue up, and a ``close()`` issued meanwhile serves every one."""
    with held_lanes(serve_pipeline, monkeypatch) as (gate, entered):
        engine = InferenceEngine(
            serve_pipeline,
            ServeConfig(max_batch_events=4, max_queue_events=8, workers=2),
        )
        first = []
        for event in serve_events[:2]:  # one at a time: one per lane
            first.append(engine.submit(event))
            assert entered.acquire(timeout=30)
        assert engine.next_due_time() is None  # every lane busy
        later = [engine.submit(e) for e in serve_events[2:5]]
        assert engine.next_due_time() is None
        assert len(engine.queue) == 3 and engine.stats.batches == 0
        closer = threading.Thread(target=engine.close)
        closer.start()
        gate.set()
        closer.join(30)
    assert not closer.is_alive()
    assert [r.status for r in first + later] == ["done"] * 5
    assert len({r.t_dispatch for r in later}) == 1  # one batch, taken by a lane
    assert engine.stats.batches == 3
    assert engine.stats.terminal == engine.stats.submitted == 5


@pytest.mark.parametrize("workers", [1, 2])
def test_serving_threads_stay_within_lanes_plus_helpers(
    serve_pipeline, serve_events, monkeypatch, forced_helpers, workers
):
    """Live threads while a batch of several events is served: the
    caller's baseline, the W lanes and the per-event helpers — no more."""
    live = []
    finish = serve_pipeline.finish_from_filtered

    def counted(*args, **kwargs):
        live.append(threading.active_count())
        return finish(*args, **kwargs)

    monkeypatch.setattr(serve_pipeline, "finish_from_filtered", counted)
    with forced_helpers(2), held_lanes(serve_pipeline, monkeypatch) as (gate, entered):
        baseline = threading.active_count()
        engine = InferenceEngine(
            serve_pipeline,
            ServeConfig(max_batch_events=4, cache_capacity=0, workers=workers),
        )
        with engine:
            held = []
            for event in serve_events[:workers]:
                held.append(engine.submit(event))
                assert entered.acquire(timeout=30)
            batch = [engine.submit(e) for e in serve_events[workers : workers + 3]]
            gate.set()
            for request in held + batch:
                request.result(timeout=30)
        assert len({r.t_dispatch for r in batch}) == 1  # served as one batch of 3
        assert live and max(live) <= baseline + workers + _per_event._HELPERS
