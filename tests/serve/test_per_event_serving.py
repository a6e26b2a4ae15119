"""A batch's events run on every core and still equal the per-event loop.

Helper threads are forced by patching the private helper count (it is
not a knob), so the threaded path runs on any core count.
"""

from __future__ import annotations

import json
import os
import select
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _per_event
from repro.detector import Event
from repro.obs import RunTelemetry, use_telemetry
from repro.pipeline import load_pipeline, save_pipeline
from repro.serve import InferenceEngine, ServeConfig
from repro.tensor import default_dtype

from .conftest import assert_tracks_equal


@pytest.fixture(scope="module")
def pool_events(serve_events):
    """The serving events plus a one-hit event, whose graph has no edge."""
    e = serve_events[0]
    lone = Event(
        positions=e.positions[:1], layer_ids=e.layer_ids[:1],
        particle_ids=e.particle_ids[:1], hit_order=e.hit_order[:1],
        particles=e.particles, event_id=990,
    )
    return list(serve_events) + [lone]


@pytest.fixture(scope="module")
def looped(forced_helpers, serve_pipeline, pool_events):
    """The per-event loop: one ``reconstruct`` per event, one thread."""
    with forced_helpers(0):
        assert serve_pipeline.construction.build(pool_events[-1]).num_edges == 0
        return [serve_pipeline.reconstruct(e) for e in pool_events]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=9),
    helpers=st.sampled_from([1, 3]),
)
def test_every_batch_equals_the_per_event_loop(
    forced_helpers, serve_pipeline, pool_events, looped, picks, helpers
):
    events = [pool_events[i] for i in picks]  # duplicates and the empty graph included
    with forced_helpers(helpers):
        served = {"reconstruct_many": serve_pipeline.reconstruct_many(events)}
        for workers in (0, 2):
            config = ServeConfig(max_batch_events=9, workers=workers)
            with InferenceEngine(serve_pipeline, config) as engine:
                requests = engine.process(events)
            assert all(r.status == "done" and not r.degraded for r in requests)
            served[f"workers={workers}"] = [r.tracks for r in requests]
    for how, results in served.items():
        for i, tracks in zip(picks, results):
            assert_tracks_equal(looped[i], tracks, how)


def test_a_forward_that_raises_leaves_the_events_before_it_at_full_quality(
    forced_helpers, serve_pipeline, serve_events, looped, monkeypatch
):
    k = 2
    bad = serve_events[k].event_id
    gnn_prune = serve_pipeline.gnn_prune

    def flaky(graph):
        if graph.event_id == bad:
            raise RuntimeError("gnn forward failed")
        return gnn_prune(graph)

    monkeypatch.setattr(serve_pipeline, "gnn_prune", flaky)
    with forced_helpers(3):
        config = ServeConfig(max_batch_events=len(serve_events), cache_capacity=0)
        with InferenceEngine(serve_pipeline, config) as engine:
            requests = engine.process(serve_events)
    assert [r.degraded for r in requests] == [i >= k for i in range(len(requests))]
    assert all(r.status == "done" for r in requests)
    for expected, request in zip(looped[:k], requests[:k]):
        assert_tracks_equal(expected, request.tracks)


def test_float64_override_reaches_the_helpers(
    forced_helpers, serve_pipeline, serve_events
):
    events = serve_events[:4]
    with default_dtype(np.float64):
        with forced_helpers(0):
            sequential = [serve_pipeline.reconstruct(e) for e in events]
        with forced_helpers(3):
            parallel = serve_pipeline.reconstruct_many(events)
    for seq, par in zip(sequential, parallel):
        assert_tracks_equal(seq, par)


def test_served_spans_form_one_chain_across_thread_lanes(
    forced_helpers, serve_pipeline, serve_events, monkeypatch, tmp_path
):
    barrier = threading.Barrier(2, timeout=10)  # two forwards must overlap
    meet = {serve_events[0].event_id, serve_events[1].event_id}
    gnn_prune = serve_pipeline.gnn_prune

    def overlapping(graph):
        if graph.event_id in meet:
            barrier.wait()
        return gnn_prune(graph)

    monkeypatch.setattr(serve_pipeline, "gnn_prune", overlapping)
    telemetry = RunTelemetry()
    with forced_helpers(1), use_telemetry(telemetry):
        config = ServeConfig(max_batch_events=4, cache_capacity=0)
        with InferenceEngine(serve_pipeline, config) as engine:
            engine.process(serve_events[:4])
    path = str(tmp_path / "trace.jsonl")
    telemetry.tracer.write_jsonl(path)
    with open(path) as fh:
        spans = {r["id"]: r for r in map(json.loads, fh) if r["type"] == "span"}

    def chain(span):
        names = [span["name"]]
        while span["parent"] is not None:
            span = spans[span["parent"]]
            names.append(span["name"])
        return names

    gnn = [s for s in spans.values() if s["name"] == "pipeline.gnn"]
    assert len(gnn) == 4 and len({s["tid"] for s in gnn}) == 2
    for span in gnn:
        assert chain(span) == ["pipeline.gnn", "serve.stage.gnn", "serve.batch"]
    for span in spans.values():
        if span["name"] == "pipeline.track_building":
            assert chain(span)[1:] == ["serve.stage.gnn", "serve.batch"]


def test_a_forked_child_starts_without_helpers(
    forced_helpers, serve_pipeline, serve_events, looped
):
    with forced_helpers(3):
        serve_pipeline.reconstruct_many(serve_events)  # the pool's threads are up
        parent_pool = _per_event._pool
        assert parent_pool._threads
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report, never return into pytest
            try:
                fresh = _per_event._pool is not parent_pool and not _per_event._pool._threads
                ok = fresh and all(
                    len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
                    for a, b in zip(serve_pipeline.reconstruct_many(serve_events), looped)
                )
                os.write(write_end, b"1" if ok else b"0")
            finally:
                os._exit(0)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 60)
        verdict = os.read(read_end, 1) if ready else b""
    finally:
        os.close(read_end)
        if not verdict:
            os.kill(pid, 9)
        os.waitpid(pid, 0)
    assert verdict == b"1", "forked child hung or served different tracks"


def test_fitted_loaded_and_cast_stage_nets_are_in_eval_mode(
    serve_pipeline, geometry, tmp_path
):
    def nets(pipe):
        return [pipe.embedding.net, pipe.filter.net, pipe.gnn.model]

    path = str(tmp_path / "pipe.npz")
    save_pipeline(serve_pipeline, path)
    loaded = load_pipeline(path, geometry)
    for pipe in (serve_pipeline, loaded, loaded.astype(np.float64)):
        assert not any(m.training for net in nets(pipe) for m in net.modules())


def test_a_request_nobody_waited_on_holds_no_threading_primitive(
    serve_pipeline, serve_events
):
    with InferenceEngine(serve_pipeline, ServeConfig()) as engine:
        requests = engine.process(serve_events)
    primitives = (type(threading.Event()), type(threading.Lock()), threading.Condition)
    for request in requests:
        assert not any(isinstance(getattr(request, f.name), primitives) for f in fields(request))
        assert request.result(timeout=0) is request.tracks
