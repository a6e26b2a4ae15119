"""Tracer: span nesting, export round-trips, and the null no-op guard."""

import json
import sys
import threading
import time

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer


class TestNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.depth == 0
        assert outer.parent_id is None

    def test_close_order_children_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.spans] == ["b", "a"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("s1") as s1:
                pass
            with tracer.span("s2") as s2:
                pass
        assert s1.parent_id == root.span_id == s2.parent_id
        assert {c.name for c in tracer.children_of(root)} == {"s1", "s2"}

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                time.sleep(0.005)
        assert inner.duration_s > 0
        assert outer.duration_s >= inner.duration_s
        assert outer.start_s <= inner.start_s
        assert outer.end_s >= inner.end_s

    def test_exception_recorded_and_span_closed(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.attributes["error"] == "ValueError"
        # stack unwound: a new root span has depth 0
        with tracer.span("next") as nxt:
            pass
        assert nxt.depth == 0

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("s", category="comm", nbytes=128) as span:
            span.set(modeled_s=1.5)
        assert span.attributes == {"nbytes": 128, "modeled_s": 1.5}

    def test_totals_and_counts(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("x"):
                pass
        assert tracer.count("x") == 3
        assert tracer.total("x") >= 0.0
        assert tracer.total("missing") == 0.0

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.event("retry", rank=2)
        (event,) = tracer.events
        assert event["name"] == "retry"
        assert event["parent"] == span.span_id
        assert event["attrs"] == {"rank": 2}

    def test_nested_spans_on_many_threads(self):
        """Eight threads each open a nested tree at once: every span is
        recorded exactly once with a unique id, and a child's parent is
        the span open on its own thread (same ``tid``, same worker)."""
        tracer = Tracer()
        workers, rounds = 8, 50
        start, errors = threading.Barrier(workers), []

        def worker(k):
            try:
                start.wait(timeout=30)
                with tracer.span("outer", worker=k):
                    for _ in range(rounds):
                        with tracer.span("mid", worker=k):
                            with tracer.span("leaf", worker=k):
                                pass
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]

        spans = tracer.spans
        assert len(spans) == workers * (1 + 2 * rounds)
        assert len({id(s) for s in spans}) == len(spans)
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)
        expected_parent = {"outer": None, "mid": "outer", "leaf": "mid"}
        for span in spans:
            if span.parent_id is None:
                assert expected_parent[span.name] is None
                continue
            parent = by_id[span.parent_id]
            assert parent.name == expected_parent[span.name]
            assert parent.tid == span.tid
            assert parent.attributes["worker"] == span.attributes["worker"]
        lanes = {s.attributes["worker"]: s.tid for s in spans if s.name == "outer"}
        assert len(lanes) == workers and len(set(lanes.values())) == workers
        assert 0 not in lanes.values()  # the creating thread's lane stays unused


class TestExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("epoch", category="stage"):
            with tracer.span("sampling", category="stage", roots=4):
                pass
            tracer.event("fault", rank=1)
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self._traced()
        path = str(tmp_path / "trace.jsonl")
        tracer.write_jsonl(path)
        records = [json.loads(line) for line in open(path)]
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert {s["name"] for s in spans} == {"epoch", "sampling"}
        by_name = {s["name"]: s for s in spans}
        assert by_name["sampling"]["parent"] == by_name["epoch"]["id"]
        assert by_name["sampling"]["attrs"] == {"roots": 4}
        assert by_name["sampling"]["dur"] == pytest.approx(
            by_name["sampling"]["t1"] - by_name["sampling"]["t0"]
        )
        assert events[0]["name"] == "fault"

    def test_chrome_trace_schema(self):
        tracer = self._traced()
        payload = tracer.to_chrome_trace(metadata={"seed": 7})
        assert payload["otherData"] == {"seed": 7}
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"M", "X", "i"}
        for e in events:
            if e["ph"] == "M":
                continue
            assert isinstance(e["ts"], float)
            assert "pid" in e and "tid" in e
            if e["ph"] == "X":
                assert e["dur"] >= 0.0
        # microsecond conversion: span duration in seconds * 1e6
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        epoch = next(s for s in tracer.spans if s.name == "epoch")
        assert xs["epoch"]["dur"] == pytest.approx(epoch.duration_s * 1e6)

    def test_chrome_trace_is_json_serialisable(self, tmp_path):
        path = str(tmp_path / "trace.json")
        self._traced().write_chrome_trace(path)
        payload = json.load(open(path))
        assert payload["traceEvents"]


class TestRemoteIngestion:
    """Cross-process merging: drained worker records land in the driver
    trace as their own pid lane on the driver's timeline."""

    def _remote(self):
        worker = Tracer()
        with worker.span("comm.worker.allreduce", seq=3):
            with worker.span("comm.worker.reduce", step=0):
                pass
        worker.event("comm.worker.aborted", seq=3)
        return worker

    def test_drain_records_snapshots_and_clears(self):
        worker = self._remote()
        spans, events = worker.drain_records()
        assert {s["name"] for s in spans} == {
            "comm.worker.allreduce", "comm.worker.reduce"
        }
        assert events[0]["name"] == "comm.worker.aborted"
        assert worker.spans == [] and worker.events == []
        assert worker.drain_records() == ([], [])

    def test_drain_leaves_open_spans_for_later(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
            spans, _ = worker.drain_records()
            assert [s["name"] for s in spans] == ["inner"]
        spans, _ = worker.drain_records()
        assert [s["name"] for s in spans] == ["outer"]

    def test_pid_zero_is_rejected(self):
        driver = Tracer()
        with pytest.raises(ValueError, match="pid 0"):
            driver.ingest_remote([], [], pid=0, process_name="rank 0")

    def test_time_shift_rebases_remote_lane(self):
        driver = Tracer()
        worker = self._remote()
        spans, events = worker.drain_records()
        t0 = spans[0]["t0"]
        shift = worker.origin - driver.origin
        driver.ingest_remote(
            spans, events, pid=2, process_name="rank 1",
            time_shift=shift, rank=1,
        )
        assert driver.remote_spans[0]["t0"] == pytest.approx(t0 + shift)
        assert driver.remote_spans[0]["pid"] == 2
        assert driver.remote_spans[0]["rank"] == 1
        assert driver.remote_events[0]["pid"] == 2

    def test_chrome_trace_gets_lane_per_process(self):
        driver = Tracer()
        with driver.span("driver.step"):
            pass
        for rank in range(2):
            worker = self._remote()
            spans, events = worker.drain_records()
            driver.ingest_remote(
                spans, events, pid=rank + 1,
                process_name=f"rank {rank}", rank=rank,
            )
        payload = driver.to_chrome_trace()
        events = payload["traceEvents"]
        lane_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert lane_names[1] == "rank 0" and lane_names[2] == "rank 1"
        xs_by_pid = {}
        for e in events:
            if e["ph"] == "X":
                xs_by_pid.setdefault(e["pid"], set()).add(e["name"])
        assert xs_by_pid[0] == {"driver.step"}
        for pid in (1, 2):
            assert "comm.worker.allreduce" in xs_by_pid[pid]
        instants = [e for e in events if e["ph"] == "i" and e["pid"] == 1]
        assert any(e["name"] == "comm.worker.aborted" for e in instants)

    def test_remote_records_survive_jsonl_export(self, tmp_path):
        driver = Tracer()
        worker = self._remote()
        spans, events = worker.drain_records()
        driver.ingest_remote(
            spans, events, pid=1, process_name="rank 0", rank=0
        )
        path = str(tmp_path / "t.jsonl")
        driver.write_jsonl(path)
        records = [json.loads(line) for line in open(path)]
        remote = [r for r in records if r.get("pid") == 1]
        assert {r["name"] for r in remote if r["type"] == "span"} == {
            "comm.worker.allreduce", "comm.worker.reduce"
        }
        assert all(r.get("rank") == 0 for r in remote if r["type"] == "span")


class TestExportGolden:
    """Both exports walk one record stream — local spans, local events,
    ingested spans, ingested events.  A fixed clock (0.25 s per reading)
    and one ingested rank pin every exported field and the order; the
    comparison is on the JSON text, so key order counts too."""

    @staticmethod
    def _trace():
        def fixed_clock():
            state = {"t": 0.0}

            def clock():
                state["t"] += 0.25
                return state["t"]

            return clock

        worker = Tracer(clock=fixed_clock())
        with worker.span("comm.worker.allreduce", category="comm.worker", seq=1, nelems=8):
            with worker.span("comm.worker.reduce", category="comm.worker", step=0, chunk=1):
                pass
            worker.event("comm.worker.aborted", category="comm.worker", seq=1)
        driver = Tracer(clock=fixed_clock())
        with driver.span("epoch", category="train", epoch=0):
            with driver.span("batch", category="train"):
                driver.event("watchdog.skip", category="train", reason="spike")
        driver.ingest_remote(
            *worker.drain_records(), pid=2, process_name="rank 1", time_shift=0.5, rank=1
        )
        return driver

    def test_jsonl(self):
        assert self._trace().to_jsonl_lines() == [
            '{"type": "span", "name": "batch", "cat": "train", "t0": 0.5, "t1": 1.0, '
            '"dur": 0.5, "id": 1, "parent": 0, "depth": 1, "tid": 0, "attrs": {}}',
            '{"type": "span", "name": "epoch", "cat": "train", "t0": 0.25, "t1": 1.25, '
            '"dur": 1.0, "id": 0, "parent": null, "depth": 0, "tid": 0, "attrs": {"epoch": 0}}',
            '{"type": "event", "name": "watchdog.skip", "cat": "train", "t": 0.75, '
            '"parent": 1, "tid": 0, "attrs": {"reason": "spike"}}',
            '{"type": "span", "name": "comm.worker.reduce", "cat": "comm.worker", "t0": 1.0, '
            '"t1": 1.25, "dur": 0.25, "id": 1, "parent": 0, "depth": 1, "tid": 0, '
            '"attrs": {"step": 0, "chunk": 1}, "pid": 2, "rank": 1}',
            '{"type": "span", "name": "comm.worker.allreduce", "cat": "comm.worker", "t0": 0.75, '
            '"t1": 1.75, "dur": 1.0, "id": 0, "parent": null, "depth": 0, "tid": 0, '
            '"attrs": {"seq": 1, "nelems": 8}, "pid": 2, "rank": 1}',
            '{"type": "event", "name": "comm.worker.aborted", "cat": "comm.worker", "t": 1.5, '
            '"parent": 0, "tid": 0, "attrs": {"seq": 1}, "pid": 2, "rank": 1}',
        ]

    def test_chrome_trace(self):
        def lane(pid, name):
            return {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": name}}

        def complete(name, cat, ts, dur, pid, args):
            return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
                    "pid": pid, "tid": 0, "args": args}

        def instant(name, cat, ts, pid, args):
            return {"name": name, "cat": cat, "ph": "i", "ts": ts, "pid": pid,
                    "tid": 0, "s": "t", "args": args}

        expected = {
            "traceEvents": [
                lane(0, "repro"),
                lane(2, "rank 1"),
                complete("batch", "train", 500000.0, 500000.0, 0,
                         {"depth": 1, "id": 1, "parent": 0}),
                complete("epoch", "train", 250000.0, 1000000.0, 0,
                         {"epoch": 0, "depth": 0, "id": 0, "parent": None}),
                instant("watchdog.skip", "train", 750000.0, 0, {"reason": "spike"}),
                complete("comm.worker.reduce", "comm.worker", 1000000.0, 250000.0, 2,
                         {"step": 0, "chunk": 1, "depth": 1, "id": 1, "parent": 0, "rank": 1}),
                complete("comm.worker.allreduce", "comm.worker", 750000.0, 1000000.0, 2,
                         {"seq": 1, "nelems": 8, "depth": 0, "id": 0, "parent": None, "rank": 1}),
                instant("comm.worker.aborted", "comm.worker", 1500000.0, 2,
                        {"seq": 1, "rank": 1}),
            ],
            "displayTimeUnit": "ms",
            "otherData": {"seed": 0},
        }
        got = self._trace().to_chrome_trace({"seed": 0})
        assert json.dumps(got) == json.dumps(expected)


class TestNullTracer:
    def test_span_is_shared_noop(self):
        tracer = NullTracer()
        s1 = tracer.span("a", nbytes=1)
        s2 = tracer.span("b")
        assert s1 is s2  # no allocation per call
        with s1 as entered:
            entered.set(anything=1)  # swallowed
        assert tracer.spans == ()
        assert tracer.events == ()

    def test_event_is_noop(self):
        NULL_TRACER.event("x", rank=1)
        assert NULL_TRACER.events == ()

    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_overhead_is_negligible(self):
        # The no-op guard: 200k disabled spans must cost well under a
        # second (in practice ~tens of ms) — no timestamps, no buffers.
        start = time.perf_counter()
        for _ in range(200_000):
            with NULL_TRACER.span("hot"):
                pass
        assert time.perf_counter() - start < 2.0
