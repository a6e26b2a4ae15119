"""Trace summarisation + traced training integration (the Figure-3 view)."""

import pytest

from repro.obs import (
    RunTelemetry,
    load_trace,
    phase_totals,
    summarize_trace,
    use_telemetry,
)
from repro.pipeline import GNNTrainConfig, train_gnn

SMALL = dict(
    epochs=2, batch_size=32, hidden=8, num_layers=2, mlp_layers=2,
    depth=2, fanout=3, seed=0,
)


@pytest.fixture(scope="module")
def splits(tiny_dataset):
    return tiny_dataset.train, tiny_dataset.val


def _traced(dataset, mode, world_size):
    telemetry = RunTelemetry.for_run(seed=0, world_size=world_size)
    with use_telemetry(telemetry):
        result = train_gnn(
            dataset.train,
            dataset.val,
            GNNTrainConfig(mode=mode, world_size=world_size, **SMALL),
        )
    return telemetry, result


@pytest.fixture(scope="module")
def traced_run(tiny_dataset):
    """One traced shadow-mode training shared by the integration tests."""
    return _traced(tiny_dataset, "shadow", 2)


@pytest.fixture(scope="module")
def traced_full_run(tiny_dataset):
    """The same for full-graph mode (single-rank by definition)."""
    return _traced(tiny_dataset, "full", 1)


class TestPhaseTotals:
    def _synthetic(self, tmp_path, fmt):
        telemetry = RunTelemetry.for_run(seed=3)
        tracer = telemetry.tracer
        with tracer.span("epoch"):
            with tracer.span("sampling"):
                pass
            with tracer.span("sampling"):
                pass
            with tracer.span("training"):
                pass
        path = str(tmp_path / ("t.jsonl" if fmt == "jsonl" else "t.json"))
        telemetry.write_trace(path)
        return path

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_load_trace_both_formats(self, tmp_path, fmt):
        path = self._synthetic(tmp_path, fmt)
        spans = load_trace(path)
        assert {s.name for s in spans} == {"epoch", "sampling", "training"}
        totals = phase_totals(spans)
        assert totals["sampling"]["count"] == 2
        assert totals["epoch"]["total_s"] >= totals["training"]["total_s"]
        assert totals["sampling"]["mean_s"] == pytest.approx(
            totals["sampling"]["total_s"] / 2
        )

    def test_load_trace_rejects_empty_and_unknown(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_trace(str(empty))
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not_a_trace": []}')
        with pytest.raises(ValueError):
            load_trace(str(bogus))

    def test_summarize_renders_table_and_split(self, tmp_path):
        path = self._synthetic(tmp_path, "chrome")
        lines = summarize_trace(path)
        assert lines[0].startswith("trace:")
        assert "phase" in lines[1]
        assert any(line.startswith("sampling") for line in lines)
        assert lines[-1].startswith("Figure-3 split: sampling")


class TestMultiLane:
    """Merged multi-process traces: per-rank grouping, union wall-clock,
    and JSONL <-> Chrome schema round-tripping of pid/rank tags."""

    def _merged_telemetry(self):
        """Driver telemetry with two ingested worker lanes."""
        from repro.obs import Tracer

        telemetry = RunTelemetry.for_run(seed=0)
        driver = telemetry.tracer
        with driver.span("epoch"):
            pass
        for rank in range(2):
            worker = Tracer()
            with worker.span("comm.worker.allreduce", seq=0):
                pass
            spans, events = worker.drain_records()
            driver.ingest_remote(
                spans, events, pid=rank + 1,
                process_name=f"rank {rank}",
                time_shift=worker.origin - driver.origin,
                rank=rank,
            )
        return telemetry

    @pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
    def test_pid_rank_round_trip_both_formats(self, tmp_path, fmt):
        telemetry = self._merged_telemetry()
        path = str(tmp_path / ("t.jsonl" if fmt == "jsonl" else "t.json"))
        telemetry.write_trace(path)
        spans = load_trace(path)
        by_lane = {}
        for s in spans:
            by_lane.setdefault((s.pid, s.rank), set()).add(s.name)
        assert by_lane[(0, None)] == {"epoch"}
        assert by_lane[(1, 0)] == {"comm.worker.allreduce"}
        assert by_lane[(2, 1)] == {"comm.worker.allreduce"}

    def test_formats_agree_on_phase_totals(self, tmp_path):
        telemetry = self._merged_telemetry()
        chrome = str(tmp_path / "t.json")
        jsonl = str(tmp_path / "t.jsonl")
        telemetry.write_trace(chrome)
        telemetry.write_trace(jsonl)
        t_chrome = phase_totals(load_trace(chrome), per_rank=True)
        t_jsonl = phase_totals(load_trace(jsonl), per_rank=True)
        assert set(t_chrome) == set(t_jsonl)
        for key in t_chrome:
            assert t_chrome[key]["count"] == t_jsonl[key]["count"]
            # chrome stores microseconds; round-trip agrees to ~1 us
            assert t_chrome[key]["total_s"] == pytest.approx(
                t_jsonl[key]["total_s"], abs=1e-5
            )

    def test_per_rank_totals_key_by_lane(self, tmp_path):
        telemetry = self._merged_telemetry()
        path = str(tmp_path / "t.json")
        telemetry.write_trace(path)
        spans = load_trace(path)
        flat = phase_totals(spans)
        assert flat["comm.worker.allreduce"]["count"] == 2  # pooled
        per_rank = phase_totals(spans, per_rank=True)
        assert per_rank["r0/comm.worker.allreduce"]["count"] == 1
        assert per_rank["r1/comm.worker.allreduce"]["count"] == 1
        assert per_rank["driver/epoch"]["count"] == 1

    def test_wall_clock_is_union_of_lane_intervals(self):
        from repro.obs.summarize import SpanRecord, _wall_seconds

        def span(start, dur, pid, rank):
            return SpanRecord(
                name="x", category="span", start_s=start, duration_s=dur,
                depth=0, pid=pid, rank=rank,
            )

        # two fully overlapping lanes: wall is one lane's extent
        overlapped = [span(0.0, 2.0, 1, 0), span(0.0, 2.0, 2, 1)]
        assert _wall_seconds(overlapped) == pytest.approx(2.0)
        # staggered lanes with a shared middle: union, not sum or extent
        staggered = [span(0.0, 2.0, 1, 0), span(1.0, 2.0, 2, 1)]
        assert _wall_seconds(staggered) == pytest.approx(3.0)
        # disjoint busy windows: the idle gap is not wall time
        gapped = [span(0.0, 1.0, 1, 0), span(5.0, 1.0, 2, 1)]
        assert _wall_seconds(gapped) == pytest.approx(2.0)
        assert _wall_seconds([]) == 0.0

    def test_summarize_renders_lane_count_and_per_rank_rows(self, tmp_path):
        telemetry = self._merged_telemetry()
        path = str(tmp_path / "t.json")
        telemetry.write_trace(path)
        lines = summarize_trace(path)
        assert "3 lanes" in lines[0]
        lines = summarize_trace(path, per_rank=True)
        assert any(line.startswith("r0/comm.worker.allreduce") for line in lines)
        assert any(line.startswith("driver/epoch") for line in lines)


def _assert_stage_spans(telemetry, result):
    """The span vocabulary and nesting every regime's epoch loop emits."""
    tracer = telemetry.tracer
    epochs = SMALL["epochs"]
    assert tracer.count("epoch") == epochs
    assert tracer.count("sampling") >= epochs
    assert tracer.count("training") >= epochs
    # the acceptance nesting: epoch -> batch -> {forward, backward, allreduce}
    for name in ("batch", "forward", "backward", "allreduce"):
        assert tracer.count(name) > 0, name
    # one batch span per plan step that exists — none for the exhausted
    # stepper at the end of an epoch — each tagged with its group size
    batches = tracer.find("batch")
    assert all("group_size" in b.attributes for b in batches)
    assert sum(b.attributes["group_size"] for b in batches) == result.trained_steps
    assert tracer.count("allreduce") == result.trained_steps
    child_names = {c.name for c in tracer.children_of(batches[0])}
    assert {"sampling", "training"} <= child_names
    training = next(c for c in tracer.children_of(batches[0]) if c.name == "training")
    assert {c.name for c in tracer.children_of(training)} >= {
        "forward", "backward", "allreduce",
    }
    epoch = tracer.find("epoch")[0]
    assert {c.name for c in tracer.children_of(epoch)} >= {"batch"}
    assert tracer.count("comm.allreduce") > 0
    assert all(r.sampling_seconds > 0 for r in result.history.records)


class TestTracedTraining:
    def test_shadow_mode_emits_stage_spans_per_epoch(self, traced_run):
        telemetry, result = traced_run
        _assert_stage_spans(telemetry, result)
        # shadow: one batch per step, so spans == optimisation steps
        assert telemetry.tracer.count("batch") == result.trained_steps
        # sampler internals are traced beneath the sampling stage
        assert telemetry.tracer.count("sampler.sample") > 0

    def test_full_mode_emits_the_same_stage_spans(self, traced_full_run):
        """Span vocabulary parity: a full-graph run reads as epoch ->
        batch -> {sampling, training -> forward/backward/allreduce} too."""
        telemetry, result = traced_full_run
        _assert_stage_spans(telemetry, result)
        assert telemetry.tracer.count("batch") == result.trained_steps

    def test_bulk_mode_opens_one_batch_span_per_bulk_step(self, tiny_dataset):
        telemetry = RunTelemetry.for_run(seed=0)
        with use_telemetry(telemetry):
            result = train_gnn(
                tiny_dataset.train,
                tiny_dataset.val,
                GNNTrainConfig(mode="bulk", bulk_k=2, **SMALL),
            )
        tracer = telemetry.tracer
        bulk_steps = tracer.count("data.prefetch.next")
        assert 0 < bulk_steps < result.trained_steps  # k=2 groups batches
        assert tracer.count("batch") == bulk_steps
        assert all(b.attributes.get("group_size") for b in tracer.find("batch"))

    def test_trace_totals_match_stage_seconds_within_1pct(self, traced_run, tmp_path):
        """Acceptance: the summarized sampling/training split must agree
        with the phase totals the training result reports."""
        telemetry, result = traced_run
        path = str(tmp_path / "t.json")
        telemetry.write_trace(path)
        totals = phase_totals(load_trace(path))
        for stage in ("sampling", "training"):
            trace_s = totals[stage]["total_s"]
            timer_s = result.stage_seconds[stage]
            assert trace_s == pytest.approx(timer_s, rel=0.01), stage

    def test_training_metrics_recorded(self, traced_run):
        telemetry, result = traced_run
        snap = telemetry.metrics_snapshot()
        gauges = snap["gauges"]
        assert gauges["train.epochs"] == SMALL["epochs"]
        assert gauges["train.steps"] == result.trained_steps
        assert gauges["comm.num_allreduce_calls"] > 0
        assert snap["histograms"]["train.epoch_seconds"]["count"] == SMALL["epochs"]
        assert gauges["train.stage_seconds.sampling"] > 0
