"""RunTelemetry: metadata, process-wide install, comm-stats wiring, export."""

import json

import numpy as np

from repro.distributed import CommCostModel, SimCommunicator
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    RunTelemetry,
    config_hash,
    get_metrics,
    get_telemetry,
    get_tracer,
    git_describe,
    set_telemetry,
    use_telemetry,
)
from repro.pipeline import GNNTrainConfig


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_differs_on_value_change(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_dataclass_and_none(self):
        h = config_hash(GNNTrainConfig(epochs=3))
        assert len(h) == 12
        assert h != config_hash(GNNTrainConfig(epochs=4))
        assert config_hash(None) == "none"

    def test_git_describe_returns_string(self):
        assert isinstance(git_describe(), str) and git_describe()


class TestInstall:
    def test_default_is_disabled(self):
        assert get_telemetry() is None
        assert get_tracer() is NULL_TRACER

    def test_use_telemetry_installs_and_restores(self):
        telemetry = RunTelemetry()
        with use_telemetry(telemetry) as installed:
            assert installed is telemetry
            assert get_telemetry() is telemetry
            assert get_tracer() is telemetry.tracer
        assert get_telemetry() is None
        assert get_tracer() is NULL_TRACER

    def test_get_metrics_is_the_registry_or_the_shared_null_object(self):
        assert get_metrics() is NULL_METRICS
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            assert get_metrics() is telemetry.metrics
            get_metrics().counter("x.calls").add(2)
        assert get_metrics() is NULL_METRICS
        assert telemetry.metrics.to_dict()["counters"] == {"x.calls": 2.0}

    def test_null_metrics_accepts_every_instrument_write(self):
        NULL_METRICS.counter("c").add(3)
        NULL_METRICS.gauge("g").set(1.5)
        NULL_METRICS.histogram("h").observe(0.2)
        NULL_METRICS.histogram("h", max_samples=8).observe(0.2)
        # one shared instrument, nothing recorded anywhere
        assert NULL_METRICS.counter("a") is NULL_METRICS.histogram("b")

    def test_use_telemetry_none_is_noop_scope(self):
        with use_telemetry(None):
            assert get_telemetry() is None

    def test_nested_scopes_restore_previous(self):
        outer, inner = RunTelemetry(), RunTelemetry()
        with use_telemetry(outer):
            with use_telemetry(inner):
                assert get_telemetry() is inner
            assert get_telemetry() is outer

    def test_restore_on_exception(self):
        try:
            with use_telemetry(RunTelemetry()):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_telemetry() is None

    def test_set_telemetry_returns_previous(self):
        first = RunTelemetry()
        assert set_telemetry(first) is None
        assert set_telemetry(None) is first


class TestMetadataAndExport:
    def test_for_run_metadata(self):
        telemetry = RunTelemetry.for_run(
            config={"lr": 0.01}, seed=7, world_size=4, command="train"
        )
        meta = telemetry.metadata
        assert meta["config_hash"] == config_hash({"lr": 0.01})
        assert meta["seed"] == 7
        assert meta["world_size"] == 4
        assert meta["command"] == "train"
        assert isinstance(meta["git"], str)

    def test_metrics_snapshot_sections(self):
        telemetry = RunTelemetry.for_run(seed=1)
        telemetry.metrics.counter("calls").add(3)
        snap = telemetry.metrics_snapshot()
        assert set(snap) == {"metadata", "counters", "gauges", "histograms"}
        assert snap["counters"]["calls"] == 3.0

    def test_write_metrics_round_trip(self, tmp_path):
        telemetry = RunTelemetry.for_run(seed=1)
        telemetry.metrics.gauge("g").set(2.5)
        path = str(tmp_path / "m.json")
        telemetry.write_metrics(path)
        snap = json.load(open(path))
        assert snap["gauges"]["g"] == 2.5
        assert snap["metadata"]["seed"] == 1

    def test_write_trace_format_by_extension(self, tmp_path):
        telemetry = RunTelemetry.for_run(seed=1)
        with telemetry.tracer.span("s"):
            pass
        chrome = str(tmp_path / "t.json")
        jsonl = str(tmp_path / "t.jsonl")
        telemetry.write_trace(chrome)
        telemetry.write_trace(jsonl)
        payload = json.load(open(chrome))
        assert payload["otherData"]["seed"] == 1
        records = [json.loads(line) for line in open(jsonl)]
        assert records[0]["name"] == "s"


class TestCommStatsWiring:
    def test_comm_stats_land_in_gauges(self):
        comm = SimCommunicator(
            world_size=2, cost_model=CommCostModel(alpha=1e-5, beta=1e-9)
        )
        comm.allreduce([np.ones(4), np.full(4, 2.0)])
        comm.broadcast(np.ones(8))
        telemetry = RunTelemetry()
        telemetry.record_comm_stats(comm.stats)
        gauges = telemetry.metrics_snapshot()["gauges"]
        assert gauges["comm.num_allreduce_calls"] == 1
        assert gauges["comm.num_broadcast_calls"] == 1
        assert gauges["comm.bytes_broadcast"] > 0
        assert gauges["comm.modeled_seconds"] > 0
        assert "comm.num_retries" in gauges
        assert "comm.retry_backoff_seconds" in gauges
        assert "comm.rank_failures_count" in gauges
