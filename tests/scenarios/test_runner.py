"""Scenario runner and conformance report: determinism, floors, JSON."""

import json

import pytest

from repro.obs import RunTelemetry, use_telemetry
from repro.scenarios import (
    ScenarioFloors,
    ScenarioMatrix,
    ScenarioSpec,
    build_report,
    get_matrix,
    render_report,
    run_matrix,
    run_scenario,
    smoke_matrix,
    strip_volatile,
    write_report,
)
from repro.scenarios.runner import _evaluate_floors


@pytest.fixture(scope="module")
def baseline_result(tmp_path_factory):
    spec = smoke_matrix().get("baseline")
    workdir = str(tmp_path_factory.mktemp("scenario"))
    return run_scenario(spec, workdir)


class TestRunScenario:
    def test_baseline_passes_its_floors(self, baseline_result):
        assert baseline_result.passed
        assert baseline_result.status == "pass"
        assert baseline_result.metrics["scored_events"] >= 3

    def test_doc_round_trips_through_json(self, baseline_result):
        doc = baseline_result.to_doc()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_doc_contains_no_paths(self, baseline_result, tmp_path):
        blob = json.dumps(baseline_result.to_doc())
        assert "/tmp" not in blob and str(tmp_path) not in blob

    def test_rerun_is_bit_deterministic(self, baseline_result, tmp_path):
        again = run_scenario(smoke_matrix().get("baseline"), str(tmp_path))
        assert again.to_doc() == baseline_result.to_doc()

    def test_scenario_telemetry_counters(self, tmp_path):
        telemetry = RunTelemetry()
        with use_telemetry(telemetry):
            run_scenario(smoke_matrix().get("baseline"), str(tmp_path))
        assert telemetry.metrics.counter("scenario.runs").value == 1
        assert telemetry.metrics.counter("scenario.passed").value == 1


class TestMatrix:
    def test_smoke_matrix_contents(self):
        matrix = smoke_matrix()
        names = matrix.names()
        # the resilience proofs the acceptance gate demands
        assert "hostile_mix_quarantine" in names  # quarantine isolation
        assert "breaker_recovery" in names  # degraded-mode recovery
        assert "train_sigkill" in names  # SIGKILL chaos
        assert "store_bitflip" in names  # store corruption
        assert len(names) >= 6
        assert matrix.get("hostile_mix_quarantine").floors.min_quarantined >= 1
        assert matrix.get("breaker_recovery").floors.require_breaker_recovery
        assert matrix.get("train_sigkill").train_chaos["kind"] == "sigkill"
        assert matrix.get("store_bitflip").floors.require_store_corrupt_detected

    def test_full_matrix_extends_smoke(self):
        assert set(smoke_matrix().names()) < set(get_matrix("full").names())

    def test_duplicate_names_rejected(self):
        spec = ScenarioSpec(name="twin")
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioMatrix(name="bad", scenarios=(spec, spec))

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError, match="unknown matrix"):
            get_matrix("nope")
        with pytest.raises(KeyError, match="no scenario"):
            smoke_matrix().get("nope")

    def test_run_matrix_subset_and_progress(self, tmp_path):
        seen = []
        results = run_matrix(
            smoke_matrix(), str(tmp_path), names=["baseline"],
            progress=lambda r: seen.append(r.spec.name),
        )
        assert [r.spec.name for r in results] == ["baseline"] == seen


class TestFloorEvaluation:
    METRICS = {"efficiency": 0.5, "purity": 0.4}
    SERVE = {
        "completed": 3, "quarantined": 1, "degraded": 2, "breaker_degraded": 1,
        "breaker": {"state": "closed", "transitions": {"open": 1}},
    }

    def test_all_floors_pass(self):
        floors = ScenarioFloors(
            min_efficiency=0.5, min_purity=0.4, min_completed=3,
            min_quarantined=1, min_degraded=3, require_breaker_recovery=True,
        )
        checks = _evaluate_floors(floors, self.METRICS, self.SERVE, {})
        assert all(c["ok"] for c in checks)

    def test_exact_floor_is_not_a_violation(self):
        floors = ScenarioFloors(min_efficiency=0.5, min_purity=0.4)
        checks = _evaluate_floors(floors, self.METRICS, self.SERVE, {})
        assert all(c["ok"] for c in checks)

    def test_violations_are_named(self):
        floors = ScenarioFloors(min_efficiency=0.9)
        checks = _evaluate_floors(floors, self.METRICS, self.SERVE, {})
        bad = [c for c in checks if not c["ok"]]
        assert [c["check"] for c in bad] == ["efficiency"]

    def test_breaker_stuck_open_fails_recovery(self):
        serve = dict(self.SERVE)
        serve["breaker"] = {"state": "open", "transitions": {"open": 1}}
        floors = ScenarioFloors(require_breaker_recovery=True)
        checks = _evaluate_floors(floors, self.METRICS, serve, {})
        assert not [c for c in checks if c["check"] == "breaker_recovery"][0]["ok"]

    def test_chaos_floors_read_chaos_docs(self):
        floors = ScenarioFloors(
            require_store_corrupt_detected=True,
            min_watchdog_rollbacks=1,
            min_evicted_ranks=1,
        )
        chaos = {
            "store": {"detected": True},
            "train": {"watchdog_rollbacks": 1, "evicted_ranks": [1]},
        }
        checks = _evaluate_floors(floors, self.METRICS, self.SERVE, chaos)
        by_name = {c["check"]: c for c in checks}
        assert by_name["store_corrupt_detected"]["ok"]
        assert by_name["watchdog_rollbacks"]["ok"]
        assert by_name["evicted_ranks"]["ok"]


class TestReport:
    def test_build_and_render(self, baseline_result):
        doc = build_report("smoke", [baseline_result])
        assert doc["format"] == "repro.scenarios/v1"
        assert doc["summary"] == {"total": 1, "passed": 1, "failed": 0}
        text = render_report(doc)
        assert "[PASS] baseline" in text

    def test_write_report_fixed_timestamp_identical(
        self, baseline_result, tmp_path
    ):
        doc = build_report("smoke", [baseline_result])
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_report(doc, a, timestamp="T0")
        write_report(doc, b, timestamp="T0")
        assert open(a).read() == open(b).read()

    def test_strip_volatile_removes_only_timestamp(self, baseline_result, tmp_path):
        doc = build_report("smoke", [baseline_result])
        path = str(tmp_path / "r.json")
        write_report(doc, path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert "generated_at" in loaded
        assert strip_volatile(loaded) == json.loads(
            json.dumps(strip_volatile(doc))
        )
