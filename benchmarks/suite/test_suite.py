"""The suite's own test: schema of ``BENCHMARK.json`` and a ``--smoke``
sizing of all four workloads through the real commands.

Outside tier-1 ``testpaths``; run it with
``PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py``.  It
does not use the ``benchmark`` fixture, so ``pytest benchmarks/
--benchmark-only`` skips it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _schema() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_benchmark_json_meets_the_contract():
    schema = _schema()
    assert set(schema) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert schema["paths"] == ["benchmarks/suite"]
    assert isinstance(schema["run_seconds"], int) and 1 <= schema["run_seconds"] <= 60
    assert 2 <= len(schema["workloads"]) <= 8
    assert 1 <= len(schema["end_to_end"]) <= 16 and 1 <= len(schema["per_layer"]) <= 128
    names = [w["name"] for w in schema["workloads"]]
    names += [m["name"] for m in schema["end_to_end"] + schema["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in schema["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in schema["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in schema["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in schema["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in schema["end_to_end"])


def test_workloads_match_the_frozen_recipes():
    sys.path[:0] = [REPO_ROOT, os.path.join(REPO_ROOT, "src")]
    from benchmarks.suite.workloads import WORKLOADS

    listed = {w["name"]: w["why"] for w in _schema()["workloads"]}
    assert listed == {w.name: w.why for w in WORKLOADS.values()}
    with open(os.path.join(SUITE_DIR, "expected_digests.json")) as fh:
        assert set(json.load(fh)) == set(listed)


@pytest.fixture(scope="module")
def smoke_ledger(tmp_path_factory):
    """``python -m benchmarks.suite --smoke``: all four workloads, both runs."""
    out = tmp_path_factory.mktemp("ledger") / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "--smoke", "--seed", "3", "--out", str(out)],
        cwd=REPO_ROOT, env=_env(), capture_output=True, text=True, timeout=110,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        return str(out), json.load(fh), proc.stdout


def test_smoke_runs_every_workload_and_names_every_metric(smoke_ledger):
    _, ledger, stdout = smoke_ledger
    schema = _schema()
    for field in ("cpu", "nproc", "blas", "numpy", "scipy", "git_rev", "recipe_hash"):
        assert field in ledger["fingerprint"]
    seen = {(r["workload"], r["trace"]) for r in ledger["runs"]}
    assert seen == {(w["name"], t) for w in schema["workloads"] for t in (0, 1)}
    for run in ledger["runs"]:
        wanted = schema["per_layer" if run["trace"] else "end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in wanted}
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        if run["trace"] == 0:  # end-to-end metrics are never 0
            assert all(v["value"] > 0 for v in run["metrics"].values())
        else:
            assert run["metrics"]["trace.coverage"]["value"] >= 0.8
    for metric in schema["end_to_end"] + schema["per_layer"]:
        assert metric["name"] in stdout  # printed by name, with its unit
    assert "open loop" in stdout and "closed loop" in stdout


def test_compare_accepts_a_ledger_against_itself(smoke_ledger):
    path, _, _ = smoke_ledger
    proc = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "compare.py"), path, path],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert "0 regression(s)" in proc.stdout and "count differs" not in proc.stdout


def _compare_against_mutated(ledger, tmp_path, mutate):
    """compare.py on the ledger (three runs a side) against a copy in
    which ``mutate(run)`` touched every run."""
    ledger = dict(ledger, runs=ledger["runs"] * 3)
    parent = tmp_path / "parent.json"
    parent.write_text(json.dumps(ledger))
    changed = json.loads(parent.read_text())
    for run in changed["runs"]:
        mutate(run)
    change = tmp_path / "change.json"
    change.write_text(json.dumps(changed))
    return subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "compare.py"), str(parent), str(change)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )


def test_compare_flags_a_regression(smoke_ledger, tmp_path):
    def slower(run):
        if run["trace"] == 0 and run["workload"] == "train_ex3_true":
            run["metrics"]["latency_p50_ms"]["value"] *= 2.0

    proc = _compare_against_mutated(smoke_ledger[1], tmp_path, slower)
    assert proc.returncode == 1 and "REGRESSION" in proc.stdout


@pytest.mark.parametrize(
    "workload, metric, factor",
    [
        ("serve_large_replay", "metrics.track_efficiency", 0.5),
        ("serve_small_open", "serve.slo_share", 0.9),
        ("train_ctd_stream_p2", "nn.final_loss", 1.05),
        ("serve_large_replay", "pipeline.tracks", 0.5),  # an exact count
    ],
)
def test_compare_gates_quality_and_exact_counts(smoke_ledger, tmp_path, workload, metric, factor):
    def worse(run):
        if run["trace"] == 1 and run["workload"] == workload:
            run["metrics"][metric]["value"] *= factor

    proc = _compare_against_mutated(smoke_ledger[1], tmp_path, worse)
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "1 regression(s)" in proc.stdout


def test_run_refuses_without_the_program(tmp_path):
    """In a directory holding only the benchmark the run must fail loudly
    (non-zero exit, no result line) instead of reporting made-up numbers."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE_DIR, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "train_ex3_true",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
