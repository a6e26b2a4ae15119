"""Benchmark fixtures: session-scoped datasets so generation cost is paid
once, plus a terminal-summary hook that re-prints every regenerated table
after the pytest-benchmark output (bypassing output capture)."""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    RESULTS_DIR,
    bench_telemetry,
    ctd_bench_dataset,
    ex3_bench_dataset,
)


def _is_bench_module(path) -> bool:
    """Both hooks below are for the table-printing ``bench_*.py`` modules
    only: ``benchmarks/suite/test_suite.py`` (the ledger's own tests, run
    by CI) lives under this conftest too and must neither run under an
    attached product tracer nor echo the tables."""
    return os.path.basename(str(path)).startswith("bench_")


@pytest.fixture(autouse=True)
def bench_profile(request):
    """Every bench runs under an attached tracer: its per-phase profile is
    exported to ``benchmarks/results/telemetry/<test>.trace.json`` so the
    regenerated tables come with machine-readable timing evidence."""
    if not _is_bench_module(request.node.fspath):
        yield None
        return
    name = request.node.name.replace("[", "-").replace("]", "").replace("/", "-")
    with bench_telemetry(name) as telemetry:
        yield telemetry


@pytest.fixture(scope="session")
def ex3_bench():
    return ex3_bench_dataset()


@pytest.fixture(scope="session")
def ctd_bench():
    return ctd_bench_dataset()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo all regenerated tables so they land in bench_output.txt."""
    tr = terminalreporter
    reports = (report for reports in tr.stats.values() for report in reports)
    if not any(_is_bench_module(getattr(r, "fspath", "")) for r in reports):
        return
    if not os.path.isdir(RESULTS_DIR):
        return
    tr.section("regenerated paper tables/figures (benchmarks/results/)")
    for fname in sorted(os.listdir(RESULTS_DIR)):
        path = os.path.join(RESULTS_DIR, fname)
        if not os.path.isfile(path):  # e.g. telemetry/ trace exports
            continue
        tr.write_line(f"----- {fname} -----")
        with open(path) as fh:
            for line in fh.read().splitlines():
                tr.write_line(line)
