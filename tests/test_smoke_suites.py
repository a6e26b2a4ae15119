"""The smoke suites are named once per surface — script registry, Makefile
rule, CI matrix — and the three lists must agree.  The legacy benches are
one per paper artefact, and every checked-in result table has a writer."""

import glob
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ["elastic", "obs", "kernels", "store", "scenarios"]

#: ``benchmarks/bench_<name>.py``: Table I, Figures 3–4, the §III-C/§III-D
#: claims, and the §I pileup and §III-B memory-skip claims
BENCHES = [
    "allreduce", "bulk_sampling", "fig3_epoch_time", "fig4_convergence",
    "memory_skip", "pileup_scaling", "sampling_fraction", "table1_datasets",
]


def read(*parts):
    with open(os.path.join(ROOT, *parts)) as fh:
        return fh.read()


def test_script_registry_lists_the_nine_suites():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "validate.py"), "--list"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == SUITES


def test_unknown_suite_is_a_usage_error():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "validate.py"), "nope"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and "suites:" in proc.stdout


def test_makefile_pattern_rule_names_the_same_suites():
    makefile = read("Makefile")
    assert re.search(r"^SMOKE_SUITES = (.*)$", makefile, re.M).group(1).split() == SUITES
    assert "$(SMOKE_TARGETS): %-smoke:\n\tpython scripts/validate.py $*\n" in makefile
    assert makefile.count("-smoke:") == 1  # the one rule


def test_ci_matrix_names_the_same_suites():
    ci = read(".github", "workflows", "ci.yml")
    matrix = re.search(r"^\s+suite: \[(.*)\]$", ci, re.M).group(1)
    assert [s.strip() for s in matrix.split(",")] == SUITES
    assert "python scripts/validate.py ${{ matrix.suite }}" in ci
    assert "-smoke" not in ci.replace("<suite>-smoke", "")  # no per-suite steps left


def test_no_per_suite_script_remains():
    assert not [f for f in os.listdir(os.path.join(ROOT, "scripts")) if f.startswith("validate_")]
    assert not os.path.exists(os.path.join(ROOT, "src", "repro", "cli.py"))


@pytest.mark.skipif(shutil.which("make") is None, reason="make not installed")
def test_make_clean_keeps_result_tables_and_drops_trace_exports(tmp_path):
    shutil.copy(os.path.join(ROOT, "Makefile"), tmp_path / "Makefile")
    results = tmp_path / "benchmarks" / "results"
    (results / "telemetry").mkdir(parents=True)
    table = results / "fig3_epoch_time_ex3.txt"
    table.write_text("tracked table\n")
    export = results / "telemetry" / "run.trace.json"
    export.write_text("{}")
    subprocess.run(["make", "clean"], cwd=tmp_path, check=True, capture_output=True)
    assert table.read_text() == "tracked table\n"
    assert not export.exists()


def test_benches_are_the_paper_artefacts_and_every_table_has_a_writer():
    benches = sorted(
        os.path.basename(path)[len("bench_"):-len(".py")]
        for path in glob.glob(os.path.join(ROOT, "benchmarks", "bench_*.py"))
    )
    assert benches == BENCHES
    writers = set()
    for bench in benches:
        source = read("benchmarks", f"bench_{bench}.py")
        writers.update(re.findall(r'write_report\(\s*"(\w+)"', source))
    tables = {
        os.path.basename(path)[: -len(".txt")]
        for path in glob.glob(os.path.join(ROOT, "benchmarks", "results", "*.txt"))
    }
    assert tables <= writers, sorted(tables - writers)
