"""Shared infrastructure for the benchmark harness.

One bench module per paper artefact (Table I, Figures 3–4, the §III-C /
§III-D claims, the §I pileup and §III-B memory-skip claims); they share
the scaled-down dataset builders (cached on disk under ``.bench_cache``)
and a report registry whose lines are flushed to both stdout and
``benchmarks/results/<name>.txt`` so the regenerated tables survive
pytest's output capture.  Timing is gated by the perf ledger
(``benchmarks/suite``), not here.

Scaling note (documented in EXPERIMENTS.md): the bench datasets keep the
paper's *density* targets (edges per vertex ≈ 3.7 for Ex3, ≈ 21 for CTD)
and feature/MLP-depth metadata, at vertex counts and epoch budgets sized
for a CPU test runner.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List

from repro.detector import TrackingDataset, dataset_config, make_dataset
from repro.obs import RunTelemetry, use_telemetry

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(BENCH_DIR, ".bench_cache")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
TELEMETRY_DIR = os.path.join(RESULTS_DIR, "telemetry")

# GNN-stage hyper-parameters for benches: same structure as the paper's
# (ShaDow minibatch IGNN), scaled in width/depth/epochs for CPU.
BENCH_GNN = dict(hidden=32, num_layers=4, mlp_layers=2, depth=2, fanout=4)


def ex3_bench_dataset() -> TrackingDataset:
    """Ex3-like bench split: 8 train / 2 val / 2 test graphs."""
    cfg = dataset_config("ex3_like").with_sizes(8, 2, 2)
    return make_dataset(cfg, cache_dir=CACHE_DIR)


def ctd_bench_dataset() -> TrackingDataset:
    """CTD-like bench split: smaller absolute events (~1.2K vertices) with
    the full CTD edge density (~21 edges/vertex), 2/1/1 graphs.

    The windows are wider than the registry's because window occupancy
    scales with hit multiplicity — at 120 particles/event the registry
    windows would land at ~11 edges/vertex instead of Table I's ~21.
    """
    from repro.detector.builders import GeometricBuilderConfig

    base = dataset_config("ctd_like")
    cfg = replace(
        base,
        particles_per_event=120,
        num_train=2,
        num_val=1,
        num_test=1,
        builder=GeometricBuilderConfig(
            dphi_max=0.30, dz_max=600.0, max_layer_skip=3, feature_scheme="rich"
        ),
    )
    return make_dataset(cfg, cache_dir=CACHE_DIR)


@contextmanager
def bench_telemetry(name: str) -> Iterator[RunTelemetry]:
    """Attach a tracer/metrics registry for the duration of one bench.

    Every instrumented hot path (samplers, trainers, the simulated
    communicator, pipeline stages) records into it, and on exit the
    trace + metrics snapshot land under
    ``benchmarks/results/telemetry/<name>.{trace,metrics}.json`` — a
    machine-readable profile comparable across ``BENCH_*`` runs.
    """
    telemetry = RunTelemetry.for_run(bench=name)
    with use_telemetry(telemetry):
        yield telemetry
    os.makedirs(TELEMETRY_DIR, exist_ok=True)
    telemetry.write_trace(os.path.join(TELEMETRY_DIR, f"{name}.trace.json"))
    telemetry.write_metrics(os.path.join(TELEMETRY_DIR, f"{name}.metrics.json"))


def write_report(name: str, lines: List[str]) -> str:
    """Print a result block and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    text = "\n".join(lines)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
    return path
