"""Figure 3 — epoch time across GPU counts.

Regenerates both panels: per-epoch sampling + training time for the
Exa.TrkX GNN stage, comparing

* **PyG baseline** — sequential ShaDow sampling (Algorithm 2, one batch at
  a time) with per-parameter all-reduce;
* **ours** — matrix-based bulk ShaDow sampling of ``k`` batches per step
  (k grows with the rank count, as in the paper: more aggregate memory
  lets more batches be sampled in bulk) with the coalesced all-reduce.

Two columns per P (EXPERIMENTS.md).  *Modeled*: each phase of the P = 1
run ÷ P (DDP shards every batch) plus the all-reduce charged by the α–β
NVLink model — a 4×A100 node's interconnect, which a CPU box does not
have.  *Measured*, for P ≤ 2 (the cores of the box): the wall of the
fastest of three real ``train_gnn`` epochs at ``world_size`` P, whose
rank steps run on lanes (one thread each) and meet in the sim
all-reduce, with the model's relative error beside it.  Shape targets,
on the modeled column: ours faster than the baseline at every P (paper:
1.3–2×), and epoch time falling as P grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pytest

from common import BENCH_GNN, write_report
from repro.distributed import NVLINK_A100
from repro.models import IGNNConfig, InteractionGNN
from repro.pipeline import GNNTrainConfig, train_gnn
from repro.perf import EpochBreakdown, ScalingCurve, project_epoch_time
from repro.sampling import BulkShadowSampler, ShadowSampler, epoch_batches, group_batches
from repro.graph import shard_batch

BATCH = 128
BULK_K_BASE = 2


def _param_sizes_bytes(graphs) -> List[int]:
    cfg = IGNNConfig(
        node_features=graphs[0].num_node_features,
        edge_features=graphs[0].num_edge_features,
        hidden=BENCH_GNN["hidden"],
        num_layers=BENCH_GNN["num_layers"],
        mlp_layers=BENCH_GNN["mlp_layers"],
    )
    model = InteractionGNN(cfg)
    return [p.size * 4 for p in model.parameters()]


MEASURED_P = (1, 2)  # real ranks on lanes: no more than the box's cores
MEASURED_EPOCHS = 3  # the fastest is reported: a shared box's noise only adds time


def _train_epoch(train_graphs, val_graphs, mode: str, k: int, world: int = 1, epochs: int = 1):
    cfg = GNNTrainConfig(
        mode=mode,
        epochs=epochs,
        batch_size=BATCH,
        bulk_k=k,
        world_size=world,
        allreduce="coalesced" if mode == "bulk" else "per_parameter",
        eval_every=10_000,  # skip eval: Figure 3 times training only
        **BENCH_GNN,
    )
    return train_gnn(train_graphs, val_graphs, cfg)


def _measured_epoch(train_graphs, val_graphs, mode: str, k: int, world: int) -> float:
    result = _train_epoch(train_graphs, val_graphs, mode, k, world, MEASURED_EPOCHS)
    return min(r.epoch_seconds for r in result.history.records)


def _beside(modeled: float, measured: Optional[float]) -> str:
    """The modeled total, the measured wall beside it and the model's error."""
    if measured is None:
        return f"{modeled:8.2f} | {'':>8} | {'':>5}"
    return f"{modeled:8.2f} | {measured:8.2f} | {modeled / measured - 1:+5.0%}"


def _sampling_time_at(graphs, mode: str, k: int, world: int, seed: int = 0) -> float:
    """Serial sampling wall-clock for one epoch at rank count ``world``
    (each rank samples its own shard; we run ranks sequentially)."""
    import time

    sampler = (
        BulkShadowSampler(BENCH_GNN["depth"], BENCH_GNN["fanout"])
        if mode == "bulk"
        else ShadowSampler(BENCH_GNN["depth"], BENCH_GNN["fanout"])
    )
    rng = np.random.default_rng(seed)
    for g in graphs:
        g.to_csr(symmetric=True)  # warm adjacency cache
    t0 = time.perf_counter()
    for graph, group in group_batches(epoch_batches(graphs, BATCH, rng), k):
        for rank in range(world):
            shards = [shard_batch(b, rank, world) for b in group]
            if mode == "bulk":
                sampler.sample_bulk(graph, shards, rng)
            else:
                for s in shards:
                    sampler.sample(graph, s, rng)
    return time.perf_counter() - t0


def _fig3_panel(name: str, dataset, process_counts, benchmark=None) -> List[str]:
    train, val = dataset.train, dataset.val
    sizes = _param_sizes_bytes(train)

    base = _train_epoch(train, val, "shadow", 1)
    ours = _train_epoch(train, val, "bulk", BULK_K_BASE)
    steps = base.trained_steps

    lines = [
        f"Figure 3 ({name}) — epoch time [s] vs process count "
        f"(batch {BATCH}, d={BENCH_GNN['depth']}, s={BENCH_GNN['fanout']})",
        "modeled = P = 1 phases ÷ P + α–β NVLink all-reduce; measured = fastest of "
        f"{MEASURED_EPOCHS} train_gnn epochs at world_size P, rank steps on lanes (P in {MEASURED_P}); "
        "err = modeled / measured − 1",
        f"{'P':>2} | {'pipeline':<22} | {'sample':>8} | {'train':>8} | {'comm':>8} | "
        f"{'modeled':>8} | {'measured':>8} | {'err':>5} | speedup",
    ]
    rows: Dict[int, Dict[str, float]] = {}
    for p in process_counts:
        # baseline: sequential sampling scales 1/P; per-parameter all-reduce
        comm_base = steps * NVLINK_A100.allreduce_sequence_time(sizes, p)
        b = project_epoch_time(
            EpochBreakdown(
                base.timers.total("sampling"), base.timers.total("training"), 0.0
            ),
            p,
            comm_base,
        )
        # ours: bulk sampling with k growing with aggregate memory (k = k0·P)
        sample_ours = _sampling_time_at(train, "bulk", BULK_K_BASE * p, 1)
        comm_ours = steps * NVLINK_A100.coalesced_time(sizes, p)
        o = project_epoch_time(
            EpochBreakdown(sample_ours, ours.timers.total("training"), 0.0),
            p,
            comm_ours,
        )
        walls = (None, None)
        if p in MEASURED_P:
            walls = tuple(
                _measured_epoch(train, val, mode, k * p, p)
                for mode, k in (("shadow", 1), ("bulk", BULK_K_BASE))
            )
        speedup = b.total_seconds / o.total_seconds
        rows[p] = {"base": b.total_seconds, "ours": o.total_seconds, "speedup": speedup}
        lines.append(
            f"{p:>2} | {'PyG ShaDow baseline':<22} | {b.sampling_seconds:8.2f} | "
            f"{b.training_seconds:8.2f} | {b.comm_modeled_seconds:8.3f} | "
            f"{_beside(b.total_seconds, walls[0])} |"
        )
        lines.append(
            f"{p:>2} | {'ours (bulk k=' + str(BULK_K_BASE * p) + ' +coal.)':<22} | "
            f"{o.sampling_seconds:8.2f} | {o.training_seconds:8.2f} | "
            f"{o.comm_modeled_seconds:8.3f} | {_beside(o.total_seconds, walls[1])} | {speedup:5.2f}x"
        )
    # Amdahl strong-scaling fit per pipeline (the communication term is the
    # dominant non-dividing cost; coalescing shrinks it)
    for key, label in (("base", "baseline"), ("ours", "ours")):
        curve = ScalingCurve(
            tuple(process_counts), tuple(rows[p][key] for p in process_counts)
        )
        lines.append(
            f"Amdahl serial fraction ({label}): "
            f"{100 * curve.serial_fraction:.1f}%"
        )
    return lines, rows


@pytest.mark.parametrize("panel", ["ex3"])
def test_fig3_epoch_time_ex3(ex3_bench, benchmark, panel):
    process_counts = (1, 2, 4, 8)  # the paper scans Ex3 up to 8 GPUs

    def run():
        return _fig3_panel("Ex3-like", ex3_bench, process_counts)

    lines, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report("fig3_epoch_time_ex3", lines)

    # shape: ours beats the baseline at every P (paper: 1.3–2×)
    for p in process_counts:
        assert rows[p]["speedup"] > 1.0, f"P={p}: no speedup"
    # shape: epoch time falls with more processes for both pipelines
    totals_base = [rows[p]["base"] for p in process_counts]
    totals_ours = [rows[p]["ours"] for p in process_counts]
    assert totals_base[0] > totals_base[-1]
    assert totals_ours[0] > totals_ours[-1]


@pytest.mark.parametrize("panel", ["ctd"])
def test_fig3_epoch_time_ctd(ctd_bench, benchmark, panel):
    process_counts = (1, 2, 4)  # the paper scans CTD up to 4 GPUs

    def run():
        return _fig3_panel("CTD-like", ctd_bench, process_counts)

    lines, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines.append("note: paper reports the PyG baseline timing out at P=4 on CTD")
    write_report("fig3_epoch_time_ctd", lines)

    for p in process_counts:
        assert rows[p]["speedup"] > 1.0, f"P={p}: no speedup"
    assert rows[1]["ours"] > rows[4]["ours"]
