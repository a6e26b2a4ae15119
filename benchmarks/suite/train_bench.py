"""Training workloads: untraced end-to-end runs and the traced per-layer run.

End-to-end numbers come from plain ``train_gnn`` calls (telemetry off):
one warm-up call (it fills the buffer arena and the scatter plans), then
timed calls until the budget is spent.  The
traced run wraps the public functions ``train_gnn`` calls into — so it
times the program itself, not a copy of its step loop — and must leave
the trained weights bit-identical to the untraced reference.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data import EpochPlan, PrefetchLoader, sample_step
from repro.distributed import DistributedDataParallel, ProcCommunicator, SimCommunicator
from repro.memory import default_arena
from repro.models import InteractionGNN
from repro.nn import Adam, BCEWithLogitsLoss
from repro.pipeline import evaluate_edge_classifier, train_gnn
from repro.pipeline import trainers as trainers_module
from repro.sampling import BulkShadowSampler, ShadowSampler
from repro.store import EventStore, StoredGraph, ingest_graphs
from repro.tensor import Tensor, kernels, no_grad, ops

from .harness import OUT_DIR, Checks, percentile, rss_mb, set_up_repeatedly
from .tracing import Recorder
from .workloads import (
    TAG_TRAIN,
    TAG_VAL,
    TrainWorkload,
    build_graphs,
    generate_events,
    graph_digest,
    make_simulator,
)

__all__ = ["run_end_to_end", "run_traced"]

#: A run times about ten calls: p90 sits at the second slowest, so one
#: call hit by a noisy neighbour does not set it.
TAIL_PERCENTILE = 90.0

# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
class TrainInputs:
    def __init__(self, train, val, store_dir: Optional[str], budget: Optional[int], timings):
        self.train = train  # in-RAM graphs
        self.val = val
        self.store_dir = store_dir
        self.budget = budget
        self.timings: Dict[str, float] = timings

    def digest(self) -> Dict[str, object]:
        return graph_digest(self.train + self.val)

    def cleanup(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def set_up(w: TrainWorkload) -> TrainInputs:
    """Generate events, build graphs, ingest the store.  No disk cache."""
    t0 = perf_counter()
    simulator, geometry = make_simulator(w.sim)
    train_events, gen_a = generate_events(simulator, TAG_TRAIN, w.num_train)
    val_events, gen_b = generate_events(simulator, TAG_VAL, w.num_val, first_id=w.num_train)
    train, build_a = build_graphs(train_events, geometry, w.builder)
    val, build_b = build_graphs(val_events, geometry, w.builder)
    timings = {"generate_s": gen_a + gen_b, "build_graph_s": build_a + build_b}
    store_dir = budget = None
    if w.store is not None:
        shard_bytes, share = w.store
        os.makedirs(OUT_DIR, exist_ok=True)
        store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
        t1 = perf_counter()
        report = ingest_graphs(
            train, store_dir, split="train", validate=True, require_labels=True,
            max_shard_bytes=shard_bytes, overwrite=True,
        )
        timings["ingest_s"] = perf_counter() - t1
        timings["ingest_bytes"] = float(report.bytes_written)
        with EventStore(store_dir, audit=False) as probe:
            largest = max(s["bytes"] for s in probe.manifest["shards"])
        budget = max(int(share * report.bytes_written), largest)
    timings["setup_s"] = perf_counter() - t0
    return TrainInputs(train, val, store_dir, budget, timings)


@contextmanager
def _train_graphs(inputs: TrainInputs) -> Iterator[Tuple[list, Optional[EventStore]]]:
    """The graphs handed to ``train_gnn``: store handles when streaming."""
    if inputs.store_dir is None:
        yield inputs.train, None
        return
    with EventStore(inputs.store_dir, budget_bytes=inputs.budget, audit=True) as store:
        yield store.handles("train"), store


def _call(w: TrainWorkload, inputs: TrainInputs, seed: int, **overrides):
    """One ``train_gnn`` call for the frozen step budget; returns
    (result, wall seconds, store stats or None)."""
    config = w.gnn.replace(seed=seed, **overrides)
    with _train_graphs(inputs) as (graphs, store):
        t0 = perf_counter()
        result = train_gnn(graphs, inputs.val, config)
        wall = perf_counter() - t0
        stats = store.stats if store is not None else None
    return result, wall, stats


def _same_weights(a, b) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


# ----------------------------------------------------------------------
# end to end (tracing off)
# ----------------------------------------------------------------------
def run_end_to_end(w: TrainWorkload, seed: int, seconds: float, setups: int = 3):
    checks = Checks()
    inputs, setup_times = set_up_repeatedly(lambda: set_up(w), setups)
    try:
        t_start = perf_counter()
        # warm-up, not timed: caches fill and lazy set-up finishes
        first, first_wall, _ = _call(w, inputs, seed)
        steps, weights = first.trained_steps, first.model.state_dict()
        # Every timed call trains on its own seed (--seed + 1, + 2, ...):
        # which roots a call samples moves its work by several percent, and
        # the median over a run's calls should not inherit one draw's luck.
        walls: List[float] = []
        rates: List[float] = []
        ops_done, ok_calls = steps, True
        while len(walls) < w.min_calls or perf_counter() - t_start < seconds:
            result, wall, _ = _call(w, inputs, seed + len(walls) + 1)
            walls.append(wall)
            rates.append(result.trained_steps / wall)
            ops_done += result.trained_steps
            # (a budget that outlasts an epoch stops at its end, a few steps late)
            ok_calls &= result.trained_steps >= w.gnn.max_steps
            ok_calls &= all(np.isfinite(v).all() for v in result.model.state_dict().values())
        checks.check(steps >= w.gnn.max_steps, f"trained {steps} steps < budget {w.gnn.max_steps}")
        checks.check(ok_calls, "a timed train_gnn call trained fewer steps or ended in non-finite weights")
        checks.check(
            all(np.isfinite(v).all() for v in weights.values()), "non-finite weights after training"
        )
        precision, recall = evaluate_edge_classifier(first.model, inputs.val, w.gnn.threshold)
        checks.check(np.isfinite(precision) and np.isfinite(recall), "non-finite validation score")
        metrics = {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_ms": 1e3 * percentile(walls, TAIL_PERCENTILE),
            "peak_rss_mb": rss_mb(resource.RUSAGE_SELF),
        }
        detail = {
            "digest": inputs.digest(),
            "steps_per_call": steps,
            "calls": 1 + len(walls),
            "first_call_ms": 1e3 * first_wall,
            "samples": {
                "setup_s": setup_times,
                "throughput_per_s": rates,
                "latency_p50_ms": [1e3 * x for x in walls],
            },
            "val_precision": precision,
            "val_recall": recall,
            "notes": [
                "op = one optimisation step; latency = wall of one train_gnn call "
                f"for the frozen budget ({steps} steps), evaluation excluded",
                f"throughput and latency_p50 = the median of {len(walls)} timed calls, latency_tail_ms "
                f"= their p{TAIL_PERCENTILE:g}; the warm-up call before them took {1e3 * first_wall:.0f} ms",
            ],
        }
        return metrics, checks, ops_done, detail
    finally:
        inputs.cleanup()


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
class _TimedStepper:
    """Iterator proxy: a ``data.next`` span around every ``next()`` — the
    time the trainer is blocked waiting for a sampled step."""

    def __init__(self, recorder: Recorder, inner) -> None:
        self._recorder = recorder
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        with self._recorder.span("data.next"):
            return next(self._inner)


def _install(recorder: Recorder, captured: Dict[str, list]) -> None:
    """Wrap the layer entry points ``train_gnn`` calls into."""

    def after_sample(rec, batches) -> None:
        captured["batches"].extend(batches)

    def after_loss(rec, loss) -> None:
        captured["losses"].append(float(loss.item()))

    def after_sync(rec, _result) -> None:
        rec.op += 1  # one optimisation step ends with its gradient sync

    recorder.wrap(trainers_module, "replicate_model", "models.build")
    recorder.wrap(trainers_module, "create_communicator", "distributed.spawn")
    recorder.wrap(ProcCommunicator, "close", "distributed.close")
    recorder.wrap(SimCommunicator, "close", "distributed.close")
    recorder.wrap(EpochPlan, "build", "data.plan")
    recorder.wrap(BulkShadowSampler, "sample_bulk", "sampling.bulk", after=after_sample)
    recorder.wrap(StoredGraph, "materialize", "store.materialize")
    recorder.wrap(InteractionGNN, "forward", "models.forward")
    recorder.wrap(BCEWithLogitsLoss, "__call__", "nn.loss", after=after_loss)
    recorder.wrap(Tensor, "backward", "tensor.backward")
    recorder.wrap(Adam, "zero_grad", "nn.optim")
    recorder.wrap(Adam, "step", "nn.optim")
    recorder.wrap(
        DistributedDataParallel, "synchronize_gradients", "distributed.sync", after=after_sync
    )
    original_iter = PrefetchLoader.iter_epoch

    def iter_epoch(self, *args, **kwargs):
        return _TimedStepper(recorder, original_iter(self, *args, **kwargs))

    recorder.replace(PrefetchLoader, "iter_epoch", iter_epoch)


def _traced_call(w: TrainWorkload, inputs: TrainInputs, seed: int, **overrides):
    recorder = Recorder()
    captured: Dict[str, list] = {"batches": [], "losses": []}
    arena = default_arena()
    before = (arena.stats.hits, arena.stats.misses)
    _install(recorder, captured)
    try:
        config = w.gnn.replace(seed=seed, **overrides)
        with _train_graphs(inputs) as (graphs, store):
            with recorder.span("pipeline.train_gnn") as root:
                result = train_gnn(graphs, inputs.val, config)
            # the communicator is closed inside train_gnn's finally block
            stats = store.stats if store is not None else None
    finally:
        recorder.restore()
    hits = arena.stats.hits - before[0]
    misses = arena.stats.misses - before[1]
    captured["arena_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    return recorder, root.seconds, result, stats, captured


def _sampler_reference(w: TrainWorkload, inputs: TrainInputs, seed: int, groups: int):
    """Bulk vs sequential ShaDow over the *same* plan the run consumed
    (paper claim C2 as a shape: bulk must be faster)."""
    rng = np.random.default_rng(seed)  # the trainer seeds its plan the same way
    plan = EpochPlan.build(inputs.train, w.gnn.batch_size, w.gnn.bulk_k, rng)
    ranks = tuple(range(w.gnn.world_size))
    steps = plan.steps[:groups]
    samplers = {
        "bulk": BulkShadowSampler(depth=w.gnn.depth, fanout=w.gnn.fanout),
        "seq": ShadowSampler(depth=w.gnn.depth, fanout=w.gnn.fanout),
    }
    timings = {"bulk": [], "seq": []}
    for _ in range(2):  # alternate, keep the faster: a stall must not flip the shape
        for label, sampler in samplers.items():
            t0 = perf_counter()
            for step in steps:
                sample_step(sampler, step, ranks)
            timings[label].append(perf_counter() - t0)
    return min(timings["bulk"]), min(timings["seq"])


def _kernel_probe(batches, hidden: int, repeats: int = 20) -> Dict[str, float]:
    """Time the public gather/scatter kernels on the median sampled batch.

    Bytes are *computed* from array sizes (reads + writes of one call of
    each kernel), not measured."""
    if not batches:
        return {}
    batch = sorted(batches, key=lambda b: b.graph.num_edges)[len(batches) // 2]
    g = batch.graph
    n, m = g.num_nodes, g.num_edges
    rng = np.random.default_rng(0)
    values = rng.standard_normal((m, hidden)).astype(np.float32)
    x = Tensor(rng.standard_normal((n, hidden)).astype(np.float32))
    y = Tensor(rng.standard_normal((m, hidden)).astype(np.float32))
    weight = Tensor(rng.standard_normal((3 * hidden, hidden)).astype(np.float32))
    rows, cols = g.rows, g.cols

    def best(fn) -> float:
        fn()
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    with no_grad():
        scatter = best(lambda: kernels.scatter_add_rows(values, cols, n))
        fused = best(lambda: ops.gather_concat_matmul(y, x, rows, cols, weight))
    item = 4
    scatter_bytes = (m * hidden + n * hidden) * item + m * 8
    fused_bytes = (m * hidden + n * hidden + 3 * hidden * hidden + m * hidden) * item + 2 * m * 8
    return {
        "tensor.scatter_add_rows_us": 1e6 * scatter,
        "tensor.gather_concat_matmul_us": 1e6 * fused,
        "tensor.segment_fanin": m / max(len(np.unique(cols)), 1),
        "tensor.kernel_bytes": float(scatter_bytes + fused_bytes),
    }


def run_traced(w: TrainWorkload, seed: int, seconds: float):
    checks = Checks()
    inputs = set_up(w)
    try:
        cold, _, _ = _call(w, inputs, seed)  # fills the arena and plan caches
        untraced: List[float] = []
        traced: List[float] = []
        recorder = result = stats = captured = None
        t_start = perf_counter()
        while not traced or (len(traced) < 2 and perf_counter() - t_start < seconds / 2):
            reference, wall, _ = _call(w, inputs, seed)
            untraced.append(wall)
            recorder, wall, result, stats, captured = _traced_call(w, inputs, seed)
            traced.append(wall)
        wall = traced[-1]
        steps = result.trained_steps

        main = recorder.self_times(recorder.main_thread)
        total = recorder.totals()
        counts = recorder.counts()
        other = main.get("pipeline.train_gnn", 0.0)
        coverage = 1.0 - other / wall
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        sample_busy = total.get("sampling.bulk", 0.0)
        stall = total.get("data.next", 0.0)
        compute = sum(main.get(k, 0.0) for k in ("models.forward", "nn.loss", "tensor.backward", "nn.optim"))
        world = w.gnn.world_size
        params = list(result.model.parameters())
        losses = captured["losses"][::world]  # the lead rank's, as the trainer logs them
        groups = counts.get("sampling.bulk", 0) // world
        bulk_ref, seq_ref = _sampler_reference(w, inputs, seed, max(groups, 1))

        m: Dict[str, float] = {
            "detector.generate_s": inputs.timings["generate_s"],
            "detector.build_graph_s": inputs.timings["build_graph_s"],
            "store.ingest_s": inputs.timings.get("ingest_s", 0.0),
            "store.ingest_mb_per_s": (
                inputs.timings["ingest_bytes"] / 2**20 / inputs.timings["ingest_s"]
                if "ingest_s" in inputs.timings else 0.0
            ),
            "store.materialize_s": total.get("store.materialize", 0.0),
            "store.hit_rate": stats.hit_rate() if stats else 0.0,
            "store.maps": stats.maps if stats else 0,
            "store.unmaps": stats.unmaps if stats else 0,
            "store.peak_resident_mb": stats.peak_resident_bytes / 2**20 if stats else 0.0,
            "data.plan_s": total.get("data.plan", 0.0),
            "data.stall_s": stall,
            "data.overlap_eff": max(0.0, 1.0 - stall / sample_busy) if sample_busy else 0.0,
            "sampling.bulk_s": sample_busy,
            "sampling.batches": len(captured["batches"]),
            "sampling.sub_vertices": sum(b.graph.num_nodes for b in captured["batches"]),
            "sampling.sub_edges": sum(b.graph.num_edges for b in captured["batches"]),
            "sampling.seq_ref_s": seq_ref,
            "sampling.bulk_speedup": seq_ref / bulk_ref,
            "models.build_s": main.get("models.build", 0.0),
            "models.forward_s": main.get("models.forward", 0.0),
            "nn.loss_s": main.get("nn.loss", 0.0),
            "tensor.backward_s": main.get("tensor.backward", 0.0),
            "nn.optim_s": main.get("nn.optim", 0.0),
            "nn.params": sum(p.data.size for p in params),
            "nn.param_bytes": sum(p.data.nbytes for p in params),
            "nn.final_loss": float(np.mean(losses[-8:])) if losses else 0.0,
            "memory.arena_hit_rate": captured["arena_hit_rate"],
            "memory.arena_pooled_mb": default_arena().pooled_bytes / 2**20,
            "pipeline.train_steps": steps,
            "pipeline.train_other_s": other,
            "trace.coverage": coverage,
            "trace.overhead": overhead,
            "trace.spans": len(recorder.spans),
        }
        m.update(_kernel_probe(captured["batches"], w.gnn.hidden))

        # distributed: only where ranks exchange gradients
        if world > 1:
            sync = total.get("distributed.sync", 0.0)
            comm = result.comm_stats
            ref_rec, _, _, _, _ = _traced_call(w, inputs, seed, allreduce="per_parameter")
            per_param = ref_rec.totals().get("distributed.sync", 0.0)
            m.update({
                "distributed.spawn_s": main.get("distributed.spawn", 0.0),
                "distributed.close_s": main.get("distributed.close", 0.0),
                "distributed.sync_s": sync,
                "distributed.calls_per_step": comm.num_allreduce_calls / steps,
                "distributed.bytes_per_step": comm.bytes_reduced / steps,
                "distributed.modeled_s": comm.modeled_seconds,
                "distributed.per_param_ref_s": per_param,
                "distributed.coalesce_speedup": per_param / sync if sync else 0.0,
                "distributed.rank_busy_share": compute / (world * wall),
                "distributed.worker_rss_mb": rss_mb(resource.RUSAGE_CHILDREN),
            })
            checks.check(per_param > sync, f"coalesced sync {sync:.4f}s not faster than per-parameter {per_param:.4f}s (C3)")

        checks.check(_same_weights(reference.model.state_dict(), result.model.state_dict()),
                     "traced run's final weights differ from train_gnn's untraced")
        checks.check(_same_weights(cold.model.state_dict(), result.model.state_dict()),
                     "train_gnn is not deterministic per seed")
        checks.check(len(losses) == steps and all(np.isfinite(losses)),
                     f"traced {len(losses)} per-step losses for {steps} steps")
        checks.check(
            evaluate_edge_classifier(reference.model, inputs.val, w.gnn.threshold)
            == evaluate_edge_classifier(result.model, inputs.val, w.gnn.threshold),
            "traced and untraced models score validation edges differently",
        )
        checks.check(seq_ref > bulk_ref, f"bulk sampling {bulk_ref:.4f}s not faster than sequential {seq_ref:.4f}s (C2)")
        checks.check(coverage >= w.coverage_floor, f"trace.coverage {coverage:.3f} < {w.coverage_floor}")
        detail = {
            "digest": inputs.digest(),
            "losses": losses,
            "self_times_s": main,
            "span_counts": counts,
            "untraced_wall_s": untraced,
            "traced_wall_s": traced,
            "spans": recorder.dump(),
        }
        return m, checks, steps, detail
    finally:
        inputs.cleanup()
