#!/usr/bin/env python
"""End-to-end smoke suites: one entry point for the checks CI runs.

Usage::

    python scripts/validate.py --list
    python scripts/validate.py <suite> [suite options]     # = make <suite>-smoke

Each suite drives one subsystem the way an operator would — through the
``repro`` CLI where a command exists, through the library where the check
needs injected faults — and exits non-zero on the first violation.  All
suites share one ``fail``/``ok``, one tiny dataset + GNN config, and one
fitted tiny pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.pipeline import GNNTrainConfig  # noqa: E402

BASELINES = os.path.join(ROOT, "benchmarks", "results", "telemetry", "baselines")
SUITES = {}


def suite(name):
    def register(fn):
        SUITES[name] = fn
        return fn

    return register


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def ok(message: str) -> None:
    print(f"ok: {message}")


def run(*cmd, expect=0) -> str:
    """Run a command from the repo root with ``src`` importable; return stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    print("$ " + " ".join(cmd), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    if (proc.returncode == 0) != (expect == 0):
        fail(f"`{' '.join(cmd)}` exited {proc.returncode} (want {expect})")
    return proc.stdout


def repro(*argv, expect=0) -> str:
    """``python -m repro.cli argv`` — the operator's entry point."""
    return run(sys.executable, "-m", "repro.cli", *argv, expect=expect)


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def require_instruments(snapshot: dict, path: str, **sections) -> None:
    """Every named counter/gauge/histogram must be present in ``snapshot``."""
    for section, names in sections.items():
        table = snapshot.get(section)
        if not isinstance(table, dict):
            fail(f"{path}: missing or non-object section {section!r}")
        for name in names:
            if name not in table:
                fail(f"{path}: {section} missing {name!r}")


def require_positive_counters(counters: dict, names) -> None:
    for name in names:
        if counters.get(name, 0) <= 0:
            fail(f"counter {name!r} missing or zero (have {sorted(counters)})")


def same_weights(a: dict, b: dict, what: str) -> None:
    differing = [key for key in a if not np.array_equal(a[key], b[key])]
    if differing:
        fail(f"{what}: {len(differing)} tensor(s) differ, e.g. {differing[:3]}")


# -- shared fixtures -----------------------------------------------------
#: The tiny GNN every training suite starts from.
TINY_GNN = GNNTrainConfig(
    mode="bulk", epochs=2, batch_size=32, hidden=8, num_layers=2,
    depth=2, fanout=3, seed=0,
)


def tiny_dataset(name: str = "ex3_like"):
    from repro.detector import dataset_config, make_dataset

    return make_dataset(dataset_config(name).with_sizes(2, 1, 0))


def tiny_pipeline():
    """``(pipeline fitted on 3 tiny events, 3 held-out events to serve)``."""
    from repro.detector import DetectorGeometry, EventSimulator, ParticleGun
    from repro.pipeline import ExaTrkXPipeline, PipelineConfig

    geometry = DetectorGeometry.barrel_only()
    sim = EventSimulator(
        geometry, gun=ParticleGun(), particles_per_event=12, noise_fraction=0.05
    )
    events = [
        sim.generate(np.random.default_rng(40 + i), event_id=i) for i in range(7)
    ]
    config = PipelineConfig(
        embedding_dim=6,
        embedding_epochs=5,
        filter_epochs=5,
        frnn_radius=0.3,
        gnn=TINY_GNN.replace(batch_size=64, hidden=16, fanout=4),
    )
    pipe = ExaTrkXPipeline(config, geometry)
    pipe.fit(events[:3], events[3:4])
    return pipe, events[4:]


def sigkill_chaos_args(argv):
    parser = argparse.ArgumentParser(prog="validate.py <elastic|obs>")
    parser.add_argument("--world", type=int, default=4, help="world size")
    parser.add_argument("--rank", type=int, default=2, help="rank to SIGKILL")
    parser.add_argument(
        "--at-call", type=int, default=5, help="0-based collective attempt"
    )
    args = parser.parse_args(argv)
    if not 0 <= args.rank < args.world:
        fail(f"--rank {args.rank} outside world of {args.world}")
    return args


def train_with_sigkill(args):
    """Proc-backend training with worker ``rank`` SIGKILLed mid-epoch."""
    from repro.faults import FaultPlan, ProcessFault
    from repro.pipeline import train_gnn

    dataset = tiny_dataset()
    plan = FaultPlan(
        process_faults=[
            ProcessFault(at_call=args.at_call, rank=args.rank, kind="sigkill")
        ]
    )
    result = train_gnn(
        dataset.train,
        dataset.val,
        TINY_GNN.replace(world_size=args.world, backend="proc"),
        fault_plan=plan,
    )
    if result.comm_stats.rank_failures != [args.rank]:
        fail(
            "proc backend did not evict exactly the killed rank: "
            f"{result.comm_stats.rank_failures}"
        )
    return dataset, result


# -- telemetry -----------------------------------------------------------
@suite("telemetry")
def telemetry_suite(argv) -> None:
    """Traced training, then the exported trace/metrics against their
    schemas, then the per-phase table (``repro telemetry summarize``)."""
    with tempfile.TemporaryDirectory(prefix="repro_telemetry_") as tmp:
        trace, metrics = os.path.join(tmp, "trace.json"), os.path.join(tmp, "m.json")
        repro(
            "train", "--dataset", "tiny", "--mode", "shadow", "--epochs", "2",
            "--train-graphs", "2", "--val-graphs", "1", "--world-size", "2",
            "--trace-out", trace, "--metrics-out", metrics,
        )
        _check_trace_schema(trace)
        _check_metrics_schema(metrics)
        repro("telemetry", "summarize", trace)


def _check_trace_schema(path: str) -> None:
    """Valid Chrome ``trace_event`` JSON, or a JSONL span log."""
    with open(path) as fh:
        text = fh.read()
    # Both formats start with "{": a Chrome trace is ONE JSON object, a
    # JSONL log is one object per line — try whole-file JSON first.
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and payload.get("type") not in ("span", "event"):
        n, kind = _check_chrome_trace(payload, path), "chrome-trace"
    else:
        n, kind = _check_jsonl(text.splitlines(), path), "jsonl"
    ok(f"{path} ({kind}, {n} spans)")


def _check_chrome_trace(payload: dict, path: str) -> int:
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: 'traceEvents' missing or empty")
    n_spans = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "i", "M"):
            fail(f"{path}: traceEvents[{i}] has unknown phase {ph!r}")
        if ph == "M":
            continue
        for key in ("name", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"{path}: traceEvents[{i}] missing {key!r}")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                fail(f"{path}: traceEvents[{i}] has invalid 'dur'")
            n_spans += 1
    if n_spans == 0:
        fail(f"{path}: no complete ('X') span events")
    return n_spans


def _check_jsonl(lines: list, path: str) -> int:
    n_spans = 0
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec.get("type")
        if kind not in ("span", "event"):
            fail(f"{path}: line {i + 1} has unknown type {kind!r}")
        if kind == "span":
            for key in ("name", "t0", "t1", "dur", "id", "depth"):
                if key not in rec:
                    fail(f"{path}: line {i + 1} span missing {key!r}")
            if rec["dur"] < 0:
                fail(f"{path}: line {i + 1} span has negative duration")
            n_spans += 1
    if n_spans == 0:
        fail(f"{path}: no span records")
    return n_spans


def _check_metrics_schema(path: str) -> None:
    snapshot = load_json(path)
    require_instruments(
        snapshot, path, metadata=("config_hash", "git"),
        counters=(), gauges=(), histograms=(),
    )
    for name, summary in snapshot["histograms"].items():
        for key in ("count", "sum", "min", "max", "mean", "p50", "p95"):
            if key not in summary:
                fail(f"{path}: histogram {name!r} missing {key!r}")
    ok(
        f"{path} ({len(snapshot['counters'])} counters, "
        f"{len(snapshot['gauges'])} gauges, "
        f"{len(snapshot['histograms'])} histograms)"
    )


# -- prefetch ------------------------------------------------------------
@suite("prefetch")
def prefetch_suite(argv) -> None:
    """Prefetched training exports the ``data.prefetch.*`` health
    instruments and spans, and workers=0 vs workers=4 train to
    bit-identical weights — the async pipeline's core contract."""
    from repro.pipeline import train_gnn

    with tempfile.TemporaryDirectory(prefix="repro_prefetch_") as tmp:
        trace, path = os.path.join(tmp, "trace.json"), os.path.join(tmp, "m.json")
        repro(
            "train", "--dataset", "tiny", "--mode", "bulk", "--epochs", "2",
            "--train-graphs", "2", "--val-graphs", "1", "--prefetch-workers", "4",
            "--trace-out", trace, "--metrics-out", path,
        )
        snapshot, events = load_json(path), load_json(trace).get("traceEvents")
    require_instruments(
        snapshot,
        path,
        counters=(
            "data.prefetch.steps",
            "data.prefetch.stall_seconds",
            "data.prefetch.sample_seconds",
        ),
        gauges=("data.prefetch.workers", "data.prefetch.queue_depth"),
        histograms=("data.prefetch.queue_depth_dist", "data.prefetch.stall_s"),
    )
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    if counters["data.prefetch.steps"] <= 0:
        fail("data.prefetch.steps is zero — the loader never ran")
    if gauges["data.prefetch.workers"] <= 0:
        fail("data.prefetch.workers is zero — prefetching was not enabled")
    if snapshot["histograms"]["data.prefetch.stall_s"]["count"] <= 0:
        fail("stall histogram is empty")
    ok(
        f"{int(counters['data.prefetch.steps'])} prefetched steps, workers="
        f"{int(gauges['data.prefetch.workers'])}, stall "
        f"{counters['data.prefetch.stall_seconds']:.3f}s of "
        f"{counters['data.prefetch.sample_seconds']:.3f}s sampling"
    )

    if not isinstance(events, list):
        fail("trace: 'traceEvents' missing")
    names = {ev.get("name") for ev in events if isinstance(ev, dict)}
    for required in ("data.prefetch.next", "data.prefetch.sample"):
        if required not in names:
            fail(f"trace: no {required!r} span")
    tids = {
        ev.get("tid")
        for ev in events
        if isinstance(ev, dict) and ev.get("name") == "data.prefetch.sample"
    }
    ok(f"prefetch spans present on thread lanes {sorted(tids)}")

    dataset = tiny_dataset("tiny")
    states = [
        train_gnn(
            dataset.train,
            dataset.val,
            TINY_GNN.replace(epochs=1, bulk_k=2, prefetch_workers=workers),
        ).model.state_dict()
        for workers in (0, 4)
    ]
    same_weights(*states, "determinism (workers=0 vs workers=4)")
    ok(f"workers=0 and workers=4 train bit-identical weights ({len(states[0])} tensors)")


# -- serve ---------------------------------------------------------------
@suite("serve")
def serve_suite(argv) -> None:
    """The dispatch policy's shape on a SimClock — below capacity no
    request waits for company (queue-wait p50 exactly 0), overload still
    sheds and degrades — through the load generator, a replay drill (a
    replayed event is one memo hit: no GNN forward, ``reconstruct``'s
    tracks), batches of large events on every core (``reconstruct``'s
    tracks, GNN spans on two thread lanes, sequential vs served ms/event
    printed), and the ``serve.*`` metrics schema (latency histograms carry
    p50/p95/p99).  Bit-parity across batchings and the memo policy's
    corners are tier-1's (``tests/serve``), not re-proved here."""
    from repro.faults import SimClock
    from repro.obs import RunTelemetry, use_telemetry
    from repro.serve import InferenceEngine, LoadGenConfig, ServeConfig, run_loadgen

    pipe, serve_events = tiny_pipeline()
    telemetry = RunTelemetry.for_run(command="validate serve")
    with use_telemetry(telemetry):
        # the ledger's serve_small_open shape (batch 8 / wait 5 ms / queue
        # 64, Poisson at 18/s, ~1/9 of capacity): an idle engine dispatches
        # at once, so the median request never queues — a revert to
        # deadline batching reads max_wait_ms here
        calm = InferenceEngine(
            pipe,
            ServeConfig(
                max_batch_events=8,
                max_wait_ms=5.0,
                max_queue_events=64,
                sim_service_time_s=0.006,
            ),
            clock=SimClock(),
        )
        report = run_loadgen(
            calm,
            serve_events,
            LoadGenConfig(rate=18.0, num_requests=48, arrival="poisson", seed=1),
        )
        if report.completed != report.offered or report.degraded:
            fail("low-load run shed or degraded requests")
        if report.queue_wait_p50_ms != 0.0:
            fail(f"low-load queue-wait p50 {report.queue_wait_p50_ms} ms != 0: "
                 "requests wait while the engine is idle")
        ok(f"low load: queue-wait p50 0 ms, mean batch {report.mean_batch_size:.2f}, "
           f"latency p50 {report.latency_p50_ms:.1f} ms")

        # replay drill: the calm engine has answered every event, so a
        # replay is one hash per request — no forward, the same tracks
        def forwards_and_memo_hits():
            return (
                sum(s.name == "pipeline.gnn" for s in telemetry.tracer.spans),
                telemetry.metrics.to_dict()["counters"].get("serve.cache.memo_hits", 0),
            )

        forwards, memo_hits = forwards_and_memo_hits()
        t0 = time.perf_counter()
        replay = calm.process(serve_events)
        hit_ms = 1e3 * (time.perf_counter() - t0)
        if forwards_and_memo_hits() != (forwards, memo_hits + len(replay)):
            fail(f"replay of {len(replay)} answered events: pipeline.gnn spans / "
                 f"serve.cache.memo_hits {(forwards, memo_hits)} -> {forwards_and_memo_hits()}")
        with InferenceEngine(pipe, calm.config, clock=SimClock()) as cold:
            t0 = time.perf_counter()
            fresh = cold.process(serve_events)
            miss_ms = 1e3 * (time.perf_counter() - t0)
        for event, miss, hit in zip(serve_events, fresh, replay):
            expected = pipe.reconstruct(event)
            for tracks in (miss.tracks, hit.tracks):
                if len(tracks) != len(expected) or not all(map(np.array_equal, tracks, expected)):
                    fail(f"replay drill: event {event.event_id} served tracks != reconstruct")
        ok(f"replay: {len(replay)} memo hits, 0 GNN forwards, tracks == reconstruct; "
           f"hit batch {hit_ms:.2f} ms vs miss batch {miss_ms:.1f} ms")

        overload = InferenceEngine(
            pipe,
            ServeConfig(
                max_batch_events=4,
                max_wait_ms=5.0,
                max_queue_events=8,
                latency_budget_ms=25.0,
                sim_service_time_s=0.05,
                cache_capacity=0,  # a memoised replay has no forward to skip
            ),
            clock=SimClock(),
        )
        report = run_loadgen(
            overload,
            serve_events,
            LoadGenConfig(rate=400.0, num_requests=48, arrival="poisson", seed=1),
        )
        if report.shed == 0:
            fail("overload run shed no requests")
        if report.degraded == 0:
            fail("overload run served nothing degraded")
        if report.completed + report.shed != report.offered:
            fail("loadgen accounting does not add up")
        ok(f"overload shed {report.shed} and degraded {report.degraded} of "
           f"{report.offered} offered")
        _check_events_on_every_core(pipe, telemetry)

    snapshot = telemetry.metrics.to_dict()
    require_positive_counters(
        snapshot["counters"],
        (
            "serve.requests.submitted",
            "serve.requests.completed",
            "serve.requests.shed",
            "serve.requests.degraded",
            "serve.cache.hits",
            "serve.cache.misses",
        ),
    )
    latency = snapshot["histograms"].get("serve.latency_ms")
    if latency is None:
        fail("histogram 'serve.latency_ms' missing")
    for key in ("p50", "p95", "p99"):
        if key not in latency:
            fail(f"latency histogram summary missing {key!r}")
    if not latency["count"]:
        fail("latency histogram recorded no samples")
    ok("serve.* counters populated, latency histogram has p50/p95/p99")


def _check_events_on_every_core(pipe, telemetry) -> None:
    """16 distinct large events in batches of 8 run on every core (the
    per-event map): the tracks are ``reconstruct``'s, and the GNN spans
    sit on two or more thread lanes when the process has two or more cores.
    The printed ms/event compare fairly only with BLAS pinned to one thread
    (``OPENBLAS_NUM_THREADS=1``), as the benchmark suite runs."""
    from repro.detector import EventSimulator, ParticleGun
    from repro.pipeline import _per_event
    from repro.serve import InferenceEngine, ServeConfig

    sim = EventSimulator(
        pipe.geometry, gun=ParticleGun(), particles_per_event=100, noise_fraction=0.05
    )
    events = [sim.generate(np.random.default_rng(70 + i), event_id=70 + i) for i in range(16)]
    t0 = time.perf_counter()
    expected = [pipe.reconstruct(e) for e in events]
    sequential_ms = 1e3 * (time.perf_counter() - t0) / len(events)
    before = len(telemetry.tracer.spans)
    with InferenceEngine(pipe, ServeConfig(max_batch_events=8)) as engine:
        t0 = time.perf_counter()
        served = engine.process(events[:8]) + engine.process(events[8:])
        parallel_ms = 1e3 * (time.perf_counter() - t0) / len(events)
    for event, tracks, request in zip(events, expected, served):
        if len(request.tracks) != len(tracks) or not all(map(np.array_equal, request.tracks, tracks)):
            fail(f"event {event.event_id}: tracks served in a batch of 8 != reconstruct")
    lanes = {s.tid for s in telemetry.tracer.spans[before:] if s.name == "pipeline.gnn"}
    helpers = _per_event._HELPERS
    if not (2 <= len(lanes) <= 1 + helpers if helpers >= 1 else len(lanes) == 1):
        fail(f"pipeline.gnn spans on {len(lanes)} thread lane(s) with {helpers} helper(s)")
    ok(f"16 large events in batches of 8 == reconstruct, GNN spans on {len(lanes)} "
       f"lane(s): {sequential_ms:.1f} ms/event sequential, {parallel_ms:.1f} ms/event served")


# -- guard ---------------------------------------------------------------
@suite("guard")
def guard_suite(argv) -> None:
    """Three deterministic recovery paths driven by ``repro.faults`` plans:
    watchdog rollback on a NaN loss, checkpoint fallback past a
    bit-flipped file, and circuit-breaker open → degraded → recovered
    with zero hung requests."""
    from repro.obs import RunTelemetry, use_telemetry

    telemetry = RunTelemetry.for_run(command="validate guard")
    with tempfile.TemporaryDirectory() as workdir, use_telemetry(telemetry):
        _check_watchdog(workdir)
        _check_checkpoint_fallback(workdir)
        _check_breaker()
    require_positive_counters(
        telemetry.metrics.to_dict()["counters"],
        ("guard.watchdog.rollbacks", "guard.resume.fallback", "guard.breaker.gnn.open"),
    )
    ok("guard.* counters populated")


def _guard_graphs(seed: int):
    from repro.graph import random_graph

    rng = np.random.default_rng(seed)
    return [random_graph(60, 240, rng=rng, true_fraction=0.3) for _ in range(2)]


def _guard_config(path: str, **overrides) -> GNNTrainConfig:
    return TINY_GNN.replace(
        batch_size=16, depth=3, fanout=6, bulk_k=2,
        checkpoint_every=1, checkpoint_path=path, keep_last=3, **overrides,
    )


def _train_with_nan_fault(workdir: str, tag: str):
    """One watchdog run: NaN loss injected at step 20, rollback expected."""
    from repro.faults import FaultPlan, NumericFault
    from repro.pipeline import train_gnn

    graphs = _guard_graphs(7)
    config = _guard_config(
        os.path.join(workdir, f"wd_{tag}.npz"), epochs=4, seed=3,
        watchdog=True, watchdog_max_rollbacks=2, watchdog_lr_backoff=0.5,
    )
    # at_step=20 lands in epoch 1, after the epoch-0 checkpoint exists.
    plan = FaultPlan(numeric_faults=[NumericFault(at_step=20, target="loss")])
    return train_gnn(graphs, graphs[:1], config, fault_plan=plan)


def _check_watchdog(workdir: str) -> None:
    result = _train_with_nan_fault(workdir, "a")
    if result.watchdog_rollbacks != 1:
        fail(f"expected exactly 1 watchdog rollback, got {result.watchdog_rollbacks}")
    losses = [r.train_loss for r in result.history.records]
    if not losses or not all(np.isfinite(losses)):
        fail(f"post-rollback training losses not finite: {losses}")
    twin_losses = [
        r.train_loss for r in _train_with_nan_fault(workdir, "b").history.records
    ]
    if losses != twin_losses:
        fail(f"two same-seed faulted runs diverged: {losses} vs {twin_losses}")
    ok(f"NaN loss at step 20 -> 1 rollback + LR backoff, final loss "
       f"{losses[-1]:.4f} finite, recovery bit-deterministic")


def _check_checkpoint_fallback(workdir: str) -> None:
    from repro.faults import flip_bit
    from repro.pipeline import checkpoint_history_paths, train_gnn

    graphs = _guard_graphs(11)
    path = os.path.join(workdir, "fb.npz")
    config = _guard_config(path, epochs=3, seed=5)
    train_gnn(graphs, graphs[:1], config)
    history = checkpoint_history_paths(path)
    if len(history) < 2:
        fail(f"expected >=2 retained history checkpoints, got {history}")
    flip_bit(path, byte_offset=256)  # corrupt the newest checkpoint
    resumed = train_gnn(
        graphs, graphs[:1], config.replace(epochs=4, resume_from=path)
    )
    if resumed.resume_fallback_path is None:
        fail("resume did not fall back despite a corrupt primary checkpoint")
    if os.path.abspath(resumed.resume_fallback_path) == os.path.abspath(path):
        fail("fallback 'selected' the corrupt primary checkpoint")
    if resumed.resumed_epoch is None:
        fail("fallback resume reports no resumed epoch")
    final = resumed.history.records[-1].train_loss
    if not np.isfinite(final):
        fail(f"post-fallback training loss not finite: {final}")
    ok(f"bit-flipped newest checkpoint skipped, resumed epoch "
       f"{resumed.resumed_epoch} from verified "
       f"{os.path.basename(resumed.resume_fallback_path)}")


def _check_breaker() -> None:
    from repro.faults import FaultPlan, SimClock, StageFault
    from repro.serve import InferenceEngine, ServeConfig

    pipe, serve_events = tiny_pipeline()
    clock = SimClock()
    plan = FaultPlan(stage_faults=[StageFault(stage="gnn", at_call=1, times=3)])
    engine = InferenceEngine(
        pipe,
        ServeConfig(
            max_batch_events=1,
            cache_capacity=0,  # every request exercises the GNN stage
            breaker_threshold=2,
            breaker_cooldown_ms=100.0,
            breaker_probes=1,
        ),
        clock=clock,
        fault_plan=plan,
    )
    statuses = []
    for _ in range(8):
        req = engine.submit(serve_events[0])
        engine.flush()  # synchronous engine: dispatch immediately
        statuses.append((req.status, req.degraded, req.breaker_degraded))
        clock.sleep(0.06)  # two ticks span the 100 ms cooldown
    engine.close()

    if engine.breaker.transitions.get("open", 0) < 2:
        fail(f"breaker never re-opened after a failed probe: "
             f"{engine.breaker.transitions}")
    if engine.breaker.state != "closed":
        fail(f"breaker did not recover to closed: {engine.breaker.state}")
    degraded = [s for s in statuses if s[2]]
    if not degraded:
        fail("no request was served breaker-degraded while open")
    if statuses[-1][:2] != ("done", False):
        fail(f"post-recovery request not served normally: {statuses[-1]}")
    stats = engine.stats
    if stats.terminal != stats.submitted:
        fail(f"hung requests after drain: terminal {stats.terminal} != "
             f"submitted {stats.submitted}")
    health = engine.health()
    if health["live"] or health["in_flight"]:
        fail(f"engine not fully drained after close(): {health}")
    ok(f"3 injected GNN failures -> breaker open "
       f"({engine.breaker.transitions['open']}x), {len(degraded)} served "
       f"degraded, half-open probe recovered, 0 hung of {stats.submitted} requests")


# -- elastic -------------------------------------------------------------
@suite("elastic")
def elastic_suite(argv) -> None:
    """SIGKILL a real worker process mid-epoch on the proc backend: the
    supervisor must evict the rank, resync the survivors and finish; a
    sim-backend replay of the same failure (a permanent ``CommFault`` at
    the same attempt) must leave **bit-identical** survivor weights."""
    from repro.faults import CommFault, FaultPlan
    from repro.pipeline import train_gnn

    args = sigkill_chaos_args(argv)
    print(
        f"elastic chaos: SIGKILL rank {args.rank} at collective attempt "
        f"{args.at_call}, world={args.world}"
    )
    dataset, res_proc = train_with_sigkill(args)
    res_sim = train_gnn(
        dataset.train,
        dataset.val,
        TINY_GNN.replace(world_size=args.world, backend="sim"),
        fault_plan=FaultPlan(
            comm_faults=[
                CommFault(at_call=args.at_call, rank=args.rank, transient=False)
            ]
        ),
    )
    print(f"proc backend evicted ranks: {res_proc.comm_stats.rank_failures}")
    print(f"sim replay evicted ranks:   {res_sim.comm_stats.rank_failures}")
    if res_sim.comm_stats.rank_failures != [args.rank]:
        fail(
            "sim replay did not evict exactly the faulted rank: "
            f"{res_sim.comm_stats.rank_failures}"
        )
    state_sim = res_sim.model.state_dict()
    same_weights(state_sim, res_proc.model.state_dict(), "backends after recovery")
    ok(
        f"survivors' weights bit-identical across backends "
        f"({len(state_sim)} parameter tensors), final train loss "
        f"{res_proc.history.records[-1].train_loss:.6f}"
    )


# -- obs -----------------------------------------------------------------
@suite("obs")
def obs_suite(argv) -> None:
    """One merged Chrome trace with a lane per worker rank and the
    supervisor's chaos events; live ``/metrics`` + ``/health`` while
    serving; and the perf-regression gate passing a self-diff (fresh and
    checked-in baselines) but tripping on an injected 3x slowdown."""
    args = sigkill_chaos_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro_obs_") as tmp:
        trace_path = _check_cross_process_trace(tmp, args)
        _check_live_exposition()
        _check_regression_gate(tmp, trace_path)
    for name in ("bench_fig3_epoch_time.json", "bench_serving.json"):
        baseline = os.path.join(BASELINES, name)
        repro("telemetry", "diff", baseline, baseline)


def _check_cross_process_trace(tmp: str, args) -> str:
    from repro.obs import RunTelemetry, use_telemetry

    print(f"[1/3] proc-backend trace: SIGKILL rank {args.rank} at attempt {args.at_call}")
    telemetry = RunTelemetry.for_run(seed=0, world_size=args.world)
    with use_telemetry(telemetry):
        train_with_sigkill(args)
    trace_path = os.path.join(tmp, "proc_trace.json")
    telemetry.write_trace(trace_path)
    events = load_json(trace_path)["traceEvents"]

    lane_names = {
        ev["pid"]: ev["args"]["name"]
        for ev in events
        if ev.get("ph") == "M" and ev.get("name") == "process_name"
    }
    worker_pids = {pid for pid in lane_names if pid != 0}
    survivors = args.world - 1
    if len(worker_pids) < survivors:
        fail(
            f"expected >= {survivors} worker lanes in the merged trace, got "
            f"{sorted(lane_names.values())}"
        )
    if lane_names.get(0) != "repro":
        fail(f"driver lane (pid 0) missing or renamed: {lane_names}")

    step_spans = {"comm.worker.allreduce", "comm.worker.reduce",
                  "comm.worker.copy", "comm.worker.barrier_wait"}
    pids_with_steps = {
        ev["pid"]
        for ev in events
        if ev.get("ph") == "X" and ev["name"] in step_spans and ev["pid"] != 0
    }
    if len(pids_with_steps) < survivors:
        fail(
            f"collective-step spans present in only {len(pids_with_steps)} "
            f"worker lanes (need >= {survivors})"
        )
    missing = step_spans - {ev["name"] for ev in events if ev.get("ph") == "X"}
    if missing:
        fail(f"missing collective-step span kinds: {sorted(missing)}")

    instant = {ev["name"] for ev in events if ev.get("ph") == "i"}
    for needed in ("comm.supervisor.rank_death", "comm.supervisor.rank_evicted",
                   "comm.supervisor.resync_broadcast", "comm.rank_evicted",
                   "comm.resync"):
        if needed not in instant:
            fail(f"supervisor event {needed!r} missing from trace "
                 f"(instants present: {sorted(instant)})")
    require_positive_counters(
        telemetry.metrics.to_dict()["counters"],
        ("comm.supervisor.rank_death", "comm.supervisor.rank_evicted",
         "comm.supervisor.resync_broadcast", "comm.worker.heartbeats",
         "comm.worker.collectives"),
    )
    ok(
        f"{len(worker_pids)} worker lanes, "
        f"{sum(1 for ev in events if ev.get('ph') == 'X' and ev['pid'] != 0)} "
        f"worker spans, supervisor events + counters present"
    )
    return trace_path


def _check_live_exposition() -> None:
    from repro.faults import SimClock
    from repro.obs import MetricsExporter, RunTelemetry, use_telemetry
    from repro.serve import InferenceEngine, LoadGenConfig, ServeConfig, run_loadgen

    print("[2/3] live exposition: /metrics + /health during loadgen")
    pipe, serve_events = tiny_pipeline()
    telemetry = RunTelemetry.for_run(seed=0)
    with use_telemetry(telemetry):
        engine = InferenceEngine(
            pipe,
            ServeConfig(max_batch_events=4, max_wait_ms=5.0, max_queue_events=64,
                        workers=0, sim_service_time_s=1e-3),
            clock=SimClock(),
        )
        with MetricsExporter(
            metrics_fn=telemetry.metrics_snapshot,
            health_fn=engine.health,
            port=0,
        ) as exporter:
            health = json.loads(
                urllib.request.urlopen(f"{exporter.url}/health").read()
            )
            if not (health.get("live") and health.get("ready")):
                fail(f"/health not ready while serving: {health}")

            run_loadgen(
                engine, serve_events,
                LoadGenConfig(rate=200.0, num_requests=32, arrival="poisson", seed=0),
            )
            body = urllib.request.urlopen(f"{exporter.url}/metrics").read().decode()
            for needle in (
                '# TYPE serve_latency_ms summary',
                'serve_latency_ms{quantile="0.5"}',
                'serve_latency_ms{quantile="0.95"}',
                'serve_latency_ms{quantile="0.99"}',
                "serve_latency_ms_count",
            ):
                if needle not in body:
                    fail(f"/metrics missing {needle!r}; got:\n{body[:2000]}")

            engine.close()  # graceful drain: readiness must flip
            try:
                urllib.request.urlopen(f"{exporter.url}/health")
                fail("/health returned 200 after engine drain")
            except urllib.error.HTTPError as err:
                if err.code != 503:
                    fail(f"/health after drain: expected 503, got {err.code}")
                health = json.loads(err.read())
            if health.get("ready"):
                fail(f"/health still ready after drain: {health}")
    ok("Prometheus serve.* quantiles served; readiness flipped on drain")


def _check_regression_gate(tmp: str, trace_path: str) -> None:
    print("[3/3] perf-regression gate: baseline + injected 3x slowdown")
    baseline_path = os.path.join(tmp, "baseline.json")
    repro("telemetry", "baseline", trace_path, "-o", baseline_path)
    repro("telemetry", "diff", trace_path, baseline_path)
    trace = load_json(trace_path)
    for ev in trace["traceEvents"]:
        if ev.get("ph") == "X":
            ev["dur"] = float(ev.get("dur", 0.0)) * 3.0 + 1.0
    slow_path = os.path.join(tmp, "slow_trace.json")
    with open(slow_path, "w") as fh:
        json.dump(trace, fh)
    repro("telemetry", "diff", slow_path, baseline_path, expect=1)
    ok("self-diff exit 0, slowdown diff exit nonzero")


# -- kernels -------------------------------------------------------------
@suite("kernels")
def kernels_suite(argv) -> None:
    """``repro.tensor.kernels`` fast path: scatter parity and id
    validation, fused-op parity (forward + gradients) against the unfused
    references, a measured message-path speedup, the forward/backward op
    table of one Ex3-shaped step; then the fused/precision parity test
    files, a fresh fig3 profile, and the perf-regression gate against the
    checked-in baseline (locks in the fused epoch-time win)."""
    parser = argparse.ArgumentParser(prog="validate.py kernels")
    # Defaults mirror the Fig-3 bulk-ShaDow batch shapes (hidden 32 with
    # the residual concat: e = f = 64), where the old path paid the most
    # for gathers, concats, and np.add.at dispatch.  At module scale
    # (m ~ 10^5) the GEMMs dominate and the ratio shrinks toward 1.
    parser.add_argument("--edges", type=int, default=6_000)
    parser.add_argument("--nodes", type=int, default=1_500)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    _check_scatter_parity(rng)
    _check_fused_parity(rng)
    _check_speedup(rng, args.edges, args.nodes, args.repeats)
    _print_op_table()
    run(
        sys.executable, "-m", "pytest", "-q", "tests/tensor/test_fused_kernels.py",
        "tests/memory/test_arena.py", "tests/models/test_fused_ignn.py",
    )
    run(
        sys.executable, "-m", "pytest", "-q", "--benchmark-only", "-k", "ex3",
        "benchmarks/bench_fig3_epoch_time.py",
    )
    repro(
        "telemetry", "diff",
        "benchmarks/results/telemetry/test_fig3_epoch_time_ex3-ex3.trace.json",
        os.path.join(BASELINES, "bench_fig3_epoch_time.json"),
    )


def _check_scatter_parity(rng) -> None:
    from repro.tensor import kernels

    for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-4)):
        idx = rng.integers(0, 97, size=20_000)
        vals = rng.normal(size=(20_000, 8)).astype(dtype)
        ref = np.zeros((97, 8), dtype=dtype)
        np.add.at(ref, idx, vals)
        out = kernels.scatter_add_rows(vals, idx, 97)
        if not np.allclose(out, ref, rtol=rtol, atol=rtol):
            fail(f"scatter_add_rows diverges from np.add.at ({dtype.__name__})")
    # one id rule for the 2-D (CSR product) and the 1-D (bincount) path
    for payload in (np.ones((4, 2)), np.ones(4)):
        for bad in (-1, 3):
            try:
                kernels.scatter_add_rows(payload, np.array([0, 1, bad, 1]), 3)
            except IndexError:
                continue
            fail(f"scatter_add_rows accepted id {bad} for 3 segments ({payload.ndim}-D)")
        empty = kernels.scatter_add_rows(payload[:0], np.empty(0, np.int64), 3)
        if empty.shape != (3,) + payload.shape[1:] or empty.any():
            fail(f"empty index: expected zeros, got {empty!r}")
    ok("scatter parity, out-of-range ids rejected")


def _edge_case(rng, m, n, e=64, f=64, h=32, dtype=np.float64):
    from repro.tensor import Tensor

    y = Tensor(rng.normal(size=(m, e)).astype(dtype), requires_grad=True)
    x = Tensor(rng.normal(size=(n, f)).astype(dtype), requires_grad=True)
    rows = rng.integers(0, n, size=m)
    cols = rng.integers(0, n, size=m)
    w1 = Tensor(rng.normal(size=(e + 2 * f, h)).astype(dtype), requires_grad=True)
    w2 = Tensor(rng.normal(size=(2 * h + f, h)).astype(dtype), requires_grad=True)
    return y, x, rows, cols, w1, w2


def _params(tensors):
    y, x, _, _, w1, w2 = tensors
    return y, x, w1, w2


def _clear_grads(tensors) -> None:
    for p in _params(tensors):
        p.grad = None


def _fused_pass(y, x, rows, cols, w1, w2):
    from repro.tensor import ops

    msg = ops.relu(ops.gather_concat_matmul(y, x, rows, cols, w1))
    out = ops.scatter_mlp_input(msg, rows, cols, x, w2)
    ops.sum(out).backward()
    return out.data


def _unfused_pass(y, x, rows, cols, w1, w2):
    from repro.tensor import ops

    n = x.shape[0]
    cat = ops.concat([y, ops.gather_rows(x, rows), ops.gather_rows(x, cols)], axis=1)
    msg = ops.relu(ops.matmul(cat, w1))
    agg = ops.concat(
        [ops.segment_sum(msg, rows, n), ops.segment_sum(msg, cols, n), x], axis=1
    )
    out = ops.matmul(agg, w2)
    ops.sum(out).backward()
    return out.data


def _check_fused_parity(rng) -> None:
    tensors = _edge_case(rng, m=600, n=80)
    fused_out = _fused_pass(*tensors)
    fused_grads = [p.grad.copy() for p in _params(tensors)]
    _clear_grads(tensors)
    ref_out = _unfused_pass(*tensors)
    if not np.allclose(fused_out, ref_out, rtol=1e-11, atol=1e-11):
        fail("fused forward diverges from unfused reference")
    for g, p in zip(fused_grads, _params(tensors)):
        if not np.allclose(g, p.grad, rtol=1e-10, atol=1e-10):
            fail("fused gradients diverge from unfused reference")
    ok("fused-op parity")


def _legacy_pass(y, x, rows, cols, w1, w2):
    """The pre-fusion message path, hand-rolled: fancy-index gathers, a
    materialised concat, ``np.add.at`` scatters, fresh temporaries for
    every intermediate — forward *and* backward (grad of sum())."""
    yd, xd, W1, W2 = y.data, x.data, w1.data, w2.data
    e, f, h = yd.shape[1], xd.shape[1], W1.shape[1]
    n = xd.shape[0]
    # forward
    cat = np.concatenate([yd, xd[rows], xd[cols]], axis=1)
    pre = cat @ W1
    msg = np.maximum(pre, 0.0)
    m_src = np.zeros((n, h), dtype=msg.dtype)
    np.add.at(m_src, rows, msg)
    m_dst = np.zeros((n, h), dtype=msg.dtype)
    np.add.at(m_dst, cols, msg)
    agg = np.concatenate([m_src, m_dst, xd], axis=1)
    out = agg @ W2
    # backward from grad = ones(out.shape)
    grad = np.ones_like(out)
    g_agg = grad @ W2.T
    g_w2 = agg.T @ grad
    g_msg = g_agg[:, :h][rows] + g_agg[:, h : 2 * h][cols]
    g_msg *= pre > 0
    g_cat = g_msg @ W1.T
    g_w1 = cat.T @ g_msg
    g_y = g_cat[:, :e]
    g_x = np.array(g_agg[:, 2 * h :])
    np.add.at(g_x, rows, g_cat[:, e : e + f])
    np.add.at(g_x, cols, g_cat[:, e + f :])
    return out, (g_y, g_x, g_w1, g_w2)


def _check_speedup(rng, m: int, n: int, repeats: int) -> None:
    tensors = _edge_case(rng, m=m, n=n, dtype=np.float32)
    # sanity: the legacy reference must agree with the fused path before
    # its timing means anything
    _fused_pass(*tensors)
    _, legacy_grads = _legacy_pass(*tensors)
    for g, p in zip(legacy_grads, _params(tensors)):
        if not np.allclose(g, p.grad, rtol=1e-3, atol=1e-3):
            fail("legacy reference pass diverges from the fused path")

    def best_of(fn) -> float:
        times = []
        for _ in range(repeats):
            _clear_grads(tensors)
            t0 = time.perf_counter()
            fn(*tensors)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_fused = best_of(_fused_pass)
    t_legacy = best_of(_legacy_pass)
    speedup = t_legacy / t_fused
    print(
        f"message path (m={m}, n={n}): legacy {t_legacy * 1e3:.1f} ms, "
        f"fused {t_fused * 1e3:.1f} ms -> {speedup:.2f}x"
    )
    # 1.5x is the smoke floor: typical runs measure 2-3x, but best-of
    # timing on a loaded CI box jitters; the headline >=2x epoch-time
    # claim is gated by the fig3 benchmark baseline instead.
    if speedup < 1.5:
        fail(f"fused message path speedup {speedup:.2f}x < 1.5x")
    ok("speedup")


def _print_op_table() -> None:
    """Forward/backward seconds by autograd op for one Ex3-shaped training
    step (ROADMAP: aim the next kernel pass from numbers)."""
    from repro.graph import random_graph
    from repro.models import IGNNConfig, InteractionGNN
    from repro.nn import BCEWithLogitsLoss
    from repro.perf import by_op, profiled
    from repro.tensor import Tensor

    g = random_graph(1_400, 4_500, rng=np.random.default_rng(0), true_fraction=0.4)
    model = InteractionGNN(IGNNConfig(
        node_features=g.x.shape[1], edge_features=g.y.shape[1], hidden=64, num_layers=8,
    ))
    loss_fn, labels = BCEWithLogitsLoss(), g.edge_labels.astype(np.float32)

    def step():
        loss = loss_fn(model(Tensor(g.x), Tensor(g.y), g.rows, g.cols), labels)
        loss.backward()
        return loss

    # warm (plans, allocator), and count what one step puts on the tape
    seen, stack, nodes = set(), [step()], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            nodes += not node.is_leaf
    with profiled() as report:
        step()
    print(f"{'op':<22} | {'fwd [ms]':>9} | {'bwd [ms]':>9} | calls")
    for op, (fwd, bwd, calls) in by_op(report).items():
        print(f"{op:<22} | {1e3 * fwd:>9.2f} | {1e3 * bwd:>9.2f} | {calls:>5}")
    print(f"tape: {nodes} op nodes per step over {len(seen) - nodes} leaves")
    if nodes > 320:
        fail(f"one step records {nodes} tape nodes (> 320): an MLP layer is one node")
    ok("op table (m=4500, n=1400, hidden 64, 8 layers; cProfile, one step)")


# -- store ---------------------------------------------------------------
@suite("store")
def store_suite(argv) -> None:
    """The event store's load-bearing guarantees: an invalid event is
    quarantined and never reaches a shard; streamed epochs over a dataset
    >= 4x the resident-byte budget keep mapped bytes and RSS growth
    bounded; sampling and training are bit-identical streamed vs in-RAM;
    and ``repro store ingest`` + ``verify`` round-trip."""
    from repro.detector import dataset_config
    from repro.store import ingest_simulated

    parser = argparse.ArgumentParser(prog="validate.py store")
    parser.add_argument("--budget-kb", type=int, default=96)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args(argv)
    budget = args.budget_kb * 1024

    with tempfile.TemporaryDirectory(prefix="validate_store_") as root:
        _check_quarantine(root)
        store_dir = os.path.join(root, "dataset_store")
        cfg = dataset_config("tiny").with_sizes(28, 2, 0)
        report = ingest_simulated(cfg, store_dir, max_shard_bytes=48 * 1024)
        ok(
            f"ingested {report.ingested} simulated event(s) into "
            f"{report.shards} shard(s) ({report.bytes_written} bytes)"
        )
        _check_bounded_residency(store_dir, budget, args.epochs)
        _check_step_bit_parity(store_dir, budget)
        _check_training_parity(store_dir, budget)
        cli_store = os.path.join(root, "cli_store")
        repro(
            "store", "ingest", "--dataset", "tiny", "--out", cli_store,
            "--shard-mb", "0.125", "--overwrite",
        )
        repro("store", "verify", cli_store)


def _rss_bytes() -> int:
    """Resident set size from /proc/self/statm (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _check_quarantine(root: str) -> None:
    from repro.graph import random_graph
    from repro.store import EventStore, ingest_graphs

    rng = np.random.default_rng(3)
    graphs = []
    for i in range(3):
        g = random_graph(50, 200, rng=rng, true_fraction=0.3)
        g.event_id = i
        graphs.append(g)
    bad = random_graph(50, 200, rng=rng, true_fraction=0.3)
    bad.event_id = 666
    bad.x[0, 0] = np.nan
    store_dir = os.path.join(root, "quarantine_store")
    log_path = os.path.join(root, "quarantine.jsonl")
    report = ingest_graphs(graphs + [bad], store_dir, quarantine_log=log_path)
    if report.quarantined != 1 or report.ingested != 3:
        fail(f"expected 1 quarantined / 3 ingested, got {report}")
    with open(log_path) as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != 1 or records[0]["id"] != 666:
        fail(f"quarantine log did not record event 666: {records}")
    with EventStore(store_dir) as store:
        if any(h.event_id == 666 for h in store.handles()):
            fail("invalid event reached a shard")
    ok("invalid event quarantined to JSONL, absent from every shard")


def _check_bounded_residency(store_dir: str, budget: int, epochs: int) -> None:
    from repro.store import EventStore

    with EventStore(store_dir, budget_bytes=budget) as store:
        total = store.describe()["bytes"]
        if total < 4 * budget:
            fail(
                f"dataset too small for the bar: {total} bytes vs "
                f"4x budget {4 * budget}"
            )
        ok(f"dataset {total} bytes >= 4x the {budget}-byte budget")
        for handle in store.handles():  # warmup epoch: allocator settles
            handle.materialize()
        rss0 = _rss_bytes()
        for _ in range(epochs):
            for handle in store.handles():
                g = handle.materialize()
                if store.resident_bytes > budget:
                    fail(
                        f"resident bytes {store.resident_bytes} exceeded "
                        f"budget {budget}"
                    )
                del g
        growth = _rss_bytes() - rss0
        if store.stats.peak_resident_bytes > budget:
            fail(
                f"peak mapped bytes {store.stats.peak_resident_bytes} "
                f"exceeded budget {budget}"
            )
        if growth > budget:
            fail(
                f"RSS grew {growth} bytes over {epochs} streamed epochs — "
                f"more than the {budget}-byte budget"
            )
        if store.stats.unmaps == 0:
            fail("LRU never evicted: the budget was not exercised")
        ok(
            f"{epochs} streamed epochs: RSS growth {growth} bytes, peak "
            f"mapped {store.stats.peak_resident_bytes} <= budget {budget}, "
            f"{store.stats.unmaps} eviction(s)"
        )


def _check_step_bit_parity(store_dir: str, budget: int) -> None:
    from repro.data import EpochPlan, sample_step
    from repro.sampling import BulkShadowSampler
    from repro.store import EventStore

    with EventStore(store_dir, budget_bytes=budget) as store:
        handles = store.handles("train")
        in_ram = store.load_split("train")
        sampler = BulkShadowSampler(depth=2, fanout=4)
        plans = [
            EpochPlan.build(gs, batch_size=64, k=2, rng=np.random.default_rng(0))
            for gs in (handles, in_ram)
        ]
        if len(plans[0]) != len(plans[1]) or len(plans[0]) == 0:
            fail(f"plan lengths differ: {len(plans[0])} vs {len(plans[1])}")
        for s_step, r_step in zip(plans[0].steps, plans[1].steps):
            streamed = sample_step(sampler, s_step, ranks=(0,))
            resident = sample_step(sampler, r_step, ranks=(0,))
            for sb, rb in zip(streamed[0], resident[0]):
                pairs = [
                    (sb.graph.edge_index, rb.graph.edge_index),
                    (sb.graph.x, rb.graph.x),
                    (sb.graph.y, rb.graph.y),
                    (sb.node_parent, rb.node_parent),
                    (sb.edge_parent, rb.edge_parent),
                    (sb.component_ids, rb.component_ids),
                    (sb.roots, rb.roots),
                ]
                for a, b in pairs:
                    same = (
                        (a is None and b is None)
                        or (a is not None and b is not None and np.array_equal(a, b))
                    )
                    if not same:
                        fail(
                            f"step {s_step.index}: streamed and in-RAM "
                            "sampled batches diverge"
                        )
        ok(
            f"{len(plans[0])} steps sampled bit-identically from mmap "
            "shards and from RAM"
        )


def _check_training_parity(store_dir: str, budget: int) -> None:
    from repro.pipeline import train_gnn
    from repro.store import EventStore

    cfg = TINY_GNN.replace(batch_size=64, depth=3, fanout=6, bulk_k=2, eval_every=2)
    with EventStore(store_dir, budget_bytes=budget) as store:
        streamed = train_gnn(store.handles("train"), store.handles("val"), cfg)
        hit_rate = store.stats.hit_rate()
        if store.stats.hits == 0:
            fail("shard cache recorded no hits during streamed training")
        in_ram = train_gnn(store.load_split("train"), store.load_split("val"), cfg)
    s_loss = [r.train_loss for r in streamed.history.records]
    r_loss = [r.train_loss for r in in_ram.history.records]
    if s_loss != r_loss:
        fail(f"loss histories diverge: {s_loss} vs {r_loss}")
    same_weights(
        streamed.model.state_dict(), in_ram.model.state_dict(), "streamed vs in-RAM"
    )
    ok(
        f"streamed training matches in-RAM bit for bit "
        f"(losses {s_loss}, shard-cache hit rate {hit_rate:.2f})"
    )


# -- scenarios -----------------------------------------------------------
#: The four resilience proofs every chaos matrix must carry.
REQUIRED_SCENARIOS = {
    "quarantine isolation": lambda s: s.floors.min_quarantined >= 1,
    "breaker recovery": lambda s: s.floors.require_breaker_recovery,
    "SIGKILL chaos": lambda s: (s.train_chaos or {}).get("kind") == "sigkill",
    "store corruption": lambda s: s.floors.require_store_corrupt_detected,
}


@suite("scenarios")
def scenarios_suite(argv) -> None:
    """The chaos matrix carries the four mandatory resilience proofs,
    every scenario clears its physics-metric and behavioural floors, two
    runs produce byte-identical reports (modulo the timestamp), and
    ``repro scenarios list|report`` work against the written report."""
    from repro.scenarios import (
        build_report,
        get_matrix,
        render_report,
        run_matrix,
        strip_volatile,
        write_report,
    )

    parser = argparse.ArgumentParser(prog="validate.py scenarios")
    parser.add_argument("--matrix", default="smoke")
    matrix = get_matrix(parser.parse_args(argv).matrix)

    if len(matrix.scenarios) < 6:
        fail(f"matrix {matrix.name!r} has only {len(matrix.scenarios)} scenarios")
    for label, predicate in REQUIRED_SCENARIOS.items():
        if not any(predicate(s) for s in matrix.scenarios):
            fail(f"matrix {matrix.name!r} has no {label} scenario")
    ok(
        f"matrix {matrix.name!r}: {len(matrix.scenarios)} scenarios, all "
        "four mandatory resilience proofs present"
    )
    with tempfile.TemporaryDirectory(prefix="validate_scenarios_") as root:
        docs = []
        for tag in ("run_a", "run_b"):
            results = run_matrix(matrix, os.path.join(root, tag))
            doc = build_report(matrix.name, results)
            if doc["summary"]["failed"]:
                print(render_report(doc), file=sys.stderr)
                fail(f"{doc['summary']['failed']} scenario(s) violated their floors")
            ok(
                f"{tag}: {doc['summary']['passed']}/{doc['summary']['total']} "
                "scenarios passed their floors"
            )
            docs.append(doc)
        blobs = [json.dumps(strip_volatile(d), sort_keys=True) for d in docs]
        if blobs[0] != blobs[1]:
            fail("two matrix runs produced different reports (nondeterminism)")
        ok(f"two runs byte-identical modulo timestamp ({len(blobs[0])} bytes)")

        if "mutator catalog" not in repro("scenarios", "list", "--matrix", matrix.name):
            fail("`repro scenarios list` printed no mutator catalog")
        report_path = os.path.join(root, "report.json")
        write_report(docs[0], report_path)
        if "passed" not in repro("scenarios", "report", report_path):
            fail("`repro scenarios report` printed no summary")
        ok("CLI list/report round-trip works")


# ------------------------------------------------------------------------
def main(argv) -> int:
    if argv == ["--list"]:
        print("\n".join(SUITES))
        return 0
    if not argv or argv[0] not in SUITES:
        print(__doc__)
        print("suites: " + ", ".join(SUITES))
        return 2
    SUITES[argv[0]](argv[1:])
    print(f"validate {argv[0]}: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
