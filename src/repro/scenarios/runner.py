"""The scenario runner: train → chaos → serve → score, per scenario.

One :func:`run_scenario` call executes a complete hostile-workload
cycle against a *fixed small pipeline recipe* (so floors mean the same
thing run to run):

1. **simulate** — seeded base events, one RNG stream per event (the CLI
   convention), so the clean feed is bit-reproducible;
2. **mutate** — the spec's :class:`~repro.scenarios.MutatorSpec` list,
   each with a derived RNG stream;
3. **fit** — the five-stage pipeline with ``validate_inputs=True``:
   malformed training events are quarantined, never crash the fit.
   Scenarios whose training feed is identical share one fitted pipeline
   through the matrix-level cache;
4. **chaos legs** — optional training chaos (proc-backend SIGKILL via
   :class:`~repro.faults.ProcessFault`, watchdog-triggering
   :class:`~repro.faults.NumericFault`) and store chaos (shard
   corruption via :class:`~repro.faults.DiskFault`, detected as a typed
   :class:`~repro.store.StoreCorruptError`);
5. **serve** — every hostile event through an
   :class:`~repro.serve.InferenceEngine` on a :class:`~repro.faults.
   SimClock` with a fixed simulated service time (fully deterministic),
   co-injecting the spec's serving-stage faults;
6. **score** — pooled double-majority efficiency/purity over the
   completed requests, then the spec's :class:`~repro.scenarios.
   ScenarioFloors` are evaluated into pass/fail checks.

Everything lands in a :class:`ScenarioResult` whose ``to_doc()`` is
deterministic (no wall-clock times, no filesystem paths), which is what
makes two runs of the same matrix byte-identical modulo the report's
``generated_at`` stamp.

Telemetry: ``scenario.run`` / ``scenario.phase.*`` spans and
``scenario.{runs,passed,failed,floor_violations}`` counters via
:mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..detector import (
    DetectorGeometry,
    EventSimulator,
    ParticleGun,
    dataset_config,
    make_dataset,
)
from ..faults import (
    DiskFault,
    FaultPlan,
    NumericFault,
    ProcessFault,
    SimClock,
    StageFault,
)
from ..graph import random_graph
from ..metrics import match_tracks
from ..obs import get_metrics, get_tracer
from ..pipeline import ExaTrkXPipeline, GNNTrainConfig, PipelineConfig, train_gnn
from ..serve import InferenceEngine, ServeConfig
from ..store import EventStore, StoreCorruptError, ingest_construction
from .mutators import apply_mutators
from .spec import ScenarioFloors, ScenarioMatrix, ScenarioSpec

__all__ = ["ScenarioResult", "run_scenario", "run_matrix"]

#: Truth matching threshold, matching the pipeline default.
_MIN_TRACK_HITS = 3


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, floors already evaluated."""

    spec: ScenarioSpec
    metrics: Dict
    serve: Dict
    quarantine: Dict
    chaos: Dict
    checks: List[Dict]

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_doc(self) -> Dict:
        """Deterministic JSON payload (no timestamps, no paths)."""
        return {
            "name": self.spec.name,
            "status": self.status,
            "spec": self.spec.to_doc(),
            "metrics": self.metrics,
            "serve": self.serve,
            "quarantine": self.quarantine,
            "chaos": self.chaos,
            "checks": self.checks,
        }


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _simulate(spec: ScenarioSpec, geometry) -> List:
    sim = EventSimulator(
        geometry, gun=ParticleGun(), particles_per_event=spec.particles
    )
    return [
        sim.generate(np.random.default_rng(spec.seed + i), event_id=i)
        for i in range(spec.events)
    ]


def _pipeline_config(spec: ScenarioSpec, quarantine_log: str) -> PipelineConfig:
    """The fixed small recipe every scenario trains with.

    Scaled to the CI budget (the floors in :mod:`.spec` are calibrated
    against exactly this recipe — change it and recalibrate them).
    """
    return PipelineConfig(
        embedding_dim=6,
        embedding_hidden=32,
        embedding_epochs=15,
        frnn_radius=0.3,
        filter_hidden=32,
        filter_epochs=15,
        mlp_layers=2,
        gnn=GNNTrainConfig(
            mode="bulk",
            epochs=4,
            batch_size=64,
            hidden=16,
            num_layers=2,
            mlp_layers=2,
            depth=2,
            fanout=4,
            bulk_k=4,
            seed=spec.seed,
        ),
        min_track_hits=_MIN_TRACK_HITS,
        seed=spec.seed,
        validate_inputs=True,
        quarantine_log=quarantine_log,
    )


def _pipeline_key(spec: ScenarioSpec) -> str:
    """Cache key: scenarios with identical training feeds share a fit."""
    doc = {
        "events": spec.events,
        "particles": spec.particles,
        "seed": spec.seed,
        "mutators": [m.to_doc() for m in spec.mutators] if spec.mutate_train else [],
    }
    return json.dumps(doc, sort_keys=True)


def _fit_pipeline(
    spec: ScenarioSpec,
    geometry,
    train_events: List,
    val_events: List,
    workdir: str,
    cache: Optional[Dict],
):
    key = _pipeline_key(spec)
    if cache is not None and key in cache:
        return cache[key]
    qlog = os.path.join(workdir, f"fit_quarantine_{spec.name}.jsonl")
    pipe = ExaTrkXPipeline(_pipeline_config(spec, qlog), geometry)
    pipe.fit(train_events, val_events, rng=np.random.default_rng(spec.seed))
    entry = (pipe, pipe.report.quarantined_events)
    if cache is not None:
        cache[key] = entry
    return entry


def _run_train_chaos(chaos: Dict, workdir: str, seed: int) -> Dict:
    """The training-chaos leg: SIGKILL a proc-backend rank, or NaN a
    step against the watchdog.  Runs on a small synthetic dataset — the
    point is the recovery machinery, not this pipeline's weights."""
    kind = chaos.get("kind")
    if kind == "sigkill":
        world = int(chaos.get("world_size", 2))
        plan = FaultPlan(
            process_faults=[
                ProcessFault(
                    at_call=int(chaos.get("at_call", 1)),
                    rank=int(chaos.get("rank", 1)),
                    kind="sigkill",
                )
            ]
        )
        dataset = make_dataset(dataset_config("ex3_like").with_sizes(2, 1, 0))
        result = train_gnn(
            dataset.train,
            dataset.val,
            GNNTrainConfig(
                mode="bulk", epochs=2, batch_size=32, hidden=8, num_layers=2,
                mlp_layers=2, depth=2, fanout=3, seed=seed, world_size=world,
                allreduce="coalesced", backend="proc",
            ),
            fault_plan=plan,
        )
        evicted = (
            list(result.comm_stats.rank_failures) if result.comm_stats else []
        )
        return {
            "kind": "sigkill",
            "evicted_ranks": evicted,
            "trained_steps": result.trained_steps,
        }
    if kind == "numeric":
        plan = FaultPlan(
            numeric_faults=[
                NumericFault(
                    at_step=int(chaos.get("at_step", 20)),
                    target=str(chaos.get("target", "loss")),
                )
            ]
        )
        rng = np.random.default_rng(7)
        graphs = [random_graph(60, 240, rng=rng, true_fraction=0.3) for _ in range(2)]
        result = train_gnn(
            graphs,
            graphs[:1],
            GNNTrainConfig(
                mode="bulk", epochs=4, batch_size=16, hidden=8, num_layers=2,
                bulk_k=2, seed=3,
                checkpoint_every=1,
                checkpoint_path=os.path.join(workdir, "watchdog.npz"),
                watchdog=True, watchdog_max_rollbacks=2, watchdog_lr_backoff=0.5,
            ),
            fault_plan=plan,
        )
        return {
            "kind": "numeric",
            "watchdog_rollbacks": result.watchdog_rollbacks,
            "trained_steps": result.trained_steps,
        }
    raise ValueError(f"unknown train_chaos kind {kind!r}")


def _run_store_chaos(pipe, events: List, workdir: str, chaos: Dict) -> Dict:
    """The store-chaos leg: ingest this scenario's construction graphs,
    schedule a :class:`DiskFault`, and stream through the store — the
    damage must surface as a typed :class:`StoreCorruptError` (recorded
    by ``store.shard.corrupt`` telemetry), never as a garbage batch."""
    directory = os.path.join(workdir, "store")
    ingest_construction(pipe, events, directory, overwrite=True)
    plan = FaultPlan(disk_faults=[DiskFault(**dict(chaos))])
    detected = False
    error_type = None
    store = EventStore(
        directory, fault_plan=plan, verify_on_map=True, audit=False
    )
    try:
        for handle in store.handles():
            try:
                handle.materialize()
            except StoreCorruptError as exc:
                detected = True
                error_type = type(exc).__name__
                break
    finally:
        store.close()
    return {"kind": "disk", "detected": detected, "error_type": error_type}


def _run_serve(pipe, spec: ScenarioSpec, serve_events: List, workdir: str):
    """Drive every hostile event through the engine on a SimClock."""
    plan = None
    if spec.stage_faults:
        plan = FaultPlan(
            stage_faults=[StageFault(**dict(d)) for d in spec.stage_faults]
        )
    fields = dict(
        workers=0,
        max_batch_events=1,
        max_queue_events=max(64, len(serve_events)),
        cache_capacity=0,
        sim_service_time_s=1e-3,
        quarantine_log=os.path.join(workdir, f"serve_quarantine_{spec.name}.jsonl"),
    )
    fields.update(dict(spec.serve))
    clock = SimClock()
    engine = InferenceEngine(
        pipe, ServeConfig(**fields), clock=clock, fault_plan=plan
    )
    requests = []
    try:
        for event in serve_events:
            requests.append(engine.submit(event))
            engine.flush()
            clock.sleep(spec.serve_gap_s)
    finally:
        engine.close()
    stats = engine.stats
    breaker_doc = None
    if engine.breaker is not None:
        breaker_doc = {
            "state": engine.breaker.state,
            "transitions": dict(engine.breaker.transitions),
        }
    serve_doc = {
        "submitted": stats.submitted,
        "completed": stats.completed,
        "quarantined": stats.quarantined,
        "shed": stats.shed,
        "timed_out": stats.timed_out,
        "failed": stats.failed,
        "degraded": stats.degraded,
        "breaker_degraded": stats.breaker_degraded,
        "breaker": breaker_doc,
    }
    return requests, serve_doc


def _score(requests: List, serve_events: List) -> Dict:
    """Pooled double-majority score over the completed requests.

    Degraded (GNN-skip) results are scored too — bounded physics loss
    under degradation is exactly what the relaxed floors assert.
    """
    totals = {
        "num_reconstructable": 0,
        "num_candidates": 0,
        "num_matched": 0,
        "num_fakes": 0,
        "num_duplicates": 0,
    }
    scored = 0
    for event, request in zip(serve_events, requests):
        if request.status != "done":
            continue
        score = match_tracks(
            request.result(), event.particle_ids, min_hits=_MIN_TRACK_HITS
        )
        for key in totals:
            totals[key] += int(getattr(score, key))
        scored += 1
    efficiency = (
        totals["num_matched"] / totals["num_reconstructable"]
        if totals["num_reconstructable"]
        else 1.0
    )
    purity = (
        1.0 - totals["num_fakes"] / totals["num_candidates"]
        if totals["num_candidates"]
        else 1.0
    )
    return {
        "scored_events": scored,
        "efficiency": round(efficiency, 6),
        "purity": round(purity, 6),
        **totals,
    }


def _evaluate_floors(
    floors: ScenarioFloors, metrics: Dict, serve: Dict, chaos: Dict
) -> List[Dict]:
    checks: List[Dict] = []

    def add(name: str, floor, actual, ok) -> None:
        checks.append({"check": name, "floor": floor, "actual": actual, "ok": bool(ok)})

    eps = 1e-9
    add(
        "efficiency", floors.min_efficiency, metrics["efficiency"],
        metrics["efficiency"] + eps >= floors.min_efficiency,
    )
    add(
        "purity", floors.min_purity, metrics["purity"],
        metrics["purity"] + eps >= floors.min_purity,
    )
    add(
        "completed", floors.min_completed, serve["completed"],
        serve["completed"] >= floors.min_completed,
    )
    if floors.min_quarantined:
        add(
            "quarantined", floors.min_quarantined, serve["quarantined"],
            serve["quarantined"] >= floors.min_quarantined,
        )
    if floors.min_degraded:
        degraded = serve["degraded"] + serve["breaker_degraded"]
        add("degraded", floors.min_degraded, degraded, degraded >= floors.min_degraded)
    if floors.require_breaker_recovery:
        breaker = serve.get("breaker")
        opened = bool(breaker) and breaker["transitions"].get("open", 0) >= 1
        closed = bool(breaker) and breaker["state"] == "closed"
        add(
            "breaker_recovery",
            "open>=1,state=closed",
            breaker if breaker else "no breaker",
            opened and closed,
        )
    if floors.require_store_corrupt_detected:
        store = chaos.get("store") or {}
        add(
            "store_corrupt_detected", True, store.get("detected", False),
            store.get("detected", False),
        )
    if floors.min_watchdog_rollbacks:
        train = chaos.get("train") or {}
        rollbacks = train.get("watchdog_rollbacks", 0)
        add(
            "watchdog_rollbacks", floors.min_watchdog_rollbacks, rollbacks,
            rollbacks >= floors.min_watchdog_rollbacks,
        )
    if floors.min_evicted_ranks:
        train = chaos.get("train") or {}
        evicted = len(train.get("evicted_ranks", []))
        add(
            "evicted_ranks", floors.min_evicted_ranks, evicted,
            evicted >= floors.min_evicted_ranks,
        )
    return checks


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_scenario(
    spec: ScenarioSpec,
    workdir: str,
    pipeline_cache: Optional[Dict] = None,
) -> ScenarioResult:
    """Execute one scenario end to end; never raises on a floor miss
    (the result's checks carry the verdict — chaos that *escapes* its
    guardrail, e.g. an unexpected crash, does propagate)."""
    os.makedirs(workdir, exist_ok=True)
    tracer = get_tracer()
    get_metrics().counter("scenario.runs").add(1)
    with tracer.span("scenario.run", category="scenario", scenario=spec.name):
        geometry = DetectorGeometry.barrel_only()
        with tracer.span("scenario.phase.simulate", category="scenario"):
            base = _simulate(spec, geometry)
        with tracer.span("scenario.phase.mutate", category="scenario"):
            hostile = apply_mutators(base, geometry, spec.mutators, spec.seed)

        n_train = max(spec.events - 3, 1)
        train_feed = hostile if spec.mutate_train else base
        train_events = train_feed[:n_train]
        val_events = train_feed[n_train : n_train + 1] or train_events[:1]
        serve_events = hostile[n_train:] or list(hostile)

        with tracer.span("scenario.phase.fit", category="scenario"):
            pipe, fit_quarantined = _fit_pipeline(
                spec, geometry, train_events, val_events, workdir, pipeline_cache
            )

        chaos: Dict = {}
        if spec.train_chaos is not None:
            with tracer.span("scenario.phase.train_chaos", category="scenario"):
                chaos["train"] = _run_train_chaos(
                    dict(spec.train_chaos), workdir, spec.seed
                )
        if spec.store_chaos is not None:
            with tracer.span("scenario.phase.store_chaos", category="scenario"):
                chaos["store"] = _run_store_chaos(
                    pipe, serve_events, workdir, dict(spec.store_chaos)
                )

        serve_feed = list(serve_events) * max(1, spec.serve_repeats)
        with tracer.span("scenario.phase.serve", category="scenario"):
            requests, serve_doc = _run_serve(pipe, spec, serve_feed, workdir)

        with tracer.span("scenario.phase.score", category="scenario"):
            metrics = _score(requests, serve_feed)

        checks = _evaluate_floors(spec.floors, metrics, serve_doc, chaos)
        result = ScenarioResult(
            spec=spec,
            metrics=metrics,
            serve=serve_doc,
            quarantine={
                "fit_quarantined": fit_quarantined,
                "serve_quarantined": serve_doc["quarantined"],
            },
            chaos=chaos,
            checks=checks,
        )
    get_metrics().counter("scenario.passed" if result.passed else "scenario.failed").add(1)
    violations = sum(1 for c in checks if not c["ok"])
    if violations:
        get_metrics().counter("scenario.floor_violations").add(violations)
    tracer.event(
        "scenario.result",
        category="scenario",
        scenario=spec.name,
        status=result.status,
        efficiency=metrics["efficiency"],
        purity=metrics["purity"],
    )
    return result


def run_matrix(
    matrix: ScenarioMatrix,
    workdir: str,
    names: Optional[List[str]] = None,
    progress: Optional[Callable[[ScenarioResult], None]] = None,
) -> List[ScenarioResult]:
    """Run a matrix (or the named subset), sharing fitted pipelines
    between scenarios whose training feeds are identical."""
    specs = list(matrix.scenarios)
    if names:
        specs = [matrix.get(name) for name in names]
    cache: Dict = {}
    results = []
    with get_tracer().span(
        "scenario.matrix", category="scenario", matrix=matrix.name,
        scenarios=len(specs),
    ):
        for spec in specs:
            result = run_scenario(spec, workdir, pipeline_cache=cache)
            results.append(result)
            if progress is not None:
                progress(result)
    return results
