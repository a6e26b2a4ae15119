"""``repro reconstruct`` / ``serve`` / ``loadgen``: the five-stage pipeline
end to end, behind the micro-batching engine (``docs/serving.md``), and
under an open-loop arrival schedule."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np

from ..pipeline.config import TRACK_BUILDERS, GNNTrainConfig, PipelineConfig
from ..serve import LoadGenConfig, ServeConfig
from .common import (
    add_telemetry_flags,
    flush_telemetry,
    make_telemetry,
    start_exporter,
    stop_exporter,
)
from .flags import Recipe, add_config_flags, build_config
from .store import add_store_flags, open_store

#: Demo-scale pipeline fitted by reconstruct / serve / loadgen.
PIPELINE = Recipe(
    PipelineConfig(
        embedding_dim=6,
        embedding_epochs=20,
        filter_epochs=20,
        frnn_radius=0.3,
        gnn=GNNTrainConfig(
            mode="bulk", epochs=6, batch_size=64, hidden=16, num_layers=2,
            depth=2, fanout=4, bulk_k=4,
        ),
    ),
    flags=("embedding_epochs", "filter_epochs"),
)
PIPELINE_GNN = Recipe(PIPELINE.config.gnn, flags=("epochs",), prefix="gnn-")

_ENGINE_FLAGS = (
    "max_batch_events", "max_wait_ms", "max_queue_events", "latency_budget_ms",
    "cache_capacity", "validate_inputs", "quarantine_log", "request_timeout_ms",
    "breaker_threshold", "breaker_cooldown_ms", "breaker_probes", "precision",
)
SERVE = Recipe(ServeConfig(workers=1), _ENGINE_FLAGS + ("workers",))
#: The load generator drives a synchronous engine (``workers=0``).
LOADGEN_ENGINE = Recipe(ServeConfig(), _ENGINE_FLAGS + ("sim_service_time_s",))
LOADGEN = Recipe(
    LoadGenConfig(rate=100.0, arrival="poisson"),
    flags=("rate", "num_requests", "arrival"),
)


def _add_pipeline_flags(parser) -> None:
    """Flags shared by every subcommand that needs a fitted pipeline."""
    parser.add_argument("--events", type=int, default=8)
    parser.add_argument("--particles", type=int, default=25)
    add_config_flags(parser, PIPELINE_GNN)
    add_config_flags(parser, PIPELINE)
    parser.add_argument(
        "--track-builder",
        choices=TRACK_BUILDERS,
        default=None,
        help="track-building algorithm (default: cc when fitting; a loaded "
        "pipeline keeps its own unless overridden)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--pipeline",
        default=None,
        metavar="PATH",
        help="load a fitted pipeline from PATH instead of training",
    )


def add_parsers(sub) -> None:
    p_reco = sub.add_parser("reconstruct", help="full pipeline: hits → tracks")
    _add_pipeline_flags(p_reco)
    p_reco.add_argument(
        "--save-pipeline",
        default=None,
        metavar="PATH",
        help="after fitting, save the pipeline to PATH (atomic npz)",
    )
    add_telemetry_flags(p_reco)

    p_serve = sub.add_parser(
        "serve", help="serve reconstruction requests (micro-batching engine)"
    )
    _add_pipeline_flags(p_serve)
    add_config_flags(p_serve, SERVE)
    add_store_flags(p_serve)
    p_serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        metavar="N",
        help="serve the test events N times (replays exercise the stage cache)",
    )
    add_telemetry_flags(p_serve)

    p_load = sub.add_parser(
        "loadgen", help="open-loop load generator against the serving engine"
    )
    _add_pipeline_flags(p_load)
    add_config_flags(p_load, LOADGEN_ENGINE)
    add_config_flags(p_load, LOADGEN)
    add_store_flags(p_load)
    p_load.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="apply a hostile-workload scenario's event mutators to the "
        "load (see `repro scenarios list --matrix full`)",
    )
    add_telemetry_flags(p_load)


def _setup(args):
    """``(geometry, simulated events, n_train, pipeline config)``."""
    from ..detector import DetectorGeometry, EventSimulator, ParticleGun

    geometry = DetectorGeometry.barrel_only()
    sim = EventSimulator(
        geometry, gun=ParticleGun(), particles_per_event=args.particles
    )
    events = [
        sim.generate(np.random.default_rng(args.seed + i), event_id=i)
        for i in range(args.events)
    ]
    config = build_config(
        args,
        PIPELINE,
        track_builder=args.track_builder or PIPELINE.config.track_builder,
        gnn=build_config(args, PIPELINE_GNN),
    )
    return geometry, events, max(args.events - 3, 1), config


def _obtain_pipeline(args, config, geometry, events, n_train):
    """Load a fitted pipeline (``--pipeline``) or fit one on the events.

    Returns the pipeline, or ``None`` after printing an error (the
    caller exits 2).  ``--track-builder`` overrides a loaded pipeline's
    builder — everything up to the GNN is builder-independent, so one
    saved pipeline serves both modes.
    """
    from ..pipeline import CheckpointError, ExaTrkXPipeline, load_pipeline

    if args.pipeline is not None:
        try:
            pipe = load_pipeline(args.pipeline, geometry)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(
                "The pipeline file is corrupt or incomplete. Re-run "
                "'repro reconstruct --save-pipeline PATH' (or restore the "
                "file from a backup) and try again.",
                file=sys.stderr,
            )
            return None
        print(f"loaded fitted pipeline from {args.pipeline}")
        if (
            args.track_builder is not None
            and pipe.config.track_builder != args.track_builder
        ):
            pipe.config = dataclasses.replace(
                pipe.config, track_builder=args.track_builder
            )
            print(f"track builder overridden to {args.track_builder}")
        return pipe
    pipe = ExaTrkXPipeline(config, geometry)
    pipe.fit(events[:n_train], events[n_train : n_train + 1])
    return pipe


def _open_serve_store(args, pipe, events):
    """Open (ingesting on first use) the serve-side hydration store.

    A fresh directory is populated with the fitted pipeline's
    construction graphs for ``events``; an existing store is opened
    as-is (it must hold construction graphs — the engine refuses
    builder-graph stores).
    """
    if args.store is None:
        return None

    def ingest() -> None:
        from ..store import ingest_construction

        report = ingest_construction(pipe, events, args.store)
        print(
            f"ingested {report.ingested} construction graph(s) into "
            f"{report.shards} shard(s) at {args.store}"
        )

    return open_store(args, ingest)


def _engine_health(engine_ref) -> dict:
    """``/health`` document for serve/loadgen: not ready until the engine
    exists, then :meth:`InferenceEngine.health` verbatim — readiness
    drops the moment ``close()`` starts draining or the breaker opens."""
    engine = engine_ref.get("engine")
    if engine is None:
        return {"live": True, "ready": False, "phase": "startup"}
    return engine.health()


def cmd_reconstruct(args) -> int:
    from ..obs import use_telemetry
    from ..pipeline import diagnose_event, save_pipeline

    geometry, events, n_train, config = _setup(args)
    telemetry = make_telemetry(args, config=config, seed=args.seed)
    with use_telemetry(telemetry):
        pipe = _obtain_pipeline(args, config, geometry, events, n_train)
        if pipe is None:
            return 2
        if args.pipeline is None and args.save_pipeline is not None:
            save_pipeline(pipe, args.save_pipeline)
            print(f"saved fitted pipeline to {args.save_pipeline}")
        for event in events[n_train + 1 :]:
            print(f"\nevent {event.event_id}")
            for line in diagnose_event(pipe, event).render():
                print("  " + line)
    flush_telemetry(telemetry, args)
    return 0


def _serve_shell(args, setup, serve_cfg, body, clock=None) -> int:
    """The command shell ``serve`` and ``loadgen`` share: telemetry, the
    ``/health`` exporter, the fitted pipeline, the served-event slice and
    the hydration store around an engine that ``body(engine, events)``
    drives.  The engine's with-block drains in-flight requests on any exit
    path (ctrl-C included, → 130), and the store is closed on every one."""
    from ..obs import use_telemetry
    from ..serve import InferenceEngine

    geometry, events, n_train, config = setup
    telemetry = make_telemetry(args, config=config, seed=args.seed)
    engine_ref = {}
    exporter = start_exporter(
        telemetry, args, health_fn=lambda: _engine_health(engine_ref)
    )
    try:
        with use_telemetry(telemetry):
            pipe = _obtain_pipeline(args, config, geometry, events, n_train)
            if pipe is None:
                return 2
            test_events = events[n_train + 1 :] or events[-1:]
            store = _open_serve_store(args, pipe, test_events)
            try:
                with InferenceEngine(
                    pipe, serve_cfg, clock=clock, store=store
                ) as engine:
                    engine_ref["engine"] = engine
                    body(engine, test_events)
            finally:
                if store is not None:
                    store.close()
    except KeyboardInterrupt:
        print("\ninterrupted — engine drained, exiting", file=sys.stderr)
        flush_telemetry(telemetry, args)
        return 130
    finally:
        stop_exporter(exporter)
    flush_telemetry(telemetry, args)
    return 0


def cmd_serve(args) -> int:
    def body(engine, test_events) -> None:
        requests = engine.process(
            [e for _ in range(args.repeat) for e in test_events]
        )
        engine.close()  # drained: every batch is counted before the report
        done = [r for r in requests if r.status == "done"]
        for r in done:
            flags = "".join(
                [" cache-hit" if r.cache_hit else "", " DEGRADED" if r.degraded else ""]
            )
            print(
                f"event {r.event.event_id}: {len(r.tracks)} tracks  "
                f"({r.latency_ms:.2f} ms{flags})"
            )
        stats = engine.stats
        print(
            f"\nserved {stats.completed}/{stats.submitted} requests in "
            f"{stats.batches} batches  (shed {stats.shed}, degraded "
            f"{stats.degraded}, cache {stats.cache_hits} hit / "
            f"{stats.cache_misses} miss)"
        )
        if stats.store_hydrated:
            print(f"hydrated {stats.store_hydrated} event(s) from the store")
        if stats.quarantined or stats.timed_out or stats.failed:
            print(
                f"guardrails: quarantined {stats.quarantined}, "
                f"timed out {stats.timed_out}, failed {stats.failed}, "
                f"breaker-degraded {stats.breaker_degraded}"
            )
        if done:
            lat = np.array([r.latency_ms for r in done])
            print(
                f"latency ms: p50={np.percentile(lat, 50):.2f}  "
                f"p95={np.percentile(lat, 95):.2f}  "
                f"p99={np.percentile(lat, 99):.2f}"
            )

    return _serve_shell(args, _setup(args), build_config(args, SERVE), body)


def cmd_loadgen(args) -> int:
    from ..faults import SimClock
    from ..serve import run_loadgen

    geometry, events, n_train, config = _setup(args)
    if args.scenario:
        from ..scenarios import apply_mutators, get_matrix

        try:
            spec = get_matrix("full").get(args.scenario)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        hostile = apply_mutators(events, geometry, spec.mutators, args.seed)
        if spec.mutate_train:
            events = hostile
        else:
            # hostile events hit only the served slice; training stays clean
            events = events[: n_train + 1] + hostile[n_train + 1 :]
        print(
            f"scenario {spec.name!r}: applied "
            f"{', '.join(m.name for m in spec.mutators) or 'no'} mutator(s)"
        )
    serve_cfg = build_config(args, LOADGEN_ENGINE)
    load_cfg = build_config(args, LOADGEN, seed=args.seed)

    def body(engine, test_events) -> None:
        for line in run_loadgen(engine, test_events, load_cfg).lines():
            print(line)
        if engine.stats.store_hydrated:
            print(f"hydrated {engine.stats.store_hydrated} event(s) from the store")

    return _serve_shell(
        args, (geometry, events, n_train, config), serve_cfg, body, clock=SimClock()
    )


COMMANDS = {
    "reconstruct": cmd_reconstruct,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}
