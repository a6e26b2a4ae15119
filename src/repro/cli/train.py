"""``repro train``: the GNN stage alone (Figures 3/4 regimes)."""

from __future__ import annotations

import json
import sys

from ..pipeline.config import GNNTrainConfig
from .common import (
    add_telemetry_flags,
    flush_telemetry,
    make_telemetry,
    start_exporter,
    stop_exporter,
)
from .flags import Recipe, add_config_flags, build_config
from .store import add_store_flags, open_store

#: Demo-scale training: the paper's Section IV-A recipe (the dataclass
#: defaults) shrunk to finish in seconds on a CPU.
TRAIN = Recipe(
    GNNTrainConfig(
        epochs=6, batch_size=128, hidden=16, num_layers=2, depth=2, fanout=4,
        checkpoint_path="gnn_checkpoint.npz",
    ),
    flags=(
        "mode", "epochs", "batch_size", "hidden", "num_layers", "depth",
        "fanout", "bulk_k", "world_size", "allreduce", "backend", "seed",
        "precision", "fused_kernels", "checkpoint_every", "checkpoint_path",
        "resume_from", "prefetch_workers", "prefetch_depth", "validate_inputs",
        "keep_last", "watchdog", "watchdog_window", "watchdog_spike_factor",
        "watchdog_max_rollbacks", "watchdog_lr_backoff",
    ),
)


def add_parsers(sub) -> None:
    p = sub.add_parser("train", help="train the GNN stage (Fig. 3/4 regimes)")
    p.add_argument(
        "--config",
        default=None,
        help="JSON file of GNNTrainConfig fields; flags typed on the "
        "command line override it",
    )
    p.add_argument("--dataset", default="ex3_like")
    p.add_argument("--train-graphs", type=int, default=4)
    p.add_argument("--val-graphs", type=int, default=2)
    add_config_flags(p, TRAIN)
    p.add_argument(
        "--comm-retries", type=int, default=3, metavar="N",
        help="retry budget for transient collective faults (default 3)",
    )
    p.add_argument(
        "--comm-retry-base-delay", type=float, default=0.05, metavar="S",
        help="first retry backoff delay in seconds (default 0.05)",
    )
    p.add_argument(
        "--comm-retry-max-delay", type=float, default=None, metavar="S",
        help="cap on the exponential retry backoff in seconds "
        "(default: uncapped)",
    )
    add_store_flags(p)
    add_telemetry_flags(p)


def _config_file(path):
    """``--config`` contents; unknown keys exit with the sorted-key message."""
    if path is None:
        return None
    with open(path) as fh:
        from_file = json.load(fh)
    unknown = set(from_file) - set(GNNTrainConfig.__dataclass_fields__)
    if unknown:
        raise SystemExit(f"unknown config keys in {path}: {sorted(unknown)}")
    return from_file


def _ingest_train_store(args, cfg) -> None:
    from ..store import ingest_simulated

    report = ingest_simulated(cfg, args.store)
    line = (
        f"ingested {report.ingested}/{report.seen} event(s) into "
        f"{report.shards} shard(s) at {args.store}"
    )
    if report.quarantined:
        line += f" ({report.quarantined} quarantined)"
    print(line)


def cmd_train(args) -> int:
    from ..detector import dataset_config, make_dataset
    from ..faults import RetryPolicy
    from ..guard import TrainingUnstableError
    from ..obs import use_telemetry
    from ..pipeline import CheckpointError, train_gnn

    train_cfg = build_config(args, TRAIN, _config_file(args.config))
    cfg = dataset_config(args.dataset).with_sizes(
        args.train_graphs, args.val_graphs, 0
    )
    store = None
    if args.store is not None:
        # lazy handles: training maps shards on demand under the LRU
        # budget instead of materialising the dataset up front
        store = open_store(args, lambda: _ingest_train_store(args, cfg))
        d = store.describe()
        print(
            f"streaming from store {args.store}: {d['events']} event(s) / "
            f"{d['shards']} shard(s) / {d['bytes'] / (1 << 20):.2f} MB "
            f"(budget {args.store_budget_mb:g} MB)"
        )
        train_graphs, val_graphs = store.handles("train"), store.handles("val")
    else:
        dataset = make_dataset(cfg)
        train_graphs, val_graphs = dataset.train, dataset.val
    retry_policy = RetryPolicy(
        max_retries=args.comm_retries,
        base_delay=args.comm_retry_base_delay,
        max_delay=args.comm_retry_max_delay,
    )
    telemetry = make_telemetry(
        args, config=train_cfg, seed=train_cfg.seed, world_size=train_cfg.world_size
    )
    train_state = {"phase": "training", "ready": True}

    def _train_health():
        """Watchdog/checkpoint-centred health doc for ``repro train``."""
        gauges = telemetry.metrics.to_dict()["gauges"] if telemetry else {}
        return {
            "live": True,
            "ready": train_state["ready"],
            "phase": train_state["phase"],
            "checkpoints_written": gauges.get("train.checkpoints_written", 0.0),
            "watchdog_rollbacks": gauges.get("train.watchdog_rollbacks", 0.0),
        }

    exporter = start_exporter(telemetry, args, health_fn=_train_health)
    try:
        try:
            with use_telemetry(telemetry):
                result = train_gnn(
                    train_graphs, val_graphs, train_cfg,
                    retry_policy=retry_policy,
                )
        except CheckpointError as exc:
            train_state["phase"] = "failed"
            print(f"error: {exc}", file=sys.stderr)
            print(
                "The checkpoint cannot be used. Delete it (or fix --resume) and "
                "restart training from scratch.",
                file=sys.stderr,
            )
            return 2
        except TrainingUnstableError as exc:
            train_state["phase"] = "failed"
            print(f"error: {exc}", file=sys.stderr)
            print(
                "Training diverged beyond the watchdog's rollback budget. "
                "Lower the learning rate or raise --watchdog-max-rollbacks.",
                file=sys.stderr,
            )
            return 3
        except KeyboardInterrupt:
            # SIGTERM lands here too (main installs the handler): readiness
            # drops via the finally below, then the exporter drains.
            train_state["phase"] = "interrupted"
            print("\ninterrupted — stopping training", file=sys.stderr)
            if train_cfg.checkpoint_every is not None:
                print(
                    f"resume with: repro train --resume {train_cfg.checkpoint_path}",
                    file=sys.stderr,
                )
            flush_telemetry(telemetry, args)
            return 130
        train_state["phase"] = "finished"
        _print_result(result, train_cfg, store)
        flush_telemetry(telemetry, args)
        return 0
    finally:
        train_state["ready"] = False
        stop_exporter(exporter)
        if store is not None:
            store.close()


def _print_result(result, train_cfg, store) -> None:
    if result.resumed_epoch is not None:
        print(f"resumed from {train_cfg.resume_from} at epoch {result.resumed_epoch}")
    if result.resume_fallback_path is not None:
        print(
            "warning: requested checkpoint was corrupt; resumed from "
            f"verified fallback {result.resume_fallback_path}"
        )
    print(f"{'epoch':>5} | {'loss':>8} | {'precision':>9} | {'recall':>7} | {'time':>6}")
    for r in result.history.records:
        print(
            f"{r.epoch:>5} | {r.train_loss:8.4f} | {r.val_precision:9.3f} | "
            f"{r.val_recall:7.3f} | {r.epoch_seconds:5.1f}s"
        )
    if result.comm_stats is not None:
        line = (
            f"all-reduce: {result.comm_stats.num_allreduce_calls} calls, "
            f"modeled {1e3 * result.comm_stats.modeled_seconds:.2f} ms"
        )
        if result.comm_stats.measured_seconds:
            line += f", measured {1e3 * result.comm_stats.measured_seconds:.2f} ms"
        if result.comm_stats.rank_failures:
            line += f", evicted ranks {result.comm_stats.rank_failures}"
        print(line)
    if result.skipped_graphs:
        print(f"skipped {result.skipped_graphs} graph-epochs (memory)")
    if result.quarantined_graphs:
        print(f"quarantined {result.quarantined_graphs} malformed graph(s)")
    if result.watchdog_rollbacks:
        print(
            f"watchdog: {result.watchdog_rollbacks} rollback(s) with LR "
            "backoff (see docs/resilience.md)"
        )
    if result.checkpoints_written:
        print(
            f"wrote {result.checkpoints_written} checkpoint(s) to "
            f"{train_cfg.checkpoint_path}"
        )
    if store is not None:
        s = store.stats
        print(
            f"store: {s.hits} shard-cache hit(s) / {s.misses} miss(es) "
            f"(hit rate {s.hit_rate():.2f}, peak resident "
            f"{s.peak_resident_bytes / (1 << 20):.1f} MB)"
        )


COMMANDS = {"train": cmd_train}
