"""``repro store ingest|info|verify`` and the ``--store`` flags of
``train`` / ``serve`` / ``loadgen`` (``docs/event_store.md``)."""

from __future__ import annotations

import os
import sys

from .common import add_telemetry_flags, flush_telemetry, make_telemetry
from .data import add_dataset_flags


def add_parsers(sub) -> None:
    p_store = sub.add_parser("store", help="out-of-core event store (mmap CSR shards)")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_ingest = store_sub.add_parser(
        "ingest",
        help="simulate a dataset straight into checksummed shards "
        "(raw events validated; invalid ones quarantined, never stored)",
    )
    add_dataset_flags(p_ingest)
    p_ingest.add_argument("--out", required=True, metavar="DIR", help="store root")
    p_ingest.add_argument(
        "--shard-mb",
        type=float,
        default=16.0,
        metavar="MB",
        help="flush a shard once its payload reaches MB",
    )
    p_ingest.add_argument(
        "--quarantine-log",
        default=None,
        metavar="PATH",
        help="append quarantined-event records to PATH as JSONL",
    )
    p_ingest.add_argument(
        "--no-validate",
        action="store_true",
        help="skip raw-event validation (trusted input only)",
    )
    p_ingest.add_argument(
        "--overwrite", action="store_true", help="replace an existing store at --out"
    )
    add_telemetry_flags(p_ingest)
    p_info = store_sub.add_parser("info", help="manifest summary (checksum-audited open)")
    p_info.add_argument("directory", help="store root")
    p_verify = store_sub.add_parser(
        "verify",
        help="full audit: every shard binary re-hashed against the "
        "manifest (exit 1 on corruption)",
    )
    p_verify.add_argument("directory", help="store root")


def add_store_flags(parser) -> None:
    """``--store`` / ``--store-budget-mb`` (train streams from it, serve hydrates)."""
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="use the event store at DIR (ingested on first use): train "
        "streams its graphs from it instead of holding the dataset in "
        "RAM, serve/loadgen hydrate replayed events from it — "
        "bit-identical results either way",
    )
    parser.add_argument(
        "--store-budget-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="resident-byte budget for mapped store shards (LRU window)",
    )


def open_store(args, ingest):
    """Open the store behind ``--store``; a fresh directory is first
    populated by ``ingest()`` (which reports what it wrote)."""
    from ..store import MANIFEST_NAME, EventStore, StoreError

    if not os.path.exists(os.path.join(args.store, MANIFEST_NAME)):
        ingest()
    try:
        return EventStore(
            args.store, budget_bytes=int(args.store_budget_mb * (1 << 20))
        )
    except (StoreError, ValueError) as exc:
        raise SystemExit(f"error: {exc}")


def cmd_store(args) -> int:
    return {"ingest": _ingest, "info": _info, "verify": _verify}[args.store_command](args)


def _ingest(args) -> int:
    from ..detector import dataset_config
    from ..obs import use_telemetry
    from ..store import StoreError, ingest_simulated

    cfg = dataset_config(args.dataset).with_sizes(args.train, args.val, args.test)
    telemetry = make_telemetry(args, seed=cfg.seed)
    try:
        with use_telemetry(telemetry):
            report = ingest_simulated(
                cfg,
                args.out,
                validate=not args.no_validate,
                quarantine_log=args.quarantine_log,
                max_shard_bytes=int(args.shard_mb * (1 << 20)),
                overwrite=args.overwrite,
            )
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"ingested {report.ingested}/{report.seen} event(s) into "
        f"{report.shards} shard(s) ({report.bytes_written / (1 << 20):.2f} MB) "
        f"at {args.out}"
    )
    print("splits: " + ", ".join(f"{k}={v}" for k, v in sorted(report.splits.items())))
    if report.quarantined:
        where = f" (see {args.quarantine_log})" if args.quarantine_log else ""
        print(f"quarantined {report.quarantined} invalid event(s){where}")
    if report.swept_tmp:
        print(f"swept {report.swept_tmp} stale tmp file(s)")
    flush_telemetry(telemetry, args)
    return 0


def _info(args) -> int:
    from ..store import EventStore, StoreError

    try:
        with EventStore(args.directory) as store:
            d = store.describe()
    except (StoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"format:  {d['format']}")
    print(f"events:  {d['events']}")
    print(f"shards:  {d['shards']}  ({d['bytes'] / (1 << 20):.2f} MB)")
    print("splits:  " + ", ".join(f"{k}={v}" for k, v in sorted(d["splits"].items())))
    for key, value in sorted(d["meta"].items()):
        print(f"meta.{key}: {value}")
    return 0


def _verify(args) -> int:
    """Exit 0 when every checksum holds, 1 on corruption, 2 on bad input."""
    from ..store import EventStore, StoreCorruptError, StoreError

    try:
        with EventStore(args.directory) as store:
            store.verify()
            d = store.describe()
    except StoreCorruptError as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1
    except (StoreError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"store OK: {d['events']} event(s) in {d['shards']} shard(s) verified "
        f"({d['bytes'] / (1 << 20):.2f} MB)"
    )
    return 0


COMMANDS = {"store": cmd_store}
