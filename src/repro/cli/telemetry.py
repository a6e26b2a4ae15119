"""``repro telemetry summarize``: inspect an exported trace
(``docs/observability.md``)."""

from __future__ import annotations

import json
import sys


def add_parsers(sub) -> None:
    p_tel = sub.add_parser("telemetry", help="inspect exported telemetry files")
    tel_sub = p_tel.add_subparsers(dest="telemetry_command", required=True)
    p_sum = tel_sub.add_parser(
        "summarize",
        help="per-phase time table from a trace file (the Figure-3 view)",
    )
    p_sum.add_argument("file", help="trace file (Chrome-trace .json or .jsonl)")
    p_sum.add_argument(
        "--per-rank",
        action="store_true",
        help="group phases by (rank, phase) — merged multi-process traces "
        "show each rank's lane separately instead of pooling",
    )


def cmd_telemetry(args) -> int:
    from ..obs import summarize_trace

    try:
        lines = summarize_trace(args.file, per_rank=args.per_rank)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot summarize {args.file}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


COMMANDS = {"telemetry": cmd_telemetry}
