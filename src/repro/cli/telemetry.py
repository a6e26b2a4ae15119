"""``repro telemetry summarize|baseline|diff``: inspect exported traces and
gate a fresh profile against a baseline (``docs/observability.md``)."""

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
    p_base = tel_sub.add_parser(
        "baseline",
        help="record a perf-regression baseline from a trace file",
    )
    p_base.add_argument("trace", help="trace file (Chrome-trace .json or .jsonl)")
    p_base.add_argument("-o", "--out", required=True, metavar="PATH",
                        help="where to write the baseline JSON")
    p_base.add_argument(
        "--tolerance", type=float, default=None, metavar="RATIO",
        help="default per-phase tolerance ratio (default 3.0: trip when a "
        "phase exceeds 3x its baseline total)",
    )
    p_base.add_argument(
        "--bench", default=None, metavar="NAME",
        help="benchmark name recorded in the baseline metadata",
    )
    p_diff = tel_sub.add_parser(
        "diff",
        help="gate a fresh profile against a baseline: exit 1 when any "
        "phase regresses past its tolerance band",
    )
    p_diff.add_argument(
        "candidate", help="fresh profile: trace file or baseline JSON"
    )
    p_diff.add_argument("baseline", help="baseline JSON (telemetry baseline)")
    p_diff.add_argument(
        "--tolerance", type=float, default=None, metavar="RATIO",
        help="override every phase's tolerance ratio for this comparison",
    )


def cmd_telemetry(args) -> int:
    return {"summarize": _summarize, "baseline": _baseline, "diff": _diff}[
        args.telemetry_command
    ](args)


def _summarize(args) -> int:
    from ..obs import summarize_trace

    try:
        lines = summarize_trace(args.file, per_rank=args.per_rank)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot summarize {args.file}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


def _baseline(args) -> int:
    from ..obs import record_baseline, write_baseline
    from ..obs.regression import DEFAULT_TOLERANCE

    metadata = {"trace": args.trace}
    if args.bench:
        metadata["bench"] = args.bench
    try:
        baseline = record_baseline(
            args.trace,
            tolerance=(
                args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
            ),
            metadata=metadata,
        )
        write_baseline(baseline, args.out)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot record baseline: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote baseline {args.out} ({len(baseline['phases'])} phases, "
        f"tolerance {baseline['tolerance']['default']:.1f}x)"
    )
    return 0


def _diff(args) -> int:
    """Exit 0 when within tolerance, 1 on a regression, 2 on bad input."""
    from ..obs import diff_profiles, load_baseline, load_phase_totals

    try:
        baseline = load_baseline(args.baseline)
        candidate = load_phase_totals(args.candidate)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, failures = diff_profiles(
        candidate, baseline, tolerance_override=args.tolerance
    )
    print(f"candidate: {args.candidate}")
    print(f"baseline:  {args.baseline}")
    for line in report:
        print(line)
    if failures:
        print(f"\nPERF REGRESSION ({len(failures)} phase(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nwithin tolerance: no phase regressed past its band")
    return 0


COMMANDS = {"telemetry": cmd_telemetry}
