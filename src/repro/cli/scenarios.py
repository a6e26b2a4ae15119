"""``repro scenarios list|run|report``: deterministic hostile-workload chaos
matrices gated on physics-metric floors (``docs/scenarios.md``)."""

from __future__ import annotations

import json
import sys
import tempfile

from .common import add_telemetry_flags, flush_telemetry, make_telemetry


def add_parsers(sub) -> None:
    p_scen = sub.add_parser(
        "scenarios",
        help="deterministic hostile-workload chaos matrices with "
        "physics-metric floors",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)
    p_list = scen_sub.add_parser(
        "list", help="scenarios in a matrix, plus the mutator catalog"
    )
    p_run = scen_sub.add_parser(
        "run",
        help="run a matrix and write its conformance report "
        "(exit 1 on any floor violation)",
    )
    for p in (p_list, p_run):
        p.add_argument("--matrix", default="smoke", help="matrix name (smoke, full)")
    p_run.add_argument(
        "--only",
        default=None,
        metavar="NAMES",
        help="comma-separated subset of scenario names to run",
    )
    p_run.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="scratch directory for stores/checkpoints/quarantine logs "
        "(default: a temporary directory)",
    )
    p_run.add_argument(
        "-o",
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON conformance report to PATH",
    )
    add_telemetry_flags(p_run)
    p_report = scen_sub.add_parser(
        "report", help="render a previously written conformance report"
    )
    p_report.add_argument("file", help="report JSON from `scenarios run -o`")


def cmd_scenarios(args) -> int:
    if args.scenarios_command == "report":
        return _report(args)
    from ..scenarios import get_matrix

    try:
        matrix = get_matrix(args.matrix)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return (_list if args.scenarios_command == "list" else _run)(args, matrix)


def _list(args, matrix) -> int:
    from ..scenarios import mutator_catalog

    print(f"matrix {matrix.name!r} ({len(matrix.scenarios)} scenarios):")
    for spec in matrix.scenarios:
        muts = ", ".join(m.name for m in spec.mutators) or "-"
        print(f"  {spec.name:<24} mutators: {muts}")
        if spec.description:
            print(f"      {spec.description}")
    print("\nmutator catalog:")
    for name, doc in sorted(mutator_catalog().items()):
        print(f"  {name:<16} {doc}")
    return 0


def _run(args, matrix) -> int:
    from ..obs import use_telemetry
    from ..scenarios import build_report, render_report, run_matrix, write_report

    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = [n for n in names if n not in matrix.names()]
        if unknown:
            print(
                f"error: unknown scenario(s) {unknown}; known: {matrix.names()}",
                file=sys.stderr,
            )
            return 2
    telemetry = make_telemetry(args)
    scratch = None
    if args.workdir:
        workdir = args.workdir
    else:
        scratch = tempfile.TemporaryDirectory(prefix="repro-scenarios-")
        workdir = scratch.name
    try:
        with use_telemetry(telemetry):
            results = run_matrix(
                matrix,
                workdir,
                names=names,
                progress=lambda r: print(
                    f"  [{'PASS' if r.passed else 'FAIL'}] {r.spec.name}"
                ),
            )
    finally:
        if scratch is not None:
            scratch.cleanup()
    doc = build_report(matrix.name, results)
    print(render_report(doc))
    if args.out:
        write_report(doc, args.out)
        print(f"wrote report to {args.out}")
    flush_telemetry(telemetry, args)
    return 0 if doc["summary"]["failed"] == 0 else 1


def _report(args) -> int:
    from ..scenarios import render_report

    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != "repro.scenarios/v1":
        print(
            f"error: {args.file!r} is not a scenario report "
            f"(format={doc.get('format')!r})",
            file=sys.stderr,
        )
        return 2
    print(render_report(doc))
    return 0 if doc["summary"]["failed"] == 0 else 1


COMMANDS = {"scenarios": cmd_scenarios}
