"""Run-telemetry plumbing shared by the subcommands.

``--trace-out`` / ``--metrics-out`` / ``--metrics-port`` and the helpers
that honour them (see ``docs/observability.md``).
"""

from __future__ import annotations


def add_telemetry_flags(parser) -> None:
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a span trace: Chrome trace_event JSON (.json, for "
        "chrome://tracing / Perfetto) or JSONL (.jsonl)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot (counters/gauges/histograms) as JSON",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics (Prometheus text) and /health on "
        "127.0.0.1:PORT for the duration of the run (0 = ephemeral port)",
    )


def make_telemetry(args, config=None, seed=None, world_size=None):
    """Build RunTelemetry when a telemetry flag asks for it.

    Returns ``None`` otherwise, so untraced runs keep the null-tracer
    no-op fast path.
    """
    if args.trace_out is None and args.metrics_out is None and args.metrics_port is None:
        return None
    from ..obs import RunTelemetry

    return RunTelemetry.for_run(
        config=config, seed=seed, world_size=world_size, command=args.command
    )


def start_exporter(telemetry, args, health_fn=None):
    """Start the ``/metrics`` + ``/health`` HTTP thread when requested.

    Returns the :class:`~repro.obs.MetricsExporter` (caller closes it in
    a ``finally`` via :func:`stop_exporter`) or ``None`` when
    ``--metrics-port`` was not given.
    """
    if args.metrics_port is None or telemetry is None:
        return None
    from ..obs import MetricsExporter

    exporter = MetricsExporter(
        metrics_fn=telemetry.metrics_snapshot,
        health_fn=health_fn,
        port=args.metrics_port,
    )
    print(f"metrics: {exporter.url}/metrics  health: {exporter.url}/health")
    return exporter


def stop_exporter(exporter) -> None:
    if exporter is not None:
        exporter.close()


def flush_telemetry(telemetry, args) -> None:
    if telemetry is None:
        return
    if args.trace_out:
        telemetry.write_trace(args.trace_out)
        print(
            f"wrote trace to {args.trace_out} "
            f"({len(telemetry.tracer.spans)} spans; open in chrome://tracing "
            "or https://ui.perfetto.dev)"
        )
    if args.metrics_out:
        telemetry.write_metrics(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
