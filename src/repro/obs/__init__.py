"""Unified run observability: tracing, metrics, and run telemetry.

* :mod:`repro.obs.tracer` — hierarchical spans exported as JSONL or
  Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — counters, gauges, streaming histograms;
* :mod:`repro.obs.telemetry` — the process-wide :class:`RunTelemetry`
  (tracer + metrics + run metadata) behind ``--trace-out`` /
  ``--metrics-out``;
* :mod:`repro.obs.summarize` — per-phase tables from exported traces
  (``repro telemetry summarize``);
* :mod:`repro.obs.exporter` — live ``/metrics`` (Prometheus text) and
  ``/health`` HTTP exposition (``--metrics-port``).

See ``docs/observability.md`` for the exported schemas and how to
reproduce the paper's Figure-3 breakdown from a trace.
"""

from .tracer import NULL_TRACER, NullTracer, Span, Tracer
from .metrics import NULL_METRICS, Counter, Gauge, Histogram, MetricsRegistry, NullMetrics
from .telemetry import (
    RunTelemetry,
    config_hash,
    get_metrics,
    get_telemetry,
    get_tracer,
    git_describe,
    set_telemetry,
    use_telemetry,
)
from .summarize import SpanRecord, load_trace, phase_totals, summarize_trace
from .exporter import MetricsExporter, render_prometheus

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "RunTelemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "get_tracer",
    "get_metrics",
    "config_hash",
    "git_describe",
    "SpanRecord",
    "load_trace",
    "phase_totals",
    "summarize_trace",
    "MetricsExporter",
    "render_prometheus",
]
