"""Process-wide run telemetry: one tracer + one metrics registry + run metadata.

:class:`RunTelemetry` is the unit a run exports: the span buffer, the
metrics snapshot, and enough metadata (config hash, seed, world size,
git describe) to compare two runs' profiles meaningfully — the
machine-readable record behind every ``BENCH_*`` trajectory.

Installation is process-wide: hot paths (samplers, trainers, the
simulated communicator) fetch the active tracer through
:func:`get_tracer`, which costs one global read and returns the shared
:data:`~repro.obs.tracer.NULL_TRACER` when nothing is installed — the
disabled path stays a no-op.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from .metrics import NULL_METRICS, MetricsRegistry
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "RunTelemetry",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "get_tracer",
    "get_metrics",
    "config_hash",
    "git_describe",
]


def config_hash(config: Any) -> str:
    """Stable short hash of a config (dataclass, dict, or None)."""
    if config is None:
        return "none"
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def git_describe() -> str:
    """``git describe --always --dirty`` of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


class RunTelemetry:
    """Everything one run records: tracer, metrics, and metadata."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metadata: Dict[str, Any] = dict(metadata or {})

    @classmethod
    def for_run(
        cls,
        config: Any = None,
        seed: Optional[int] = None,
        world_size: Optional[int] = None,
        **extra: Any,
    ) -> "RunTelemetry":
        """Telemetry pre-populated with comparable run metadata."""
        metadata: Dict[str, Any] = {
            "config_hash": config_hash(config),
            "git": git_describe(),
        }
        if seed is not None:
            metadata["seed"] = int(seed)
        if world_size is not None:
            metadata["world_size"] = int(world_size)
        metadata.update(extra)
        return cls(metadata=metadata)

    # ------------------------------------------------------------------
    def record_comm_stats(self, stats: Any) -> None:
        """Wire a :class:`repro.distributed.CommStats` snapshot into the
        metrics registry (``comm.*`` gauges), so retries, backoff seconds
        and rank evictions land in the exported metrics file."""
        for key, value in stats.to_dict().items():
            if isinstance(value, (int, float)):
                self.metrics.gauge(f"comm.{key}").set(value)
            elif isinstance(value, list):
                self.metrics.gauge(f"comm.{key}_count").set(len(value))

    def record_training(self, result: Any) -> None:
        """Summarise a :class:`~repro.pipeline.trainers.GNNTrainResult`."""
        self.metrics.gauge("train.epochs").set(len(result.history))
        self.metrics.gauge("train.steps").set(result.trained_steps)
        self.metrics.gauge("train.skipped_graphs").set(result.skipped_graphs)
        self.metrics.gauge("train.checkpoints_written").set(result.checkpoints_written)
        self.metrics.gauge("train.watchdog_rollbacks").set(
            getattr(result, "watchdog_rollbacks", 0)
        )
        epoch_hist = self.metrics.histogram("train.epoch_seconds")
        for record in result.history.records:
            epoch_hist.observe(record.epoch_seconds)
        for stage, total in result.timers.totals().items():
            self.metrics.gauge(f"train.stage_seconds.{stage}").set(total)
        if result.comm_stats is not None:
            self.record_comm_stats(result.comm_stats)

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """Metadata + full metrics dump (the ``--metrics-out`` payload)."""
        return {"metadata": dict(self.metadata), **self.metrics.to_dict()}

    def write_metrics(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.metrics_snapshot(), fh, indent=2, default=str)
            fh.write("\n")

    def write_trace(self, path: str) -> None:
        """Chrome ``trace_event`` JSON (``.json``) or JSONL (``.jsonl``)."""
        if path.endswith(".jsonl"):
            self.tracer.write_jsonl(path)
        else:
            self.tracer.write_chrome_trace(path, metadata=self.metadata)


# ----------------------------------------------------------------------
# process-wide current telemetry
# ----------------------------------------------------------------------
_CURRENT: Optional[RunTelemetry] = None


def get_telemetry() -> Optional[RunTelemetry]:
    """The installed telemetry, or ``None`` when tracing is disabled."""
    return _CURRENT


def set_telemetry(telemetry: Optional[RunTelemetry]) -> Optional[RunTelemetry]:
    """Install (or clear, with ``None``) the process-wide telemetry.

    Returns the previously installed object so callers can restore it.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


@contextmanager
def use_telemetry(telemetry: Optional[RunTelemetry]) -> Iterator[Optional[RunTelemetry]]:
    """Scoped install: restores the previous telemetry on exit.

    ``use_telemetry(None)`` is a supported no-op scope, so call sites can
    write ``with use_telemetry(maybe_telemetry): ...`` unconditionally.
    """
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)


def get_tracer():
    """The active tracer — :data:`NULL_TRACER` when telemetry is off.

    This is the hot-path entry point: one global read, no allocation.
    """
    current = _CURRENT
    return current.tracer if current is not None else NULL_TRACER


def get_metrics():
    """The active registry — :data:`NULL_METRICS` when telemetry is off.

    Call sites bump counters unconditionally, as with :func:`get_tracer`.
    """
    current = _CURRENT
    return current.metrics if current is not None else NULL_METRICS
