"""Timing utilities: epoch breakdowns and scaling fits."""

from .breakdown import EpochBreakdown, project_epoch_time
from .scaling import ScalingCurve, amdahl_time, fit_amdahl

__all__ = [
    "EpochBreakdown",
    "project_epoch_time",
    "ScalingCurve",
    "amdahl_time",
    "fit_amdahl",
]
