"""Timing utilities: stage timers, epoch breakdowns and scaling fits."""

from .timer import StageTimer, Timer
from .breakdown import EpochBreakdown, project_epoch_time
from .scaling import ScalingCurve, amdahl_time, fit_amdahl

__all__ = [
    "Timer",
    "StageTimer",
    "EpochBreakdown",
    "project_epoch_time",
    "ScalingCurve",
    "amdahl_time",
    "fit_amdahl",
]
