"""Timing utilities: stage timers and epoch breakdowns."""

from .timer import StageTimer, Timer
from .breakdown import EpochBreakdown, project_epoch_time
from .scaling import ScalingCurve, amdahl_time, fit_amdahl
from .profile import HotSpot, ProfileReport, by_op, profiled

__all__ = [
    "Timer",
    "StageTimer",
    "EpochBreakdown",
    "project_epoch_time",
    "ScalingCurve",
    "amdahl_time",
    "fit_amdahl",
    "HotSpot",
    "ProfileReport",
    "profiled",
    "by_op",
]
