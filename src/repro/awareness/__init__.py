"""The run-time awareness framework of Fig. 2."""

from .channel import MessageChannel
from .comparator import Comparator, ComparatorStats, deviation_magnitude
from .config import EVENT_BASED, TIME_BASED, AwarenessConfig, ObservableSpec
from .controller import Controller
from .executor import ModelExecutor
from .modes import (
    ModeConsistencyChecker,
    ModeRule,
    modes_equal_rule,
    ttx_sync_rule,
)
from .monitor import AwarenessMonitor

__all__ = [
    "AwarenessConfig",
    "AwarenessMonitor",
    "Comparator",
    "ComparatorStats",
    "Controller",
    "EVENT_BASED",
    "MessageChannel",
    "ModeConsistencyChecker",
    "ModeRule",
    "ModelExecutor",
    "ObservableSpec",
    "TIME_BASED",
    "deviation_magnitude",
    "modes_equal_rule",
    "ttx_sync_rule",
]
