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
from .monitor import (
    AwarenessMonitor,
    default_player_config,
    default_tv_config,
    make_player_monitor,
    make_tv_monitor,
    resync_player_monitor,
    resync_tv_monitor,
)

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
    "default_player_config",
    "default_tv_config",
    "deviation_magnitude",
    "make_player_monitor",
    "make_tv_monitor",
    "resync_player_monitor",
    "resync_tv_monitor",
    "modes_equal_rule",
    "ttx_sync_rule",
]
