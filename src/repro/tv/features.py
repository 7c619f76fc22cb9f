"""Convenience features: child lock, sleep timer, emergency alerts, EPG.

These are the long-tail features whose sheer number drives the complexity
argument of Sect. 2 (sleep timer, child lock, TV ratings, emergency
alerts, TV guide).  They are deliberately implemented as one component
with small, independent feature blocks — the realistic shape that invites
feature-interaction faults.
"""

from __future__ import annotations

from typing import Callable, List, Set

from ..koala.component import Component
from ..sim.kernel import Kernel
from .control_model import SLEEP_STEPS
from .interfaces import IFeatures


class Features(Component):
    """Child lock, sleep timer, emergency alerts, and the programme guide."""

    def __init__(self, kernel: Kernel, name: str = "features") -> None:
        self.kernel = kernel
        self._sleep_minutes = 0
        self._sleep_event = None
        self._lock_enabled = False
        self.locked_channels: Set[int] = set()
        self._alert = False
        self.on_sleep_expire: List[Callable[[], None]] = []
        #: One simulated minute in kernel time units (frames are ~2 units,
        #: so 60 units/minute keeps the scales plausible).
        self.time_per_minute = 60.0
        super().__init__(name)

    def configure(self) -> None:
        self.provide("features", IFeatures)
        self.set_mode("normal")

    # ------------------------------------------------------------------
    # sleep timer
    # ------------------------------------------------------------------
    def op_features_set_sleep(self, minutes: int) -> int:
        """Arm (or disarm with 0) the sleep timer."""
        if minutes < 0 or minutes > 180:
            raise ValueError("sleep minutes out of range")
        self._sleep_minutes = minutes
        if self._sleep_event is not None:
            self._sleep_event.cancel()
            self._sleep_event = None
        if minutes > 0:
            self._sleep_event = self.kernel.schedule(
                minutes * self.time_per_minute, self._expire_sleep, name="sleep"
            )
        return minutes

    def cycle_sleep(self) -> int:
        """User pressed SLEEP: advance along the step cycle."""
        try:
            index = SLEEP_STEPS.index(self._sleep_minutes)
        except ValueError:
            index = 0
        next_minutes = SLEEP_STEPS[(index + 1) % len(SLEEP_STEPS)]
        return self.op_features_set_sleep(next_minutes)

    def op_features_get_sleep(self) -> int:
        return self._sleep_minutes

    def _expire_sleep(self) -> None:
        self._sleep_minutes = 0
        self._sleep_event = None
        for listener in self.on_sleep_expire:
            listener()

    # ------------------------------------------------------------------
    # child lock
    # ------------------------------------------------------------------
    def op_features_toggle_lock(self) -> bool:
        self._lock_enabled = not self._lock_enabled
        self.set_mode("locked" if self._lock_enabled else "normal")
        return self._lock_enabled

    def lock_channel(self, channel: int) -> None:
        self.locked_channels.add(channel)

    def unlock_channel(self, channel: int) -> None:
        self.locked_channels.discard(channel)

    def op_features_is_locked_channel(self, channel: int) -> bool:
        """A channel is blocked when the lock is on and it is in the list."""
        return self._lock_enabled and channel in self.locked_channels

    # ------------------------------------------------------------------
    # emergency alerts
    # ------------------------------------------------------------------
    def op_features_raise_alert(self) -> None:
        self._alert = True

    def op_features_clear_alert(self) -> None:
        self._alert = False

    def op_features_alert_active(self) -> bool:
        return self._alert
