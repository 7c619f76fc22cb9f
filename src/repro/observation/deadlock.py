"""Hardware-style deadlock detection (Sect. 4.3's 'hardware-based deadlock
detection').

Real deadlock units watch bus/memory handshakes for lack of progress; the
simulation analogue watches registered resources and buffers: if at least
one process is *waiting* and no progress counter has moved for
``stall_intervals`` consecutive samples, the detector raises a deadlock
alarm.  This progress-watchdog formulation detects true deadlocks and
livelock-like stalls alike — both are user-visible hangs, which is what
matters for perceived dependability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..sim.kernel import Kernel
from ..sim.resources import Resource, Store


@dataclass(frozen=True)
class DeadlockAlarm:
    """Raised when the watched set made no progress while work was pending."""

    time: float
    waiting: int
    stalled_for: float


class DeadlockDetector:
    """Progress watchdog over resources and stores."""

    def __init__(
        self,
        kernel: Kernel,
        interval: float = 2.0,
        stall_intervals: int = 3,
    ) -> None:
        self.kernel = kernel
        self.interval = interval
        self.stall_intervals = stall_intervals
        self.resources: List[Resource] = []
        self.stores: List[Store] = []
        self.alarms: List[DeadlockAlarm] = []
        self.on_alarm: List[Callable[[DeadlockAlarm], None]] = []
        self._running = False
        self._last_progress = 0
        self._stall_count = 0

    def watch_resource(self, resource: Resource) -> None:
        self.resources.append(resource)

    def watch_store(self, store: Store) -> None:
        self.stores.append(store)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._last_progress = self._progress_counter()
        self._stall_count = 0
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._sample, name="deadlock-watch")

    def _progress_counter(self) -> int:
        total = 0
        for resource in self.resources:
            total += resource.stats.acquisitions
        for store in self.stores:
            total += store.put_count
        return total

    def _waiting(self) -> int:
        waiting = sum(r.queue_length() for r in self.resources)
        waiting += sum(len(s._getters) for s in self.stores)
        return waiting

    def _sample(self) -> None:
        if not self._running:
            return
        progress = self._progress_counter()
        waiting = self._waiting()
        if waiting > 0 and progress == self._last_progress:
            self._stall_count += 1
            if self._stall_count >= self.stall_intervals:
                alarm = DeadlockAlarm(
                    time=self.kernel.now,
                    waiting=waiting,
                    stalled_for=self._stall_count * self.interval,
                )
                self.alarms.append(alarm)
                for listener in self.on_alarm:
                    listener(alarm)
                self._stall_count = 0
        else:
            self._stall_count = 0
        self._last_progress = progress
        self._schedule()
