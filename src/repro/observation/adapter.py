"""Adapters: hardware monitors as Fig. 1 error sources.

The loop (:class:`repro.core.loop.AwarenessLoop`) consumes anything with
``subscribe_errors``; the model-based comparator and the mode checker
already speak that interface.  This module lifts the *hardware-assisted*
monitors of Sect. 4.1/4.3 — range checkers, memory-latency watches,
deadlock watchdogs — to the same interface, so one loop integrates every
detection technique (the Sect. 5 integration goal).
"""

from __future__ import annotations

from typing import Callable, List

from ..core.contract import ErrorReport
from .deadlock import DeadlockAlarm, DeadlockDetector
from .hardware import MemoryAlarm, MemoryArbiterWatch, RangeChecker


class _ErrorSource:
    """Shared subscribe/emit plumbing."""

    def __init__(self) -> None:
        self.reports: List[ErrorReport] = []
        self._listeners: List[Callable[[ErrorReport], None]] = []

    def subscribe_errors(self, listener: Callable[[ErrorReport], None]) -> None:
        self._listeners.append(listener)

    def _emit(self, report: ErrorReport) -> None:
        self.reports.append(report)
        for listener in self._listeners:
            listener(report)


class RangeCheckerSource(_ErrorSource):
    """Polls a :class:`RangeChecker` and reports new violations.

    The checker itself is a passive recorder (like a debug unit's
    violation FIFO); this adapter drains it on a polling interval and
    turns each violation into an :class:`ErrorReport`.
    """

    def __init__(
        self,
        kernel,
        checker: RangeChecker,
        interval: float = 1.0,
        severity: float = 1.5,
    ) -> None:
        super().__init__()
        self.kernel = kernel
        self.checker = checker
        self.interval = interval
        self.severity = severity
        self._drained = 0
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule()

    def stop(self) -> None:
        self.running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._poll, name="range-source")

    def _poll(self) -> None:
        if not self.running:
            return
        new = self.checker.violations[self._drained:]
        self._drained = len(self.checker.violations)
        for violation in new:
            self._emit(
                ErrorReport(
                    time=violation.time,
                    detector="range-checker",
                    observable=f"range:{violation.component}.{violation.operation}",
                    expected="value within declared interface range",
                    actual=violation.detail,
                    consecutive=1,
                    severity=self.severity,
                )
            )
        self._schedule()


class DeadlockSource(_ErrorSource):
    """Forwards :class:`DeadlockDetector` alarms as error reports."""

    def __init__(self, detector: DeadlockDetector, severity: float = 3.0) -> None:
        super().__init__()
        self.detector = detector
        self.severity = severity
        detector.on_alarm.append(self._on_alarm)

    def _on_alarm(self, alarm: DeadlockAlarm) -> None:
        self._emit(
            ErrorReport(
                time=alarm.time,
                detector="deadlock-watchdog",
                observable="progress",
                expected="forward progress while work is pending",
                actual=f"{alarm.waiting} waiters stalled for {alarm.stalled_for}",
                consecutive=1,
                severity=self.severity,
            )
        )


class MemoryWatchSource(_ErrorSource):
    """Forwards :class:`MemoryArbiterWatch` latency alarms."""

    def __init__(self, watch: MemoryArbiterWatch, severity: float = 1.0) -> None:
        super().__init__()
        self.watch = watch
        self.severity = severity
        watch.on_alarm.append(self._on_alarm)

    def _on_alarm(self, alarm: MemoryAlarm) -> None:
        self._emit(
            ErrorReport(
                time=alarm.time,
                detector="memory-watch",
                observable=f"mem-latency:{alarm.client}",
                expected=f"mean latency <= {alarm.bound}",
                actual=alarm.mean_latency,
                consecutive=1,
                severity=self.severity,
            )
        )
