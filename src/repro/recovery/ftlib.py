"""Reusable fault-tolerance library (Sect. 4.5).

"To realize these concepts, a reusable fault tolerance library has been
implemented."  The pieces a unit author composes:

* :class:`CheckpointStore` — versioned state snapshots with rollback;
* :class:`Watchdog`        — must be kicked within a deadline, else it
  fires a timeout callback (the classic liveness guard);
* :class:`Heartbeat`       — periodic emitter a monitor can watch;
* :func:`with_retries`     — bounded retry of a fallible callable.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from ..sim.kernel import Event, Kernel

T = TypeVar("T")


class CheckpointStore:
    """Versioned deep-copied snapshots of a state dict."""

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._versions: List[Tuple[float, Dict[str, Any]]] = []

    def save(self, time: float, state: Dict[str, Any]) -> int:
        """Store a snapshot; returns its version index."""
        self._versions.append((time, copy.deepcopy(state)))
        while len(self._versions) > self.capacity:
            self._versions.pop(0)
        return len(self._versions) - 1

    def latest(self) -> Optional[Dict[str, Any]]:
        if not self._versions:
            return None
        return copy.deepcopy(self._versions[-1][1])

    def at_or_before(self, time: float) -> Optional[Dict[str, Any]]:
        """Most recent snapshot taken at or before ``time`` (rollback)."""
        candidates = [(t, s) for t, s in self._versions if t <= time]
        if not candidates:
            return None
        return copy.deepcopy(candidates[-1][1])

    def __len__(self) -> int:
        return len(self._versions)


class Watchdog:
    """Fires ``on_timeout`` when not kicked within ``deadline``."""

    def __init__(
        self,
        kernel: Kernel,
        deadline: float,
        on_timeout: Callable[[], None],
        name: str = "watchdog",
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.kernel = kernel
        self.deadline = deadline
        self.on_timeout = on_timeout
        self.name = name
        self.fired = 0
        self.kicks = 0
        self._event: Optional[Event] = None
        self.enabled = False

    def start(self) -> None:
        self.enabled = True
        self._arm()

    def stop(self) -> None:
        self.enabled = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def kick(self) -> None:
        """The guarded activity signals liveness."""
        if not self.enabled:
            return
        self.kicks += 1
        self._arm()

    def _arm(self) -> None:
        if self._event is not None:
            self._event.cancel()
        self._event = self.kernel.schedule(
            self.deadline, self._fire, name=f"wdg:{self.name}"
        )

    def _fire(self) -> None:
        if not self.enabled:
            return
        self.fired += 1
        self.on_timeout()
        self._arm()  # keep watching; recovery may take a while


class Heartbeat:
    """Periodic liveness emitter, typically wired to a Watchdog.kick."""

    def __init__(
        self,
        kernel: Kernel,
        period: float,
        emit: Callable[[], None],
        name: str = "heartbeat",
    ) -> None:
        self.kernel = kernel
        self.period = period
        self.emit = emit
        self.name = name
        self.beats = 0
        self.running = False

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule()

    def stop(self) -> None:
        self.running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.period, self._beat, name=f"hb:{self.name}")

    def _beat(self) -> None:
        if not self.running:
            return
        self.beats += 1
        self.emit()
        self._schedule()


def with_retries(
    operation: Callable[[], T],
    attempts: int = 3,
    on_retry: Optional[Callable[[int, Exception], None]] = None,
) -> T:
    """Run ``operation``, retrying up to ``attempts`` times on exception."""
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    last_error: Optional[Exception] = None
    for attempt in range(attempts):
        try:
            return operation()
        except Exception as exc:  # noqa: BLE001 - ftlib catches by design
            last_error = exc
            if on_retry is not None:
                on_retry(attempt + 1, exc)
    assert last_error is not None
    raise last_error
