"""Process-boundary message channels.

Fig. 2 places a *process boundary* between the SUO and the awareness
monitor, crossed via Unix domain sockets.  That boundary is not a detail:
Sect. 4.3 reports that "small delays in system-internal communication
might easily lead to differences during a short time interval", which is
the whole reason the Comparator grew thresholds and consecutive-deviation
counters.  :class:`MessageChannel` reproduces it — every message is
delivered after ``delay`` plus seeded jitter, preserving order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..sim.kernel import Kernel
from ..sim.random import RandomStreams


@dataclass(frozen=True, slots=True)
class Message:
    """One datagram crossing the process boundary."""

    sent_at: float
    kind: str
    payload: Any


class MessageChannel:
    """Ordered, delayed delivery of messages to a receiver callback."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        delay: float = 0.05,
        jitter: float = 0.02,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        self.kernel = kernel
        self.name = name
        self.delay = delay
        self.jitter = jitter
        self._rng = (streams or RandomStreams(0)).stream(f"channel:{name}")
        self.receivers: List[Callable[[Message], None]] = []
        self.sent = 0
        self.delivered = 0
        self.flushed = 0
        self._last_delivery_time = 0.0
        #: Delivery events still scheduled on the kernel (socket buffer).
        #: Only *undelivered* events live here (the front entry is popped
        #: at delivery before any receiver runs).
        self._in_flight: List[Any] = []
        self._event_name = f"chan:{name}"

    def connect(self, receiver: Callable[[Message], None]) -> None:
        self.receivers.append(receiver)

    def send(self, kind: str, payload: Any) -> Message:
        """Queue a message; it arrives after delay + jitter, in order."""
        now = self.kernel.now
        message = Message(now, kind, payload)
        self.sent += 1
        latency = self.delay + (self._rng.random() * self.jitter)
        # Preserve FIFO even under jitter: never deliver before the
        # previously queued message (sockets are ordered streams).
        deliver_at = max(now + latency, self._last_delivery_time)
        self._last_delivery_time = deliver_at
        event = self.kernel.schedule_at(
            deliver_at, lambda: self._deliver(message),
            name=self._event_name,
        )
        self._in_flight.append(event)
        return message

    def pending(self) -> int:
        """Messages sent but not yet delivered (nor flushed)."""
        return len(self._in_flight)

    def flush_pending(self) -> int:
        """Drop every in-flight message; returns how many were dropped.

        Models closing and reopening the socket: a restarting monitor
        must not receive datagrams from before its re-sync snapshot, or
        it would apply them to a model that already reflects them.
        """
        dropped = 0
        for event in self._in_flight:
            if not event.cancelled:
                event.cancel()
                dropped += 1
        self._in_flight.clear()
        self.flushed += dropped
        return dropped

    def _deliver(self, message: Message) -> None:
        self.delivered += 1
        # Deliveries happen in send order (FIFO clamp above) and flushed
        # events never reach here, so the front entry is always ours.
        if self._in_flight:
            self._in_flight.pop(0)
        for receiver in self.receivers:
            receiver(message)
