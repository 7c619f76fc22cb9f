"""Process-boundary message channels.

Fig. 2 places a *process boundary* between the SUO and the awareness
monitor, crossed via Unix domain sockets.  That boundary is not a detail:
Sect. 4.3 reports that "small delays in system-internal communication
might easily lead to differences during a short time interval", which is
the whole reason the Comparator grew thresholds and consecutive-deviation
counters.  :class:`MessageChannel` reproduces it — every datagram (one
:class:`~repro.core.contract.Observation`) is delivered after ``delay``
plus seeded jitter, preserving order.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..core.contract import Observation
from ..sim.kernel import Event, Kernel
from ..sim.random import RandomStreams


class MessageChannel:
    """Ordered, delayed delivery of observations to receiver callbacks."""

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
        self.receivers: List[Callable[[Observation], None]] = []
        self.sent = 0
        self.delivered = 0
        self.flushed = 0
        self._last_delivery_time = 0.0
        #: ``(delivery event, datagram)`` pairs still scheduled on the
        #: kernel (the socket buffer), in send order.  A plain list, not
        #: a deque: it rarely holds more than a few entries, and an empty
        #: deque costs 760 B against a list's 56 B on every channel.
        self._in_flight: List[Tuple[Event, Observation]] = []
        self._event_name = f"chan:{name}"

    def connect(self, receiver: Callable[[Observation], None]) -> None:
        self.receivers.append(receiver)

    def send(self, datagram: Observation) -> None:
        """Queue a datagram; it arrives after delay + jitter, in order."""
        now = self.kernel.now
        self.sent += 1
        latency = self.delay + (self._rng.random() * self.jitter)
        # Preserve FIFO even under jitter: never deliver before the
        # previously queued datagram (sockets are ordered streams).
        deliver_at = max(now + latency, self._last_delivery_time)
        self._last_delivery_time = deliver_at
        event = self.kernel.schedule_at(
            deliver_at, self._deliver, name=self._event_name
        )
        self._in_flight.append((event, datagram))

    def pending(self) -> int:
        """Datagrams sent but not yet delivered (nor flushed)."""
        return len(self._in_flight)

    def flush_pending(self) -> int:
        """Drop every in-flight datagram; returns how many were dropped.

        Models closing and reopening the socket: a restarting monitor
        must not receive datagrams from before its re-sync snapshot, or
        it would apply them to a model that already reflects them.
        """
        dropped = 0
        for event, _datagram in self._in_flight:
            if not event.cancelled:
                event.cancel()
                dropped += 1
        self._in_flight.clear()
        self.flushed += dropped
        return dropped

    def _deliver(self) -> None:
        self.delivered += 1
        # Deliveries happen in send order (FIFO clamp above) and flushed
        # events never reach here, so the front entry is this event's.
        _event, datagram = self._in_flight.pop(0)
        for receiver in self.receivers:
            receiver(datagram)
