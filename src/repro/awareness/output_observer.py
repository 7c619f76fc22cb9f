"""Output Observer (Fig. 2).

Receives output-event messages from the adapted SUO (screen descriptor
changes, sound level changes, internal states exposed as outputs), keeps
the latest value per observable, and notifies the Comparator through the
IOutputEvent interface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..core.contract import Observation
from .channel import Message, MessageChannel


class OutputObserver:
    """Tracks the most recent observed value of every SUO observable."""

    def __init__(self, name: str = "output-observer") -> None:
        self.name = name
        self.latest: Dict[str, Observation] = {}
        self.listeners: List[Callable[[Observation], None]] = []
        self.running = False

    # -- IControl ------------------------------------------------------
    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    # -- wiring ----------------------------------------------------------
    def connect_channel(self, channel: MessageChannel) -> None:
        channel.connect(self._on_message)

    def subscribe(self, listener: Callable[[Observation], None]) -> None:
        """IOutputEvent: notify on every observed output event."""
        self.listeners.append(listener)

    # -- queries -----------------------------------------------------------
    def value(self, name: str) -> Optional[Any]:
        observation = self.latest.get(name)
        if observation is None:
            return None
        return observation.value

    def observed_at(self, name: str) -> Optional[float]:
        observation = self.latest.get(name)
        if observation is None:
            return None
        return observation.time

    # -- message handling --------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if not self.running:
            return
        if message.kind != "output":
            return
        payload: Dict[str, Any] = message.payload
        observation = Observation(
            time=payload.get("time", message.sent_at),
            source="suo",
            name=payload["name"],
            value=payload.get("value"),
        )
        self.latest[observation.name] = observation
        for listener in self.listeners:
            listener(observation)
