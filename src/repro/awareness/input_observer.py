"""Input Observer (Fig. 2).

Receives input-event messages (key presses and other stimuli) that the
adapted SUO sends across the process boundary, and forwards them — in
arrival order, with their observation timestamps — to the Model Executor
via the IEventInfo notification interface.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..core.contract import Observation
from .channel import Message, MessageChannel


class InputObserver:
    """Forwards observed SUO input events to its listeners."""

    def __init__(self, name: str = "input-observer") -> None:
        self.name = name
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
        """IEventInfo: notify on every observed input event."""
        self.listeners.append(listener)

    # -- message handling --------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if not self.running:
            return
        if message.kind != "input":
            return
        payload: Dict[str, Any] = message.payload
        observation = Observation(
            time=payload.get("time", message.sent_at),
            source="suo",
            name=payload["name"],
            value=payload.get("value"),
        )
        for listener in self.listeners:
            listener(observation)
