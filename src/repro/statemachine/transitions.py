"""Transitions: triggers, guards, actions, and timeouts.

A :class:`Transition` fires on a named event (or on a timeout via
``after``), if its guard passes, moving the machine from ``source`` to
``target``.  Guards and actions receive ``(machine, event)`` so they can
read/write machine variables and emit outputs — this is the executable
fragment of Stateflow semantics that the paper's framework generates C
code from; here we execute it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

from .events import Event
from .states import State

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine  # noqa: F401  (quoted forward refs below)

GuardFn = Callable[["Machine", Event], bool]
TransitionActionFn = Callable[["Machine", Event], None]

#: Reserved event name used internally for timeout triggers.
TIMEOUT_EVENT = "__timeout__"


@dataclass(frozen=True, eq=False, slots=True, repr=False)
class Transition:
    """One edge of the statechart.

    Immutable: a chart is shared by every machine spawned on it (see
    :meth:`Machine.spawn`), so per-run data such as how often an edge
    fired lives on the machine (:attr:`Machine.fire_counts`).  Equality
    and hashing are by identity.
    """

    source: State
    target: Optional[State]
    event: Optional[str] = None
    guard: Optional[GuardFn] = None
    action: Optional[TransitionActionFn] = None
    after: Optional[float] = None
    name: str = ""
    internal: bool = False

    def __post_init__(self) -> None:
        if self.event is None and self.after is None and self.guard is None:
            raise ValueError(
                "transition needs a trigger: an event, a timeout, or a guard "
                "(guard-only transitions are completion transitions)"
            )
        if self.event is not None and self.after is not None:
            raise ValueError("transition cannot have both an event and a timeout")
        if self.target is None and not self.internal:
            raise ValueError("external transition needs a target")
        if not self.name:
            object.__setattr__(self, "name", self._default_name())

    def _default_name(self) -> str:
        trigger = self.event or (f"after({self.after})" if self.after is not None else "[guard]")
        target = self.target.name if self.target is not None else "(internal)"
        return f"{self.source.name}--{trigger}-->{target}"

    # ------------------------------------------------------------------
    def triggered_by(self, event: Event) -> bool:
        """Does this transition's trigger match the event?"""
        if self.after is not None:
            return event.name == TIMEOUT_EVENT and event.param("transition") is self
        if self.event is None:
            # completion transition: eligible on every dispatch
            return True
        return event.name == self.event

    def guard_passes(self, machine: "Machine", event: Event) -> bool:
        if self.guard is None:
            return True
        return bool(self.guard(machine, event))

    def __repr__(self) -> str:
        return f"Transition({self.name})"
