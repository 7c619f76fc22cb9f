"""Explicit-state exploration of executable models.

Sect. 4.2: "it was very easy to make modeling errors, for instance,
because there are many interactions between features", and the project
investigates "formal model-checking and test scripts to improve model
quality".  :class:`ModelChecker` provides that, directly on the executable
machine:

* reachability over a finite event alphabet (time handled symbolically by
  a ``tick`` action that jumps to the next armed timeout);
* detection of **nondeterminism** (conflicting enabled transitions — the
  classic feature-interaction symptom);
* detection of **deadlock states** (no event or timeout enabled);
* user-supplied **invariants** checked in every reachable state (e.g.
  "teletext overlay and menu overlay are never both visible");
* unreached declared states (dead model parts).

Exploration uses machine snapshots, so guards/actions run for real — this
is model checking of the *executable* semantics, not of an abstraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from .events import Event
from .machine import Machine, Snapshot
from .states import State


Invariant = Tuple[str, Callable[[Machine], bool]]


@dataclass
class Violation:
    """An invariant failure found during exploration."""

    invariant: str
    configuration: str
    vars: Dict[str, Any]
    trace: List[str]


@dataclass
class CheckReport:
    """Everything the exploration found."""

    states_explored: int = 0
    transitions_taken: int = 0
    truncated: bool = False
    deadlocks: List[str] = field(default_factory=list)
    nondeterminism: List[Tuple[str, str, List[str]]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    unreached_states: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        """True when no defect of any class was found."""
        return not (
            self.deadlocks
            or self.nondeterminism
            or self.violations
            or self.unreached_states
        )


class ModelChecker:
    """Bounded exhaustive exploration of a machine over an event alphabet."""

    TICK = "__tick__"

    def __init__(
        self,
        machine: Machine,
        alphabet: List[Event],
        invariants: Optional[List[Invariant]] = None,
        max_states: int = 20000,
    ) -> None:
        self.machine = machine
        self.alphabet = list(alphabet)
        self.invariants = list(invariants or [])
        self.max_states = max_states

    # ------------------------------------------------------------------
    def _state_key(self) -> Tuple[str, str]:
        machine = self.machine
        vars_key = repr(sorted(machine.vars.items()))
        timer_key = repr(sorted(t.transition.name for t in machine._timers))
        active = machine.active.full_name() if machine.active else ""
        return (active, vars_key + "|" + timer_key)

    def _actions(self) -> List[Event]:
        actions = list(self.alphabet)
        if self.machine.next_timeout() is not None:
            actions.append(Event(self.TICK, {}, self.machine.time))
        return actions

    def _apply(self, event: Event) -> bool:
        if event.name == self.TICK:
            deadline = self.machine.next_timeout()
            if deadline is None:
                return False
            return self.machine.advance(deadline) > 0
        return self.machine.dispatch(event.with_time(self.machine.time))

    # ------------------------------------------------------------------
    def run(self) -> CheckReport:
        """Breadth-first exploration from the machine's current state."""
        report = CheckReport()
        nondet_before = len(self.machine.nondeterminism_log)
        initial = self.machine.snapshot()
        visited: Set[Tuple[str, str]] = set()
        reached_configs: Set[str] = set()
        frontier: Deque[Tuple[Snapshot, List[str]]] = deque([(initial, [])])
        visited.add(self._state_key())

        while frontier:
            if len(visited) >= self.max_states:
                report.truncated = True
                break
            snapshot, trace = frontier.popleft()
            self.machine.restore(snapshot)
            reached_configs.add(self.machine.configuration())
            self._check_invariants(report, trace)
            progressed = False
            for event in self._actions():
                self.machine.restore(snapshot)
                fired = self._apply(event)
                if not fired:
                    continue
                progressed = True
                report.transitions_taken += 1
                key = self._state_key()
                if key in visited:
                    continue
                visited.add(key)
                frontier.append((self.machine.snapshot(), trace + [event.name]))
            if not progressed:
                report.deadlocks.append(self.machine.configuration())

        report.states_explored = len(visited)
        report.nondeterminism = list(
            self.machine.nondeterminism_log[nondet_before:]
        )
        report.unreached_states = self._unreached(reached_configs)
        self.machine.restore(initial)
        return report

    # ------------------------------------------------------------------
    def _check_invariants(self, report: CheckReport, trace: List[str]) -> None:
        for name, predicate in self.invariants:
            if predicate(self.machine):
                continue
            report.violations.append(
                Violation(
                    invariant=name,
                    configuration=self.machine.configuration(),
                    vars=dict(self.machine.vars),
                    trace=list(trace),
                )
            )

    def _unreached(self, reached_configs: Set[str]) -> List[str]:
        reached_names: Set[str] = set()
        for config in reached_configs:
            reached_names.update(config.split("."))
        unreached: List[str] = []
        self._walk(self.machine.root, reached_names, unreached)
        return unreached

    def _walk(self, state: State, reached: Set[str], out: List[str]) -> None:
        if state.name not in reached and state.parent is not None:
            out.append(state.full_name())
        for child in state.children.values():
            self._walk(child, reached, out)
