"""Mode-consistency checking (Sect. 4.3, [17]).

"An approach which checks the consistency of internal modes of components
turned out to be successful to detect teletext problems due to a loss of
synchronization between components."

A :class:`ModeRule` is a predicate over the current component-mode map;
the :class:`ModeConsistencyChecker` samples the map periodically and
reports an error when a rule is violated for more than a configurable
number of consecutive samples (modes legitimately disagree for short
windows during transitions — same transient problem, same cure as the
Comparator's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.contract import ErrorReport
from ..sim.kernel import Kernel

#: A rule returns None when consistent, or a human-readable violation.
RuleFn = Callable[[Dict[str, str]], Optional[str]]


@dataclass
class ModeRule:
    """One named consistency rule over component modes."""

    name: str
    check: RuleFn
    max_consecutive: int = 2
    severity: float = 1.0


def ttx_sync_rule(
    acquirer: str, renderer: str, max_consecutive: int = 2
) -> ModeRule:
    """The teletext rule: renderer and acquirer must agree on the channel.

    Renderer mode ``visible:chN`` requires acquirer mode ``acquiring:chN``.
    """

    def check(modes: Dict[str, str]) -> Optional[str]:
        renderer_mode = modes.get(renderer, "")
        if not renderer_mode.startswith("visible:"):
            return None
        wanted = "acquiring:" + renderer_mode.split(":", 1)[1]
        acquirer_mode = modes.get(acquirer, "")
        if acquirer_mode != wanted:
            return (
                f"{renderer}={renderer_mode} but {acquirer}={acquirer_mode} "
                f"(expected {wanted})"
            )
        return None

    return ModeRule(
        name=f"ttx-sync({acquirer},{renderer})",
        check=check,
        max_consecutive=max_consecutive,
    )


def modes_equal_rule(
    name: str, component_a: str, component_b: str, max_consecutive: int = 2
) -> ModeRule:
    """Generic rule: two components must always report the same mode."""

    def check(modes: Dict[str, str]) -> Optional[str]:
        mode_a = modes.get(component_a)
        mode_b = modes.get(component_b)
        if mode_a != mode_b:
            return f"{component_a}={mode_a} != {component_b}={mode_b}"
        return None

    return ModeRule(name=name, check=check, max_consecutive=max_consecutive)


class ModeConsistencyChecker:
    """Samples a mode map periodically and enforces the rules."""

    def __init__(
        self,
        kernel: Kernel,
        mode_source: Callable[[], Dict[str, str]],
        interval: float = 1.0,
        name: str = "mode-checker",
    ) -> None:
        self.kernel = kernel
        self.mode_source = mode_source
        self.interval = interval
        self.name = name
        self.rules: List[ModeRule] = []
        self.reports: List[ErrorReport] = []
        self.error_listeners: List[Callable[[ErrorReport], None]] = []
        self._violation_streaks: Dict[str, int] = {}
        self._reported: Dict[str, bool] = {}
        self.samples = 0
        self.running = False

    def add_rule(self, rule: ModeRule) -> None:
        self.rules.append(rule)

    def subscribe_errors(self, listener: Callable[[ErrorReport], None]) -> None:
        self.error_listeners.append(listener)

    # -- IControl ------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self.running = True
        self._schedule()

    def stop(self) -> None:
        self.running = False

    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._sample, name=self.name)

    def _sample(self) -> None:
        if not self.running:
            return
        self.samples += 1
        modes = self.mode_source()
        for rule in self.rules:
            violation = rule.check(modes)
            if violation is None:
                self._violation_streaks[rule.name] = 0
                self._reported[rule.name] = False
                continue
            streak = self._violation_streaks.get(rule.name, 0) + 1
            self._violation_streaks[rule.name] = streak
            if streak > rule.max_consecutive and not self._reported.get(rule.name):
                self._reported[rule.name] = True
                report = ErrorReport(
                    time=self.kernel.now,
                    detector=self.name,
                    observable=rule.name,
                    expected="consistent modes",
                    actual=violation,
                    consecutive=streak,
                    severity=rule.severity,
                    context={"modes": dict(modes)},
                )
                self.reports.append(report)
                for listener in self.error_listeners:
                    listener(report)
        self._schedule()

    def reset(self, rule_name: Optional[str] = None) -> None:
        """Clear violation streaks after recovery."""
        if rule_name is None:
            self._violation_streaks.clear()
            self._reported.clear()
            return
        self._violation_streaks.pop(rule_name, None)
        self._reported.pop(rule_name, None)
