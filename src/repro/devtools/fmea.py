"""Software FMEA at the architecture level (Sect. 4.7, [18]).

Sözer et al. extend failure-modes-and-effects analysis to the software
architecture: failure modes are attached to components, effects propagate
along the dependency structure, and criticality combines probability with
user-perceived severity.  The reproduction runs directly on the Koala
:class:`~repro.koala.binding.Configuration` of the simulated TV and can
take its severity weights from the perception package — closing the loop
between user studies and architecture analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..koala.binding import Configuration


@dataclass(frozen=True)
class FailureMode:
    """One way a component can fail."""

    component: str
    name: str
    #: Occurrence probability per mission (normalized 0..1).
    probability: float
    #: Local severity if only this component misbehaved (0..1).
    local_severity: float
    #: Detectability by existing checks (0 = invisible, 1 = always caught).
    detectability: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("probability", "local_severity", "detectability"):
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{attr} must be in [0, 1]")


@dataclass(frozen=True)
class FmeaEntry:
    """One row of the FMEA table."""

    failure_mode: FailureMode
    affected_components: tuple
    user_severity: float
    criticality: float
    rpn: float  # risk priority number (probability × severity × escape)


class ArchitectureFmea:
    """Propagates failure modes over the component dependency graph."""

    def __init__(
        self,
        configuration: Configuration,
        user_facing_severity: Optional[Dict[str, float]] = None,
    ) -> None:
        self.configuration = configuration
        #: Severity weight of each *user-facing* component's loss; derived
        #: from perception studies in the full pipeline.
        self.user_facing_severity = dict(user_facing_severity or {})

    # ------------------------------------------------------------------
    def affected_by(self, component: str) -> List[str]:
        """Components whose service degrades if ``component`` fails.

        Effects flow against the dependency direction: whoever *requires*
        (directly or transitively) the failed component is affected.
        """
        return self.configuration.dependents_of(component)

    def user_severity_of(self, component: str) -> float:
        """Combined user-facing severity when ``component`` fails."""
        affected = set(self.affected_by(component)) | {component}
        severity = 0.0
        for name in affected:
            severity = max(severity, self.user_facing_severity.get(name, 0.0))
        return severity

    # ------------------------------------------------------------------
    def analyze(self, failure_modes: Sequence[FailureMode]) -> List[FmeaEntry]:
        """Produce the FMEA table, sorted by descending criticality."""
        entries: List[FmeaEntry] = []
        for mode in failure_modes:
            if mode.component not in self.configuration.components:
                raise KeyError(f"unknown component {mode.component!r}")
            affected = tuple(self.affected_by(mode.component))
            user_severity = max(
                mode.local_severity, self.user_severity_of(mode.component)
            )
            escape = 1.0 - mode.detectability
            criticality = mode.probability * user_severity
            entries.append(
                FmeaEntry(
                    failure_mode=mode,
                    affected_components=affected,
                    user_severity=user_severity,
                    criticality=criticality,
                    rpn=mode.probability * user_severity * escape,
                )
            )
        entries.sort(key=lambda entry: -entry.rpn)
        return entries

    def improvement_targets(
        self, failure_modes: Sequence[FailureMode], top_n: int = 3
    ) -> List[str]:
        """Components whose failure modes dominate the risk — where to
        spend dependability effort first."""
        table = self.analyze(failure_modes)
        seen: List[str] = []
        for entry in table:
            component = entry.failure_mode.component
            if component not in seen:
                seen.append(component)
            if len(seen) >= top_n:
                break
        return seen
