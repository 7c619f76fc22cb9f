"""Shared data contracts of the awareness control loop (Fig. 1).

These dataclasses are the vocabulary every stage speaks — aligned with the
taxonomy of Avizienis et al. [1] the paper adopts (Sect. 2):

* an :class:`Observation` is a time-stamped fact about the SUO;
* an :class:`ErrorReport` flags *erroneous state* detected by comparing
  observations against the specification model;
* a :class:`Diagnosis` names the most likely *fault* location;
* a :class:`RecoveryAction` is the correction applied back to the SUO.

The module is import-leaf on purpose: every other package (awareness,
diagnosis, recovery, core) depends on it and on nothing else here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass(slots=True)
class Observation:
    """One time-stamped fact about the SUO.

    Slotted, not frozen: the adapters build one per datagram, and a
    frozen dataclass pays an ``object.__setattr__`` per field.  Nothing
    hashes or mutates one.
    """

    time: float
    source: str
    name: str
    value: Any


@dataclass(frozen=True)
class Deviation:
    """One observable differing between model and system."""

    observable: str
    expected: Any
    actual: Any
    magnitude: float


@dataclass(frozen=True)
class ErrorReport:
    """An error: system state diverged from the specification model."""

    time: float
    detector: str
    observable: str
    expected: Any
    actual: Any
    consecutive: int
    severity: float = 1.0
    context: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of fault localization for a set of errors."""

    time: float
    technique: str
    #: Ranked candidates: (location, score), best first.
    ranking: Tuple[Tuple[str, float], ...]
    errors_explained: int

    def best(self) -> Optional[str]:
        if not self.ranking:
            return None
        return self.ranking[0][0]


@dataclass(frozen=True)
class RecoveryAction:
    """One corrective step selected by the recovery policy."""

    time: float
    kind: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: Expected user impact of executing the action (0 = invisible).
    user_impact: float = 0.0


@dataclass
class LoopReport:
    """End-to-end record of one pass around the Fig. 1 loop."""

    errors: List[ErrorReport] = field(default_factory=list)
    diagnosis: Optional[Diagnosis] = None
    actions: List[RecoveryAction] = field(default_factory=list)
    recovered: bool = False
    detection_latency: Optional[float] = None
