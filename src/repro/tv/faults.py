"""Fault injection for the simulated TV.

The paper's terminology ([1], Sect. 2): a **fault** (programming mistake,
unexpected input) causes an **error** (bad state) which may lead to a
**failure** (user-visible wrong behaviour).  Each :class:`FaultSpec` here
schedules one of the TV's latent faults from :data:`repro.faults.FAULTS`
(``drop_ttx_notify``, ``ttx_stale_render``, ``volume_overshoot``,
``mute_noop``, ``menu_opens_epg``): a defect that ships dormant,
activates under a trigger condition and corrupts behaviour at a specific
code location (its block set in :class:`~repro.tv.software.SoftwareBuild`
is the diagnosis ground truth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..faults import FAULTS, latent_faults
from .tvset import TVSet


@dataclass
class FaultSpec:
    """One fault of a :class:`FaultInjector` plan."""

    name: str
    #: Key-press count after which the fault becomes active (latency of a
    #: field defect: it ships dormant, then conditions activate it).
    activate_after_presses: int = 0
    active: bool = field(default=False, init=False)


class FaultInjector:
    """Activates faults in a :class:`TVSet` at the right moments."""

    def __init__(self, tv: TVSet) -> None:
        self.tv = tv
        self.plan: Dict[str, FaultSpec] = {}
        self._press_count = 0
        tv.bus.subscribe(tv.remote.topic, self._on_press)

    # ------------------------------------------------------------------
    def inject(self, name: str, activate_after_presses: int = 0) -> FaultSpec:
        """Register one of the TV's latent faults."""
        if name not in latent_faults("tv"):
            raise ValueError(f"unknown fault {name!r}")
        spec = FaultSpec(name=name, activate_after_presses=activate_after_presses)
        self.plan[name] = spec
        if activate_after_presses == 0:
            self._activate(spec)
        return spec

    def clear(self, name: str) -> None:
        """Deactivate a fault (models a hot fix / recovery repair)."""
        spec = self.plan.get(name)
        if spec is None or not spec.active:
            return
        FAULTS[("tv", name)].clear(self.tv)
        spec.active = False

    def active_faults(self) -> List[str]:
        return [name for name, spec in self.plan.items() if spec.active]

    # ------------------------------------------------------------------
    def _on_press(self, _topic, _press) -> None:
        self._press_count += 1
        for spec in self.plan.values():
            if (
                not spec.active
                and spec.activate_after_presses > 0
                and self._press_count >= spec.activate_after_presses
            ):
                self._activate(spec)

    def _activate(self, spec: FaultSpec) -> None:
        FAULTS[("tv", spec.name)].apply(self.tv)
        spec.active = True
