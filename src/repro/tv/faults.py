"""Fault injection for the simulated TV.

The paper's terminology ([1], Sect. 2): a **fault** (programming mistake,
unexpected input) causes an **error** (bad state) which may lead to a
**failure** (user-visible wrong behaviour).  Each :class:`FaultSpec` here
is a fault in that sense: a latent defect that activates under a trigger
condition and corrupts behaviour at a specific code location (its block
set in :class:`~repro.tv.software.SoftwareBuild` is the diagnosis ground
truth).

Catalogue (all user-visible through the screen/sound observables):

* ``drop_ttx_notify``   — channel-change notification to the teletext
  acquirer is lost (the Sect. 4.3 synchronization fault);
* ``ttx_stale_render``  — teletext renderer serves pages from a stale
  cache entry (the Sect. 4.4 injected teletext error);
* ``volume_overshoot``  — volume handler writes an unscaled register
  value, slamming volume to an extreme;
* ``mute_noop``         — mute key handler silently does nothing;
* ``menu_opens_epg``    — menu handler dispatches to the wrong overlay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .tvset import TVSet


@dataclass
class FaultSpec:
    """One injectable fault."""

    name: str
    description: str
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
        """Register a fault from the catalogue."""
        maker = getattr(self, f"_apply_{name}", None)
        if maker is None:
            raise ValueError(f"unknown fault {name!r}")
        spec = FaultSpec(
            name=name,
            description=maker.__doc__ or name,
            activate_after_presses=activate_after_presses,
        )
        self.plan[name] = spec
        if activate_after_presses == 0:
            self._activate(spec)
        return spec

    def clear(self, name: str) -> None:
        """Deactivate a fault (models a hot fix / recovery repair)."""
        spec = self.plan.get(name)
        if spec is None or not spec.active:
            return
        remover = getattr(self, f"_remove_{name}", None)
        if remover is not None:
            remover()
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
        getattr(self, f"_apply_{spec.name}")()
        spec.active = True

    # ------------------------------------------------------------------
    # fault implementations
    # ------------------------------------------------------------------
    def _apply_drop_ttx_notify(self) -> None:
        """Lose channel-change notifications to the teletext acquirer."""
        self.tv.teletext.inject_sync_loss()

    def _remove_drop_ttx_notify(self) -> None:
        self.tv.teletext.repair_sync()

    def _apply_ttx_stale_render(self) -> None:
        """Teletext renderer pins a stale cache generation."""
        self.tv.teletext.inject_stale_render()

    def _remove_ttx_stale_render(self) -> None:
        self.tv.teletext.repair_stale_render()

    def _apply_volume_overshoot(self) -> None:
        """Volume handler writes an unscaled hardware register value."""
        self.tv.control.fault_flags["volume_overshoot"] = True

    def _remove_volume_overshoot(self) -> None:
        self.tv.control.fault_flags["volume_overshoot"] = False

    def _apply_mute_noop(self) -> None:
        """Mute key handler does nothing."""
        self.tv.control.fault_flags["mute_noop"] = True

    def _remove_mute_noop(self) -> None:
        self.tv.control.fault_flags["mute_noop"] = False

    def _apply_menu_opens_epg(self) -> None:
        """Menu handler dispatches to the EPG overlay instead."""
        self.tv.control.fault_flags["menu_opens_epg"] = True

    def _remove_menu_opens_epg(self) -> None:
        self.tv.control.fault_flags["menu_opens_epg"] = False
