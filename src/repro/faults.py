"""The fault catalogue: every injectable fault, defined once.

The paper's terminology ([1], Sect. 2): a **fault** causes an **error**
(bad state) which may lead to a **failure** (user-visible wrong
behaviour).  The Sect. 4.4 experiment injects faults whose location is
known, so diagnosis can be scored against that ground truth.
:data:`FAULTS` is the one table of them, keyed by ``(kind, fault)``:

* a **latent fault** has a ground-truth ``component`` and a ``clear``:
  a defect that stays until repaired, and marks its target faulty;
* a **load disturbance** (alert flood, monitor churn, job burst) has no
  component and marks nothing faulty; an impulse has no ``clear``.

The actions duck-type the device they are handed, so this module
imports nothing from :mod:`repro`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

Action = Callable[[Any], None]


@dataclass(frozen=True)
class Fault:
    """One injectable fault of one device kind."""

    #: Injects the fault into the SUO (into its monitor with ``on_monitor``).
    apply: Action
    #: Undoes the fault; ``None`` for an impulse.
    clear: Optional[Action] = None
    #: The component the fault lives in; ``None`` for a load disturbance.
    component: Optional[str] = None
    #: The rebind action, where ``clear`` alone cannot undo the failure.
    repair: Optional[Action] = None
    #: The actions take the member's awareness monitor, not its SUO.
    on_monitor: bool = False


def _flag(name: str, component: str) -> Fault:
    """A TV control-logic defect toggled through ``control.fault_flags``."""

    def apply(tv) -> None:
        tv.control.fault_flags[name] = True

    def clear(tv) -> None:
        tv.control.fault_flags[name] = False

    return Fault(apply, clear, component)


def _attr(
    name: str, on: Any, off: Any, component: str, repair: Optional[Action] = None
) -> Fault:
    """A defect toggled through one SUO attribute."""
    return Fault(
        lambda suo: setattr(suo, name, on),
        lambda suo: setattr(suo, name, off),
        component,
        repair,
    )


def _restart_pipeline(player) -> None:
    """A stalled decode process cannot be revived in place (the stall
    loop never exits), so the rebind clears the fault AND rebuilds the
    pipeline at the current position."""
    player.stall_on_corrupt = False
    player.restart_pipeline()


def _job_burst(printer) -> None:
    """Four jobs of fixed sizes land at once (no stream needed)."""
    for pages in (2, 4, 3, 2):
        printer.submit(pages=pages)


#: ``(kind, fault) -> Fault``.  The TV latent faults come first, in the
#: order :class:`~repro.tv.software.SoftwareBuild` lays out their block
#: modules: reordering them moves the Sect. 4.4 ground-truth blocks.
FAULTS: Dict[Tuple[str, str], Fault] = {
    # A channel change never reaches the teletext acquirer (Sect. 4.3).
    ("tv", "drop_ttx_notify"): Fault(
        lambda tv: tv.teletext.inject_sync_loss(),
        lambda tv: tv.teletext.repair_sync(),
        "teletext",
    ),
    # The teletext renderer serves a stale cache entry (Sect. 4.4).
    ("tv", "ttx_stale_render"): Fault(
        lambda tv: tv.teletext.inject_stale_render(),
        lambda tv: tv.teletext.repair_stale_render(),
        "teletext",
    ),
    # The volume handler writes an unscaled register value; the mute
    # handler does nothing; the menu handler opens the EPG instead.
    ("tv", "volume_overshoot"): _flag("volume_overshoot", "audio"),
    ("tv", "mute_noop"): _flag("mute_noop", "audio"),
    ("tv", "menu_opens_epg"): _flag("menu_opens_epg", "osd"),
    ("tv", "alert_broadcast"): Fault(lambda tv: tv.broadcast_alert()),
    ("tv", "monitor_churn"): Fault(
        lambda m: m.stop(), lambda m: m.start(), on_monitor=True
    ),
    ("player", "stall_on_corrupt"): _attr(
        "stall_on_corrupt", True, False, "decoder", repair=_restart_pipeline
    ),
    ("player", "decode_slowdown"): _attr("decode_slowdown", 3.0, 1.0, "decoder"),
    ("printer", "silent_jam"): Fault(
        lambda p: p.inject_silent_jam(), lambda p: p.clear_jam(), "feeder"
    ),
    ("printer", "cold_fuser"): Fault(
        lambda p: p.inject_cold_fuser(), lambda p: p.repair_fuser(), "engine"
    ),
    ("printer", "lost_staples"): Fault(
        lambda p: p.inject_lost_staples(), lambda p: p.refill_staples(), "finisher"
    ),
    ("printer", "job_burst"): Fault(_job_burst),
}


def latent_faults(kind: str) -> Tuple[str, ...]:
    """Names of ``kind``'s latent faults, in catalogue order."""
    return tuple(
        name
        for (fault_kind, name), fault in FAULTS.items()
        if fault_kind == kind and fault.component is not None
    )
