"""Runtime subsystem: the event bus and the multi-SUO fleet engine.

This package is the scale layer the ROADMAP's north star asks for:

* :mod:`repro.runtime.bus` — :class:`EventBus`, the one publish/subscribe
  plane that the kernel, trace, probes, and awareness observers all ride;
* :mod:`repro.runtime.fleet` — :class:`MonitorFleet` running hundreds
  of monitored SUOs on one kernel with deterministic per-SUO random
  streams (campaigns over it go through :mod:`repro.campaign`);
* :mod:`repro.runtime.telemetry` — :class:`FleetTelemetry` and its
  bounded-memory aggregators (counters, windowed rates, reservoir
  histograms), the fleet's queryable view of an event stream it does
  not retain.

``fleet`` is imported lazily (PEP 562): it depends on the SUO packages,
which themselves import the kernel — which imports this package for the
bus — so eager import would cycle.
"""

from __future__ import annotations

from .bus import EventBus, Subscription
from .telemetry import (
    CounterSet,
    FleetTelemetry,
    RecoveryStats,
    ReservoirHistogram,
    SuoTally,
    WindowedRate,
)

__all__ = [
    "CounterSet",
    "RecoveryStats",
    "EventBus",
    "FleetMember",
    "FleetReport",
    "FleetTelemetry",
    "MonitorFleet",
    "ReservoirHistogram",
    "Subscription",
    "SuoTally",
    "WindowedRate",
    "build_fleet_report",
]

_FLEET_NAMES = {
    "MonitorFleet",
    "FleetMember",
    "FleetReport",
    "build_fleet_report",
}


def __getattr__(name: str):
    if name in _FLEET_NAMES:
        from . import fleet

        return getattr(fleet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
