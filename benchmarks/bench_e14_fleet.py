"""E14 — beyond the paper: fleet-scale awareness on one kernel.

The paper's framework watches one TV.  The production north star is a
service monitoring *populations* of devices, so this bench drives the
fleet workload: 100 independent TVs with their awareness monitors
multiplexed on a single kernel and a single runtime bus, seeded random
users on every set, and a fault-injection campaign across a deterministic
subset.

Claims checked:

* the fleet runs at six-figure dispatch throughput (events/sec);
* injected faults are detected with zero false alarms (the Sect. 4.3
  comparator discipline survives multiplexing);
* the run is deterministic — same seed, byte-identical trace.

:data:`FLEET_SPEC` is the one definition of the workload: the
``run_all.py`` fleet probe imports it, so the throughput floor protects
the ``run_cell_detailed`` path campaigns use.
"""

from dataclasses import replace

from repro.campaign import run_cell_detailed
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

from conftest import print_table, qscale, run_once

FLEET_SEED = 14
FLEET_SPEC = ScenarioSpec(
    name="fleet-probe",
    description="100 TVs, seeded random users, 20% volume_overshoot at t=20",
    duration=60.0,
    tvs=100,
    profiles=(UserProfile("random", mean_gap=4.0),),
    phases=(FaultPhase("volume_overshoot", at=20.0, fraction=0.2),),
)
SPEC = replace(FLEET_SPEC, tvs=qscale(100, 30))


def _campaign():
    return run_cell_detailed(SPEC, FLEET_SEED)


def test_e14_fleet_campaign(benchmark):
    cell = run_once(benchmark, _campaign)
    report = cell.fleet_report
    print_table(
        "E14: 100-SUO fleet fault-injection campaign (one kernel, one bus)",
        ["members", "sim time", "events", "events/sec", "faulty", "detected",
         "false alarms"],
        [[
            report.members,
            f"{report.duration:.0f}",
            report.dispatched,
            f"{report.events_per_sec:.0f}",
            len(report.faulty),
            len(report.detected),
            len(report.false_alarms),
        ]],
    )
    assert report.members == SPEC.tvs
    assert report.dispatched > qscale(10_000, 1_000)
    assert report.faulty, "20% injection over 100 TVs must afflict someone"
    assert report.detected, "the monitors must catch injected faults"
    assert report.false_alarms == [], "fault-free members must stay silent"
    # one shared kernel serves the whole fleet
    fleet = cell.compiled.fleet
    assert all(
        member.suo.kernel is fleet.kernel for member in fleet.members.values()
    )


def test_e14_fleet_determinism(benchmark):
    """Same seed → byte-identical merged trace, twice over."""

    def both():
        return _campaign().fleet_report, _campaign().fleet_report

    first, second = run_once(benchmark, both)
    assert first.trace_digest == second.trace_digest
    assert first.dispatched == second.dispatched
    assert first.errors_by_suo == second.errors_by_suo
