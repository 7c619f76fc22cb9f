"""Tests for the MonitorFleet layer.

The fleet engine multiplexes many monitored SUOs on one kernel and one
bus; the properties that matter are isolation (per-SUO topic namespaces),
determinism (same seed → byte-identical fleet trace), and that the
campaign machinery actually detects injected faults without false alarms.
Campaigns over a fleet are :class:`ScenarioSpec` cells compiled by
:class:`CompiledScenario`.
"""

import gc
from dataclasses import replace

import pytest

from repro.campaign import run_cell_detailed
from repro.products import PLAYER, TV
from repro.runtime import MonitorFleet, build_fleet_report
from repro.runtime.fleet import derive_member_seed
from repro.scenarios import (
    CompiledScenario, FaultPhase, ScenarioSpec, UserProfile, get_scenario,
)


def _campaign(seed, tvs, duration, fault_fraction=0.0, keys=None, **spec_args):
    """Compile a random-user fleet campaign; the volume fault (when
    ``fault_fraction`` is set) activates a third of the way in."""
    profile = UserProfile(
        "user", mean_gap=spec_args.pop("mean_gap", 4.0),
        keys=None if keys is None else tuple(keys),
    )
    phases = (FaultPhase(
        "volume_overshoot", at=duration / 3.0, fraction=fault_fraction,
    ),) if fault_fraction else ()
    spec = ScenarioSpec(
        "fleet-test", "test fixture", duration=duration, tvs=tvs,
        profiles=(profile,), phases=phases, **spec_args,
    )
    return CompiledScenario(spec, seed)


def test_members_share_one_kernel_and_bus():
    fleet = MonitorFleet(seed=1)
    a = fleet.add(TV)
    b = fleet.add(TV)
    p = fleet.add(PLAYER)
    assert a.suo.kernel is fleet.kernel
    assert b.suo.kernel is fleet.kernel
    assert p.suo.kernel is fleet.kernel
    assert a.suo.bus is fleet.bus
    assert len(fleet) == 3


def test_member_seeds_are_stable_and_distinct():
    assert derive_member_seed(5, "tv-0") == derive_member_seed(5, "tv-0")
    assert derive_member_seed(5, "tv-0") != derive_member_seed(5, "tv-1")
    assert derive_member_seed(5, "tv-0") != derive_member_seed(6, "tv-0")


def test_duplicate_suo_id_rejected():
    fleet = MonitorFleet(seed=1)
    fleet.add(TV, suo_id="x")
    try:
        fleet.add(TV, suo_id="x")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("duplicate suo_id accepted")


def test_topic_isolation_between_members():
    """Pressing a key on one TV reaches only that TV's monitor."""
    fleet = MonitorFleet(seed=3)
    a = fleet.add(TV)
    b = fleet.add(TV)
    a.suo.press("power")
    fleet.run(10.0)
    assert a.suo.powered
    assert not b.suo.powered
    # the monitor executors saw different input streams
    assert a.monitor.executor.steps != b.monitor.executor.steps
    # and the fleet recorder attributed traffic to the right member
    assert a.inputs == 1
    assert b.inputs == 0


def test_member_counters_are_exact_without_running_the_kernel():
    """Two same-timestamp inputs count at once: no run() settles them."""
    from repro.tv.remote import KeyPress

    fleet = MonitorFleet(seed=3)
    member = fleet.add(TV)
    topic = f"suo.{member.suo_id}.input"
    fleet.bus.publish(topic, KeyPress(0.0, "power", 0))
    fleet.bus.publish(topic, KeyPress(0.0, "power", 1))
    assert member.inputs == 2


def test_fleet_trace_is_deterministic_across_runs():
    """Same seed → byte-identical merged fleet trace (two fresh runs)."""

    def digest():
        report = _campaign(11, 5, 40.0, players=1, fault_fraction=0.4).run()
        return report.trace_digest, report.dispatched

    first, second = digest(), digest()
    assert first == second
    assert first[1] > 0


def test_different_seed_changes_the_trace():
    def digest(seed):
        compiled = _campaign(seed, 3, 30.0)
        compiled.run()
        return compiled.fleet.trace_digest()

    assert digest(1) != digest(2)


def test_campaign_detects_injected_faults_without_false_alarms():
    report = _campaign(
        42, 12, 120.0, fault_fraction=0.5,
        # volume-heavy sessions make the overshoot fault observable
        keys=["power", "vol_up", "vol_down", "ch_up", "mute", "menu", "back"],
    ).run()
    assert report.members == 12
    assert report.faulty, "campaign should afflict someone at 50%"
    assert report.detected, "at least one injected fault must be caught"
    assert report.false_alarms == []
    assert 0.0 < report.detection_rate <= 1.0
    assert report.events_per_sec > 0


def test_fleet_scales_to_one_hundred_suos():
    """The acceptance workload: 100 SUOs, one kernel, deterministic."""
    compiled = _campaign(9, 100, 20.0)
    report = compiled.run()
    assert report.members == 100
    assert report.dispatched > 10_000
    powered = sum(1 for m in compiled.fleet.members.values() if m.suo.powered)
    assert powered > 50  # random users zap some off; most stay on


# ----------------------------------------------------------------------
# report-ratio guards (zero-fault / zero-member campaigns)
# ----------------------------------------------------------------------
def _report(members=0, faulty=(), detected=(), false_alarms=()):
    from repro.runtime import FleetReport

    return FleetReport(
        shard_id=0,
        members=members,
        duration=1.0,
        dispatched=0,
        wall_seconds=0.0,
        trace_digest="",
        trace_records=0,
        summary={},
        faulty=list(faulty),
        detected=list(detected),
        false_alarms=list(false_alarms),
        monitored_clean=members - len(faulty),
        errors_by_suo={},
    )


def test_detection_rate_guards_zero_fault_campaigns():
    assert _report(members=5).detection_rate == 1.0
    assert _report(members=5, faulty=["a", "b"], detected=["a"]).detection_rate == 0.5


def test_false_alarm_rate_guards_degenerate_fleets():
    # empty fleet and all-faulty fleet: nobody *could* false-alarm
    assert _report(members=0).false_alarm_rate == 0.0
    assert _report(members=2, faulty=["a", "b"]).false_alarm_rate == 0.0
    assert _report(
        members=4, faulty=["a", "b"], false_alarms=["c"]
    ).false_alarm_rate == 0.5


def test_wall_clock_zero_does_not_divide():
    assert _report(members=1).events_per_sec == 0.0


# ----------------------------------------------------------------------
# campaign edge cases
# ----------------------------------------------------------------------
def test_runner_on_an_empty_fleet():
    fleet = MonitorFleet(seed=1)
    report = build_fleet_report(fleet, 10.0, fleet.run(10.0), 0.0, [])
    assert report.members == 0
    assert report.dispatched == 0
    assert report.faulty == []
    assert report.detection_rate == 1.0
    assert report.false_alarm_rate == 0.0
    assert report.summary["events_total"] == 0


def test_runner_faults_into_every_member():
    report = _campaign(
        8, 6, 120.0, fault_fraction=1.0,
        keys=["power", "vol_up", "vol_down", "mute", "ch_up"],
    ).run()
    assert len(report.faulty) == 6  # fraction 1.0 afflicts everyone
    assert report.false_alarms == []
    assert report.false_alarm_rate == 0.0  # no clean member exists
    assert report.detected, "an all-faulty campaign must detect someone"


def test_repeated_run_extends_the_campaign_instead_of_restarting():
    runner = _campaign(21, 8, 30.0, mean_gap=5.0)
    fleet = runner.fleet
    first = runner.run()
    powered = sum(1 for m in fleet.members.values() if m.suo.powered)
    assert powered > 0
    second = runner.run()
    # setup ran once: every TV has exactly one driver and the clock moved on
    assert all(m.driver is not None for m in fleet.members.values() if m.kind == "tv")
    assert fleet.kernel.now == pytest.approx(60.0)
    # reports are cumulative: the second covers both segments
    assert second.duration == pytest.approx(60.0)
    assert second.trace_records >= first.trace_records
    assert second.dispatched >= first.dispatched > 0


def test_false_alarm_denominator_counts_monitored_clean_members():
    """Unmonitored members can be fault-injected too; the false-alarm
    pool is the monitored AND fault-free population, not monitored minus
    total faulty."""
    fleet = MonitorFleet(seed=30)
    for monitor in (True, True, True, False, False):
        fleet.add(TV, monitor=monitor)
    # mark both unmonitored TVs faulty by hand
    for member in fleet.members.values():
        if member.monitor is None:
            member.faulty = True
    faulty = [m for m in fleet.members.values() if m.faulty]
    report = build_fleet_report(fleet, 1.0, 0, 0.0, faulty)
    assert report.monitored_clean == 3  # the three monitored, clean TVs
    assert report.false_alarm_rate == 0.0


def _live_objects() -> int:
    # Earlier tests' garbage can take more than one pass to free.
    while gc.collect():
        pass
    return len(gc.get_objects())


def test_tv_member_footprint_is_bounded():
    """Each monitored TV adds a bounded number of GC-tracked objects.

    Members share one spec chart per product line (~227 objects per TV
    on CPython 3.11 and 3.12); a chart per member adds ~170 more and
    fails this bound.
    """
    fleet = MonitorFleet(seed=0)
    fleet.add(TV)  # builds the shared chart and other per-process caches
    before = _live_objects()
    for _ in range(50):
        fleet.add(TV)
    per_member = (_live_objects() - before) / 50
    assert per_member <= 300


def test_finished_cell_heap_does_not_grow_with_event_count():
    """A finished cell's live heap is independent of how many events it
    dispatched: the fleet hashes each event and keeps no record of it.

    Doubling the drill's duration roughly doubles its recorded events
    (~15k more); the kept cell grows by ~90 objects.  Retaining one
    record per event would grow it by about as many objects as events.
    """
    spec = get_scenario("player-decoder-drill")
    grown = []
    for factor in (1, 2):
        before = _live_objects()
        cell = run_cell_detailed(replace(spec, duration=spec.duration * factor), 0)
        assert cell.compiled.fleet.members  # the live cell stays reachable
        grown.append((_live_objects() - before, cell.fleet_report.trace_records))
        del cell
    (objects_d, records_d), (objects_2d, records_2d) = grown
    assert records_2d - records_d > 5_000
    assert objects_2d - objects_d < 0.1 * (records_2d - records_d)
