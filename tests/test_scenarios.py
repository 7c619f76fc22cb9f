"""Tests for the scenario engine (repro.scenarios).

Covers the declarative layer (spec validation), the compiler (profile
assignment, phased fault schedules with repair, streaming-trace auto
mode), the library (≥10 named scenarios, each runnable), and scenario ×
seed sweeps through :class:`~repro.campaign.Campaign` (byte-identical
telemetry for a fixed seed).
"""

import json
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    DistributedBackend,
    InlineExecutor,
    format_campaign_table,
    run_cell,
    run_cell_detailed,
)
from repro.scenarios import (
    SCENARIOS,
    CompiledScenario,
    FaultPhase,
    ScenarioSpec,
    UserProfile,
    get_scenario,
    register_scenario,
    scenario_names,
)

SMALL = ScenarioSpec(
    name="small",
    description="test fixture",
    duration=40.0,
    tvs=4,
    profiles=(UserProfile("p", mean_gap=2.0, keys=("power", "vol_up", "mute")),),
)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_empty_mix_and_bad_values():
    with pytest.raises(ValueError, match="empty device mix"):
        ScenarioSpec("x", "d", duration=10.0).validate()
    with pytest.raises(ValueError, match="duration"):
        ScenarioSpec("x", "d", duration=0.0, tvs=1).validate()
    with pytest.raises(ValueError, match="mean_gap"):
        ScenarioSpec(
            "x", "d", duration=10.0, tvs=1, profiles=(UserProfile("p", mean_gap=0),)
        ).validate()
    with pytest.raises(ValueError, match="duplicate profile"):
        ScenarioSpec(
            "x", "d", duration=10.0, tvs=1,
            profiles=(UserProfile("p"), UserProfile("p")),
        ).validate()


def test_spec_rejects_bad_phases():
    with pytest.raises(ValueError, match="unknown fault"):
        FaultPhase("warp_core_breach", at=1.0).validate()
    with pytest.raises(ValueError, match="fraction"):
        FaultPhase("mute_noop", at=1.0, fraction=0.0).validate()
    with pytest.raises(ValueError, match="pulse_every needs"):
        FaultPhase("alert_broadcast", at=1.0, pulse_every=2.0).validate()
    with pytest.raises(ValueError, match="after the scenario ends"):
        ScenarioSpec(
            "x", "d", duration=10.0, tvs=1,
            phases=(FaultPhase("mute_noop", at=20.0),),
        ).validate()


def test_spec_scaling_preserves_shape():
    spec = ScenarioSpec("x", "d", duration=10.0, tvs=10, players=4)
    big = spec.scaled(2.5)
    assert (big.tvs, big.players, big.printers) == (25, 10, 0)
    small = spec.scaled(0.01)
    assert (small.tvs, small.players) == (1, 1)  # present kinds keep >= 1
    with pytest.raises(ValueError):
        spec.scaled(0)


# ----------------------------------------------------------------------
# compiler
# ----------------------------------------------------------------------
def test_profile_assignment_is_deterministic_and_exhaustive():
    spec = ScenarioSpec(
        "mix", "d", duration=10.0, tvs=20,
        profiles=(UserProfile("a", weight=3.0), UserProfile("b", weight=1.0)),
    )
    first = CompiledScenario(spec, seed=5)
    second = CompiledScenario(spec, seed=5)
    def mix_of(c):
        return {name: len(g) for name, g in c.profile_groups.items()}

    assert mix_of(first) == mix_of(second)
    assert sum(mix_of(first).values()) == 20
    assert mix_of(first)["a"] > mix_of(first)["b"]  # weights respected


def test_fault_phase_applies_and_repairs():
    spec = ScenarioSpec(
        "drill", "d", duration=30.0, tvs=6,
        profiles=(UserProfile("p", mean_gap=3.0, keys=("vol_up", "vol_down")),),
        phases=(FaultPhase("volume_overshoot", at=5.0, fraction=1.0, duration=10.0),),
    )
    compiled = CompiledScenario(spec, seed=1)
    fleet = compiled.fleet
    # drive to mid-phase: the flag must be set on every member
    compiled._started = True
    compiled._power_on_tvs()
    compiled._start_users()
    compiled._schedule_phases()
    fleet.run(10.0)
    flags = [m.suo.control.fault_flags.get("volume_overshoot") for m in fleet.members.values()]
    assert all(flags)
    assert len(compiled.faulty) == 6
    # past at + duration the repair must have cleared it everywhere
    fleet.run(10.0)
    flags = [m.suo.control.fault_flags.get("volume_overshoot") for m in fleet.members.values()]
    assert not any(flags)


def test_load_faults_do_not_mark_members_faulty():
    spec = ScenarioSpec(
        "flood", "d", duration=20.0, tvs=4,
        profiles=(UserProfile("p", mean_gap=4.0),),
        phases=(FaultPhase("alert_broadcast", at=5.0, fraction=1.0,
                           duration=10.0, pulse_every=2.0),),
    )
    compiled = CompiledScenario(spec, seed=2)
    report = compiled.run()
    assert report.faulty == []
    assert report.detection_rate == 1.0  # vacuous: nothing injected


def test_compiled_scenario_run_extends_instead_of_restarting():
    compiled = CompiledScenario(SMALL, seed=3)
    first = compiled.run()
    powered_after_first = sum(
        1 for m in compiled.fleet.members.values() if m.suo.powered
    )
    second = compiled.run()
    # drivers not re-attached, TVs not re-power-cycled wholesale
    drivers = [m.driver for m in compiled.fleet.members.values() if m.driver]
    assert len(drivers) == len(set(id(d) for d in drivers))  # no double-attach
    # reports are cumulative: the second covers both segments
    assert second.duration == pytest.approx(2 * first.duration)
    assert compiled.fleet.kernel.now == pytest.approx(second.duration)
    assert second.dispatched >= first.dispatched > 0
    assert powered_after_first >= 1


# ----------------------------------------------------------------------
# library
# ----------------------------------------------------------------------
def test_library_has_at_least_ten_valid_scenarios():
    assert len(SCENARIOS) >= 10
    for name in scenario_names():
        spec = get_scenario(name)
        spec.validate()
        assert spec.members > 0


def test_unknown_scenario_name_is_a_helpful_error():
    with pytest.raises(KeyError, match="zapping-storm"):
        get_scenario("nope")


def test_register_scenario_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_scenario(get_scenario("zapping-storm"))


#: Digests of every library scenario at scaled(0.5), seed 11 (serial,
#: plus the per-shard trace digests of a 2-shard inline run); rewrite
#: with ``python tools/rebaseline.py`` when a change moves them on purpose.
GOLDEN_DIGESTS = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_library_scenario_runs_and_is_deterministic(name):
    """Acceptance: each named scenario runs through the campaign surface
    with a byte-identical telemetry summary for a fixed seed, and its
    digests equal the pinned ones."""
    spec = get_scenario(name).scaled(0.5)  # half-size fleets keep this fast
    cell = run_cell_detailed(spec, seed=11)
    first = cell.fleet_report
    second = run_cell_detailed(spec, seed=11).fleet_report
    assert first.dispatched == second.dispatched
    assert first.trace_digest == second.trace_digest
    first_bytes = json.dumps(first.summary, sort_keys=True)
    second_bytes = json.dumps(second.summary, sort_keys=True)
    assert first_bytes == second_bytes
    assert first.members > 0
    assert first.dispatched > 0
    sharded = run_cell(
        spec, seed=11, backend=DistributedBackend(InlineExecutor(), shards=2)
    )
    assert sharded.telemetry_digest == cell.report.telemetry_digest
    assert sharded.span_digest == cell.report.span_digest
    measured = {
        "trace_digest": first.trace_digest,
        "telemetry_digest": cell.report.telemetry_digest,
        "span_digest": cell.report.span_digest,
        "shard_trace_digests": sharded.shard_trace_digests,
    }
    assert name in GOLDEN_DIGESTS, (
        f"{name}: no pinned digests (tools/rebaseline.py adds them)"
    )
    for field, pinned in GOLDEN_DIGESTS[name].items():
        assert measured[field] == pinned, (
            f"{name}: {field} moved from {pinned or '-'} to "
            f"{measured[field] or '-'} (tools/rebaseline.py rewrites the table)"
        )


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def test_sweep_covers_the_full_grid_row_major():
    reports = Campaign([SMALL], seeds=[1, 2]).run()
    assert [(r.scenario, r.seed) for r in reports] == [("small", 1), ("small", 2)]
    assert reports[0].telemetry_digest != reports[1].telemetry_digest


def test_sweep_accepts_names_and_specs_mixed():
    reports = Campaign(["zapping-storm", SMALL], seeds=[4], scale=0.25).run()
    assert [r.scenario for r in reports] == ["zapping-storm", "small"]


def test_format_table_renders_all_rows():
    reports = Campaign([SMALL], seeds=[1, 2]).run()
    table = format_campaign_table(reports)
    assert "scenario" in table and "telemetry digest" in table
    assert table.count("small") == 2


def test_spec_rejects_phase_targeting_missing_kind():
    with pytest.raises(ValueError, match="no such devices"):
        ScenarioSpec(
            "x", "d", duration=10.0, tvs=2,
            phases=(FaultPhase("silent_jam", at=1.0, kind="printer"),),
        ).validate()


def test_monitored_printers_enter_detection_accounting():
    """Printers carry awareness monitors since PR 4 (queue-depth and
    page-rate observables), so injected printer faults count as faulty
    and the silent jam is actually detected — the scenario is no longer
    a structural-zero cell."""
    report = run_cell("printer-burst", seed=3)
    assert report.faulty, "silent_jam targets must be marked faulty"
    assert all(suo.startswith("printer") for suo in report.faulty)
    assert report.detection_rate > 0.0
    assert report.false_alarm_rate == 0.0
    compiled = CompiledScenario(get_scenario("printer-burst"), seed=3)
    compiled.run()
    jammed = [m for m in compiled.fleet.members.values()
              if m.kind == "printer" and m.suo.feeder.silently_jammed]
    assert jammed, "silent_jam phase must still afflict printers"
    for member in jammed:
        assert member.monitor is not None
        assert member.faulty
