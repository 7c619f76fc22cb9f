"""Tests for scenario-driven recovery (the Fig. 1 ladder, PR 4).

A ``FaultPhase(recovery=True)`` schedules no repair: each afflicted
member's awareness controller must detect the divergence and walk the
ladder (local reset → component restart → rebind) until the rebind rung
executes the fault's repair action.  Per-wave time-to-recover lands in
fleet telemetry and merges shard-invariantly.
"""

import math

import pytest

from repro.campaign import DistributedBackend, ProcessWorkerExecutor, run_cell
from repro.runtime.telemetry import mergeable_summary, merge_summaries
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile, get_scenario
from repro.scenarios.compile import CompiledScenario

DRILL = ScenarioSpec(
    name="mini-drill",
    description="test fixture: one recovery wave over a small fleet",
    duration=60.0,
    tvs=4,
    profiles=(UserProfile(
        "driller", mean_gap=1.5,
        keys=("vol_up", "vol_down", "mute", "vol_up", "vol_down"),
    ),),
    phases=(FaultPhase("volume_overshoot", at=8.0, fraction=1.0, recovery=True),),
)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_recovery_phase_validation():
    with pytest.raises(ValueError, match="not the schedule"):
        FaultPhase("volume_overshoot", at=1.0, recovery=True, duration=5.0).validate()
    with pytest.raises(ValueError, match="not the schedule"):
        FaultPhase("volume_overshoot", at=1.0, recovery=True,
                   duration=5.0, pulse_every=1.0).validate()
    with pytest.raises(ValueError, match="load faults"):
        FaultPhase("alert_broadcast", at=1.0, recovery=True).validate()
    FaultPhase("volume_overshoot", at=1.0, recovery=True).validate()  # ok


# ----------------------------------------------------------------------
# the ladder walks and repairs
# ----------------------------------------------------------------------
def test_ladder_escalates_and_rebind_repairs():
    compiled = CompiledScenario(DRILL, seed=3)
    compiled.run()
    fleet = compiled.fleet
    # every monitored target got a harness when the wave fired
    assert set(compiled.recoveries) == set(fleet.members)
    recovered = [h for h in compiled.recoveries.values() if h.completed]
    assert recovered, "at least one member must complete the full ladder"
    for harness in recovered:
        wave, ttr = harness.completed[0]
        assert wave == 0
        assert 0.0 < ttr < DRILL.duration
        # the rebind rung executed the repair: the fault flag is gone
        assert not harness.member.suo.control.fault_flags.get("volume_overshoot")
        # and the ladder actually escalated through the lower rungs first
        kinds = [entry.action.kind for entry in harness.manager.log]
        assert kinds[:3] == ["local_reset", "component_restart", "rebind"]

    # telemetry carries the same story
    recovery = fleet.telemetry.summary()["recovery"]
    assert recovery["recovered"] == sum(len(h.completed) for h in recovered)
    assert recovery["actions"]["rebind"] >= len(recovered)
    assert recovery["waves"]["0"]["count"] == recovery["recovered"]
    assert recovery["ttr"]["max"] >= recovery["ttr"]["min"] > 0.0


def test_recovery_phase_needs_a_repairable_fault():
    spec = ScenarioSpec(
        "bad-drill", "d", duration=30.0, tvs=2,
        phases=(FaultPhase("alert_broadcast", at=5.0, recovery=True),),
    )
    with pytest.raises(ValueError, match="load faults"):
        spec.validate()


# ----------------------------------------------------------------------
# the library drill end to end
# ----------------------------------------------------------------------
def test_library_drill_records_finite_ttr_per_wave():
    report = run_cell(get_scenario("recovery-ladder-drill"), 7)
    assert report.detection_rate > 0.0
    assert report.false_alarms == []
    recovery = report.telemetry_summary["recovery"]
    assert recovery["recovered"] > 0
    assert recovery["waves"], "per-wave TTR must be recorded"
    for wave, entry in recovery["waves"].items():
        assert entry["count"] > 0, f"wave {wave} recorded no recovery"
        for key in ("min", "max", "mean"):
            assert math.isfinite(entry[key]) and entry[key] > 0.0


def test_drill_recovery_stats_are_shard_invariant():
    spec = get_scenario("recovery-ladder-drill")
    serial = run_cell(spec, 7)
    sharded = run_cell(
        spec, 7, backend=DistributedBackend(ProcessWorkerExecutor(), shards=2)
    )
    assert sharded.telemetry_digest == serial.telemetry_digest
    assert mergeable_summary(sharded.telemetry_summary)["recovery"] == \
        mergeable_summary(serial.telemetry_summary)["recovery"]
    assert sharded.detected == serial.detected


# ----------------------------------------------------------------------
# telemetry merge rules for the recovery block
# ----------------------------------------------------------------------
def test_merge_summaries_folds_recovery_blocks():
    def summary(time, recovered, wave, ttrs):
        return {
            "time": time, "suos": 1, "events_total": 10,
            "events_by_kind": {"recovery": len(ttrs)},
            "window_rate": 0.0,
            "latency": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p90": 0.0, "p99": 0.0, "retained": 0},
            "errors_total": 0, "errors_by_suo": {},
            "recovery": {
                "recovered": recovered,
                "actions": {"rebind": recovered, "local_reset": recovered},
                "ttr": {
                    "count": len(ttrs),
                    "mean": sum(ttrs) / len(ttrs) if ttrs else 0.0,
                    "min": min(ttrs) if ttrs else 0.0,
                    "max": max(ttrs) if ttrs else 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0,
                    "retained": len(ttrs),
                    "samples": list(ttrs),
                },
                "waves": {
                    str(wave): {
                        "count": len(ttrs),
                        "min": min(ttrs) if ttrs else 0.0,
                        "max": max(ttrs) if ttrs else 0.0,
                        "mean": sum(ttrs) / len(ttrs) if ttrs else 0.0,
                    }
                } if ttrs else {},
            },
        }

    merged = merge_summaries([
        summary(30.0, 2, 0, [5.0, 9.0]),
        summary(30.0, 1, 0, [7.0]),
        summary(30.0, 1, 1, [11.0]),
    ])
    recovery = merged["recovery"]
    assert recovery["recovered"] == 4
    assert recovery["actions"] == {"local_reset": 4, "rebind": 4}
    assert recovery["ttr"]["count"] == 4
    assert recovery["ttr"]["min"] == 5.0 and recovery["ttr"]["max"] == 11.0
    assert recovery["waves"]["0"] == {
        "count": 3, "min": 5.0, "max": 9.0, "mean": 7.0,
    }
    assert recovery["waves"]["1"]["count"] == 1

    # single-summary merge is the identity on the exact scalars
    single = merge_summaries([summary(30.0, 2, 0, [5.0, 9.0])])
    assert single["recovery"]["ttr"]["min"] == 5.0
    assert single["recovery"]["waves"]["0"]["mean"] == 7.0
