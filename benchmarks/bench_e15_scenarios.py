"""E15 — beyond the paper: thousand-SUO scenario campaign in bounded
memory.

The ROADMAP's north star is many-scenario campaigns over thousands of
devices.  This bench runs a declarative :class:`ScenarioSpec` with 1000
monitored TVs on one kernel.  Fleets keep no per-event record (each
event is hashed into the incremental trace digest and dropped), so
observation memory is O(members), while the trace digest and the
telemetry digest keep the run's determinism checkable.

Claims checked:

* streaming telemetry accounts for every ``suo.*`` event and its
  latency reservoir stays bounded;
* the run is deterministic — same seed, identical trace digest *and*
  byte-identical telemetry summary, across two fresh runs.
"""

import json

from repro.campaign import run_cell
from repro.scenarios import (
    CompiledScenario,
    FaultPhase,
    ScenarioSpec,
    UserProfile,
)

from conftest import print_table, qscale, run_once

DURATION = qscale(40.0, 20.0)

THOUSAND = ScenarioSpec(
    name="thousand-suo-soak",
    description="1000 monitored TVs, light traffic, one mid-run fault wave",
    duration=DURATION,
    tvs=1000,
    profiles=(
        UserProfile("prime-time", mean_gap=15.0,
                    keys=("power", "ch_up", "vol_up", "vol_down", "mute")),
        UserProfile("idle", mean_gap=60.0, keys=("power", "ch_up"), weight=0.5),
    ),
    phases=(
        FaultPhase("volume_overshoot", at=DURATION / 2, fraction=0.1),
    ),
)


def test_e15_thousand_suo_streaming_campaign(benchmark):
    def campaign():
        compiled = CompiledScenario(THOUSAND, seed=15)
        report = compiled.run()
        return compiled, report

    compiled, report = run_once(benchmark, campaign)
    fleet = compiled.fleet
    summary = report.summary
    print_table(
        "E15: 1000-SUO scenario campaign, streaming telemetry",
        ["members", "sim s", "dispatched", "events/sec", "suo events",
         "reservoir", "faulty"],
        [[
            report.members,
            f"{report.duration:.0f}",
            report.dispatched,
            f"{report.events_per_sec:.0f}",
            summary["events_total"],
            summary["latency"]["retained"],
            len(report.faulty),
        ]],
    )
    assert report.members == 1000
    assert summary["events_total"] == report.trace_records > 0
    # reservoir stays bounded however much traffic flowed
    assert summary["latency"]["retained"] <= fleet.telemetry.latency.capacity
    assert report.faulty, "the fault wave must afflict someone"


def test_e15_streaming_run_is_deterministic(benchmark):
    def both():
        first = run_cell(THOUSAND, 15)
        second = run_cell(THOUSAND, 15)
        return first, second

    first, second = run_once(benchmark, both)
    assert first.shard_trace_digests == second.shard_trace_digests
    assert first.telemetry_digest == second.telemetry_digest
    assert json.dumps(first.telemetry_summary, sort_keys=True) == json.dumps(
        second.telemetry_summary, sort_keys=True
    )
    assert first.dispatched == second.dispatched
