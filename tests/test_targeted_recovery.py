"""Diagnosis-guided recovery: spectrum-based localization in the ladder.

PR 5 acceptance: in the drill scenarios, the rebind rung targets the SFL
top-ranked suspect component, the true faulty component ranks first in
>= 80% of episodes, the results are identical serial vs 2-shard, and
the new ``diagnosis`` telemetry block merges order-invariantly.
"""

import itertools
import math

import pytest

from repro.campaign import (
    DistributedBackend,
    ProcessWorkerExecutor,
    run_cell,
    run_cell_detailed,
)
from repro.diagnosis.components import RankedComponent
from repro.runtime.fleet import MonitorFleet
from repro.runtime.telemetry import mergeable_summary, merge_summaries
from repro.scenarios import UserProfile, get_scenario
from repro.scenarios.compile import CompiledScenario
from repro.scenarios.recovery import DOWNTIME, MemberRecovery

#: The drills the CI diagnosis gate runs (quick mode).
DRILLS = ("player-decoder-drill", "printer-jam-drill", "recovery-ladder-drill")


# ----------------------------------------------------------------------
# acceptance: accuracy, targeting, TTR
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", DRILLS)
def test_drill_localizes_and_targets_the_true_component(name):
    report = run_cell(get_scenario(name), 7)
    assert report.detection_rate > 0.0
    assert report.false_alarms == []
    diagnosis = report.telemetry_summary["diagnosis"]
    ranked = sum(diagnosis["rank_of_true"].values())
    assert ranked > 0, "episodes must record a localization outcome"
    # the true faulty component ranks first in >= 80% of episodes
    assert diagnosis["localization_accuracy"] >= 0.8
    # rebind actually targeted the SFL suspect (not always full rebinds)
    assert diagnosis["rebinds"].get("targeted", 0) > 0
    # every targeted TTR is finite and positive
    for mode, block in diagnosis["ttr"].items():
        if block["count"]:
            assert math.isfinite(block["min"]) and block["min"] > 0.0
            assert math.isfinite(block["max"]) and block["max"] >= block["min"]


def test_storm_targets_across_all_three_kinds():
    report = run_cell(get_scenario("targeted-rebind-storm"), 7)
    diagnosis = report.telemetry_summary["diagnosis"]
    # every device kind contributed a correctly-localized suspect
    assert {"audio", "decoder", "feeder"} <= set(diagnosis["suspects"])
    assert diagnosis["localization_accuracy"] >= 0.8
    recovery = report.telemetry_summary["recovery"]
    assert recovery["recovered"] > 0


def test_player_rebind_restarts_pipeline_and_clears_wedge():
    cell = run_cell_detailed(get_scenario("player-decoder-drill"), 7)
    compiled = cell.compiled
    recovered = [h for h in compiled.recoveries.values() if h.completed]
    assert recovered
    for harness in recovered:
        player = harness.member.suo
        assert not player.stall_on_corrupt
        assert not player.stalled
        # the rebuilt pipeline resumed producing frames
        assert player.frames_rendered > 0


def test_printer_rebind_clears_jam():
    cell = run_cell_detailed(get_scenario("printer-jam-drill"), 7)
    compiled = cell.compiled
    recovered = [h for h in compiled.recoveries.values() if h.completed]
    assert recovered
    for harness in recovered:
        printer = harness.member.suo
        assert not printer.feeder.silently_jammed


# ----------------------------------------------------------------------
# SFL ranking determinism (serial vs serial, serial vs sharded)
# ----------------------------------------------------------------------
def _suspect_rankings(compiled):
    return {
        suo_id: [
            (entry.component, round(entry.score, 12), entry.rank)
            for entry in harness.spectra.ranking()
        ]
        for suo_id, harness in sorted(compiled.recoveries.items())
        if harness.spectra is not None
    }


def test_same_scenario_and_seed_yield_identical_rankings():
    spec = get_scenario("recovery-ladder-drill")
    first = CompiledScenario(spec, seed=7)
    first.run()
    second = CompiledScenario(spec, seed=7)
    second.run()
    assert _suspect_rankings(first) == _suspect_rankings(second)
    assert _suspect_rankings(first), "drill must create recovery harnesses"


@pytest.mark.parametrize("name", DRILLS + ("targeted-rebind-storm",))
def test_diagnosis_block_is_shard_invariant(name):
    spec = get_scenario(name)
    serial = run_cell(spec, 7)
    sharded = run_cell(
        spec, 7, backend=DistributedBackend(ProcessWorkerExecutor(), shards=2)
    )
    assert sharded.telemetry_digest == serial.telemetry_digest
    assert mergeable_summary(sharded.telemetry_summary)["diagnosis"] == \
        mergeable_summary(serial.telemetry_summary)["diagnosis"]
    assert sharded.detected == serial.detected


# ----------------------------------------------------------------------
# telemetry merge rules for the diagnosis block
# ----------------------------------------------------------------------
def _summary(rebinds, ranks, hits, misses, ttrs):
    return {
        "time": 30.0, "suos": 1, "events_total": 10,
        "events_by_kind": {"recovery": 1}, "window_rate": 0.0,
        "latency": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0, "retained": 0},
        "errors_total": 0, "errors_by_suo": {},
        "recovery": {"recovered": 0, "actions": {}, "waves": {},
                     "ttr": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                             "p50": 0.0, "p90": 0.0, "p99": 0.0,
                             "retained": 0, "samples": []}},
        "diagnosis": {
            "rebinds": rebinds,
            "suspects": {},
            "rank_of_true": ranks,
            "hits": hits,
            "misses": misses,
            "localization_accuracy": 0.0,
            "targeted_rebind_rate": 0.0,
            "ttr": {
                "targeted": {
                    "count": len(ttrs),
                    "mean": sum(ttrs) / len(ttrs) if ttrs else 0.0,
                    "min": min(ttrs) if ttrs else 0.0,
                    "max": max(ttrs) if ttrs else 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0,
                    "retained": len(ttrs), "samples": list(ttrs),
                },
                "full": {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                         "p50": 0.0, "p90": 0.0, "p99": 0.0,
                         "retained": 0, "samples": []},
            },
        },
    }


def test_merge_summaries_folds_diagnosis_blocks():
    merged = merge_summaries([
        _summary({"targeted": 2}, {"1": 2}, 2, 0, [5.0, 9.0]),
        _summary({"targeted": 1, "full": 1}, {"1": 1, "2": 1}, 1, 1, [7.0]),
    ])
    diagnosis = merged["diagnosis"]
    assert diagnosis["rebinds"] == {"full": 1, "targeted": 3}
    assert diagnosis["rank_of_true"] == {"1": 3, "2": 1}
    assert diagnosis["hits"] == 3 and diagnosis["misses"] == 1
    assert diagnosis["localization_accuracy"] == 0.75
    assert diagnosis["targeted_rebind_rate"] == 0.75
    assert diagnosis["ttr"]["targeted"]["count"] == 3
    assert diagnosis["ttr"]["targeted"]["min"] == 5.0
    assert diagnosis["ttr"]["targeted"]["max"] == 9.0


def test_diagnosis_merge_is_order_invariant():
    parts = [
        _summary({"targeted": 2}, {"1": 2}, 2, 0, [5.0, 9.0]),
        _summary({"targeted": 1, "full": 1}, {"1": 1, "2": 1}, 1, 1, [7.0]),
        _summary({"full": 2}, {"3": 2}, 0, 0, []),
    ]
    baseline = mergeable_summary(merge_summaries(parts))
    for permutation in itertools.permutations(parts):
        merged = mergeable_summary(merge_summaries(list(permutation)))
        assert merged["diagnosis"] == baseline["diagnosis"]


def test_unlocalizable_episodes_count_against_accuracy():
    """An episode whose true component never entered the ranking must
    land in the accuracy denominator (as 'unranked'), not vanish."""
    from repro.runtime.telemetry import DiagnosisStats

    stats = DiagnosisStats()
    stats.observe({"action": "rebind", "mode": "full", "suspect": None,
                   "true_component": "audio", "true_rank": 1,
                   "hit": None, "wave": 0, "ttr": 5.0})
    stats.observe({"action": "rebind", "mode": "full", "suspect": None,
                   "true_component": "audio", "true_rank": None,
                   "hit": None, "wave": 0, "ttr": 9.0})
    summary = stats.summary()
    assert summary["rank_of_true"] == {"1": 1, "unranked": 1}
    assert summary["localization_accuracy"] == 0.5
    # a targeted MISS (no ttr) must not add a second count for the episode
    stats.observe({"action": "rebind", "mode": "targeted", "suspect": "tuner",
                   "true_component": "audio", "true_rank": 2,
                   "hit": False, "wave": 1})
    assert sum(stats.summary()["rank_of_true"].values()) == 2


def test_scripted_profile_must_press_power():
    with pytest.raises(ValueError, match="power"):
        UserProfile("op", script=("ttx", "ch_up")).validate()
    UserProfile("op", script=("power", "ttx", "ch_up")).validate()  # ok


def test_legacy_summaries_without_diagnosis_merge_to_empty_block():
    legacy = _summary({}, {}, 0, 0, [])
    del legacy["diagnosis"]
    merged = merge_summaries([legacy])
    assert merged["diagnosis"]["rebinds"] == {}
    assert merged["diagnosis"]["localization_accuracy"] == 0.0
    assert mergeable_summary(merged)["diagnosis"]["hits"] == 0


# ----------------------------------------------------------------------
# targeted-miss fallback (unit level, via a stubbed ranking)
# ----------------------------------------------------------------------
class _WrongSpectra:
    """Stub: confidently nominates the wrong component."""

    def ranking(self):
        return [
            RankedComponent("tuner", 0.9, 1),
            RankedComponent("audio", 0.2, 2),
        ]

    def confidence(self, ranking=None):
        return 0.7


def test_targeted_miss_falls_back_to_full_rebind():
    fleet = MonitorFleet(seed=3)
    member = fleet.add_tv()
    member.suo.remote.schedule_press(0.0, "power")
    harness = MemberRecovery(member, fleet.kernel, fleet.bus)
    harness.spectra.detach()
    harness.spectra = _WrongSpectra()

    member.suo.control.fault_flags["volume_overshoot"] = True
    member.faulty = True
    flags = member.suo.control.fault_flags
    harness.arm(0, lambda: flags.__setitem__("volume_overshoot", False),
                component="audio")
    # keep the faulty volume path exercised so every rung re-detects
    for i in range(120):
        member.suo.remote.schedule_press(1.0 + i * 1.5,
                                         ("vol_up", "vol_down")[i % 2])
    fleet.run(200.0)

    kinds = [entry.action.kind for entry in harness.manager.log]
    # ladder walked, then rebind twice: the targeted miss, then the full
    assert kinds[:3] == ["local_reset", "component_restart", "rebind"]
    assert kinds.count("rebind") >= 2
    assert harness.completed, "the full rebind must close the episode"
    assert not flags.get("volume_overshoot")
    # the downtime trail shows one targeted attempt before the full one
    rebind_downtimes = [
        entry.downtime for entry in harness.manager.log
        if entry.action.kind == "rebind"
    ]
    assert rebind_downtimes[0] == DOWNTIME["targeted_rebind"]
    assert DOWNTIME["rebind"] in rebind_downtimes[1:]
