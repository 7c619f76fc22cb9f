"""Tests for the unified campaign API (repro.campaign).

The contract under test: a campaign cell sharded across worker
processes produces *identical* merged counter/tally telemetry to the
same cell under ``SerialBackend`` (the ``telemetry_digest`` witness),
per-shard trace digests reproduce across reruns, and the Campaign
plan/grid semantics hold.
"""

import gc
import json
import sys
import threading

import pytest

from repro.campaign import (
    Campaign,
    CampaignReport,
    DistributedBackend,
    InlineExecutor,
    ProcessWorkerExecutor,
    run_cell,
    format_campaign_table,
)
from repro.campaign.backends import execute_plan_segmented
from repro.printer.engine import Printer
from repro.runtime.telemetry import FleetTelemetry, mergeable_summary
from repro.scenarios import (
    FaultPhase, SCENARIOS, ScenarioSpec, UserProfile, build_plan,
    get_scenario, partition_plan,
)
from repro.sim import Kernel
from repro.tv.mediaplayer import MediaPlayer
from repro.tv.tvset import TVSet

SMALL = ScenarioSpec(
    name="campaign-small",
    description="test fixture",
    duration=30.0,
    tvs=5,
    profiles=(UserProfile("p", mean_gap=2.0, keys=("power", "vol_up", "mute")),),
    phases=(FaultPhase("volume_overshoot", at=10.0, fraction=0.5),),
)


# ----------------------------------------------------------------------
# plans and partitioning
# ----------------------------------------------------------------------
def test_plan_partition_preserves_identities_and_targets():
    spec = ScenarioSpec(
        "mix", "d", duration=20.0, tvs=5, players=3, printers=2,
        phases=(FaultPhase("volume_overshoot", at=5.0, fraction=1.0),),
    )
    plan = build_plan(spec, seed=9)
    shards = partition_plan(plan, 3)
    assert len(shards) == 3
    # every member lands on exactly one shard, identity intact
    scattered = [m for shard in shards for m in shard.members]
    assert sorted(m.suo_id for m in scattered) == sorted(
        m.suo_id for m in plan.members
    )
    assert {m.suo_id: m.kind_index for m in scattered} == {
        m.suo_id: m.kind_index for m in plan.members
    }
    assert {m.suo_id: m.profile for m in scattered} == {
        m.suo_id: m.profile for m in plan.members
    }
    # phase targets are partitioned, not re-drawn
    merged_targets = sorted(
        suo for shard in shards for suo in shard.phase_targets[0]
    )
    assert merged_targets == sorted(plan.phase_targets[0])
    # shard specs cover the shard's slice exactly
    for shard in shards:
        assert shard.spec.tvs == len(shard.members_of("tv"))
        assert shard.spec.players == len(shard.members_of("player"))
        assert shard.spec.printers == len(shard.members_of("printer"))


def test_partition_drops_empty_shards_and_rejects_nesting():
    plan = build_plan(SMALL, seed=1)
    shards = partition_plan(plan, 50)  # far more shards than members
    assert 0 < len(shards) <= SMALL.members
    with pytest.raises(ValueError, match="re-partition"):
        partition_plan(shards[0], 2)
    with pytest.raises(ValueError, match="shards"):
        partition_plan(plan, 0)


# ----------------------------------------------------------------------
# Campaign plan / grid semantics
# ----------------------------------------------------------------------
def test_campaign_grid_is_row_major_and_resolves_names():
    campaign = Campaign(["zapping-storm", SMALL], seeds=[1, 2], scale=0.25)
    cells = [(spec.name, seed) for spec, seed in campaign.cells]
    assert cells == [
        ("zapping-storm", 1), ("zapping-storm", 2),
        ("campaign-small", 1), ("campaign-small", 2),
    ]
    # scale applies to device mixes
    assert campaign.cells[0][0].tvs == SCENARIOS["zapping-storm"].scaled(0.25).tvs


def test_run_cell_does_not_rescale_resolved_grid_cells():
    campaign = Campaign("zapping-storm", seeds=[1], scale=2.0)
    spec, seed = campaign.cells[0]
    report = campaign.run_cell(spec, seed)
    assert report.members == spec.members  # scaled once, not twice
    # a fresh name still picks up the campaign scale
    by_name = campaign.run_cell("zapping-storm", seed)
    assert by_name.members == spec.members


def test_campaign_rejects_empty_plans():
    with pytest.raises(ValueError):
        Campaign([], seeds=[1])
    with pytest.raises(ValueError):
        Campaign(SMALL, seeds=[])
    with pytest.raises(ValueError):
        Campaign(SMALL, scale=0)


def test_serial_backend_report_shape():
    report = Campaign(SMALL).run_cell(SMALL, seed=3)
    assert isinstance(report, CampaignReport)
    assert report.backend == "serial"
    assert report.shards == 1
    assert report.members == SMALL.members
    assert len(report.shard_trace_digests) == 1
    assert report.dispatched > 0
    assert report.telemetry_summary["events_total"] > 0
    assert report.telemetry_digest
    assert report.faulty, "the fault phase must afflict someone"
    assert 0.0 <= report.detection_rate <= 1.0
    table = format_campaign_table([report])
    assert "campaign-small" in table and "telemetry digest" in table


def test_campaign_report_to_json_round_trips():
    report = Campaign(SMALL).run_cell(SMALL, seed=3)
    data = json.loads(report.to_json())
    assert data["scenario"] == "campaign-small"
    assert data["seed"] == 3
    assert data["telemetry_digest"] == report.telemetry_digest
    assert data["detection_rate"] == report.detection_rate
    assert data["telemetry_summary"]["events_total"] == \
        report.telemetry_summary["events_total"]


@pytest.mark.parametrize("shards", [1, 2])
def test_each_executed_shard_renders_its_summary_once(monkeypatch, shards):
    """The shard record is built once: one telemetry summary per shard,
    whatever the merge, checkpoint or report paths read from it."""
    calls = []
    render = FleetTelemetry.summary

    def counting(self, *args, **kwargs):
        calls.append((args, kwargs))
        return render(self, *args, **kwargs)

    monkeypatch.setattr(FleetTelemetry, "summary", counting)
    backend = DistributedBackend(InlineExecutor(), shards=shards)
    report = run_cell(SMALL, 3, backend=backend)
    assert report.shards == shards
    assert len(calls) == shards


# ----------------------------------------------------------------------
# sharded execution: the acceptance bar
# ----------------------------------------------------------------------
def _processes(shards):
    return DistributedBackend(ProcessWorkerExecutor(), shards=shards)


def _inline(shards):
    return DistributedBackend(InlineExecutor(), shards=shards, parallelism=1)


def test_sharded_matches_serial_on_fixture():
    serial = run_cell(SMALL, 5)
    for shards in (2, 3):
        sharded = run_cell(SMALL, 5, backend=_processes(shards))
        assert sharded.shards == shards
        assert sharded.members == serial.members
        assert sharded.telemetry_digest == serial.telemetry_digest
        assert mergeable_summary(sharded.telemetry_summary) == \
            mergeable_summary(serial.telemetry_summary)
        assert sharded.faulty == serial.faulty
        assert sharded.detected == serial.detected
        assert sharded.false_alarms == serial.false_alarms
        assert sharded.errors_by_suo == serial.errors_by_suo
        # kernel dispatch counts differ by a handful of per-shard
        # scheduling events (each shard fires its own phase events); the
        # SUO-event telemetry above is the placement invariant.
        assert abs(sharded.dispatched - serial.dispatched) < 10 * shards


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_library_scenario_shards_match_serial(name):
    """Acceptance: for every library scenario at the quick scale,
    2 worker-process shards and SerialBackend produce identical
    merged counter/tally telemetry."""
    campaign = Campaign([name], scale=0.25)
    serial = campaign.run_cell(name, seed=7)
    sharded = campaign.run_cell(
        name, seed=7, backend=_processes(2)
    )
    assert sharded.telemetry_digest == serial.telemetry_digest
    assert mergeable_summary(sharded.telemetry_summary) == \
        mergeable_summary(serial.telemetry_summary)
    assert sharded.faulty == serial.faulty
    assert sharded.detected == serial.detected
    assert sharded.false_alarms == serial.false_alarms


def test_shard_trace_digests_reproduce_across_reruns():
    backend = _processes(2)
    first = run_cell(SMALL, 5, backend=backend)
    second = run_cell(SMALL, 5, backend=backend)
    assert first.shard_trace_digests == second.shard_trace_digests
    assert len(first.shard_trace_digests) == 2
    assert first.telemetry_digest == second.telemetry_digest
    # distinct shards record distinct event streams
    assert len(set(first.shard_trace_digests)) == 2


def test_inline_sharding_equals_process_sharding():
    inline = run_cell(SMALL, 5, backend=_inline(2))
    process = run_cell(SMALL, 5, backend=_processes(2))
    assert inline.telemetry_digest == process.telemetry_digest
    assert inline.shard_trace_digests == process.shard_trace_digests
    assert inline.dispatched == process.dispatched


def test_single_shard_request_runs_in_process():
    report = run_cell(SMALL, 5, backend=_inline(1))
    serial = run_cell(SMALL, 5)
    assert report.shards == 1
    assert report.telemetry_digest == serial.telemetry_digest
    assert report.shard_trace_digests == serial.shard_trace_digests


# ----------------------------------------------------------------------
# cell-scoped heap: a finished cell's fleet is freed in one collection
# ----------------------------------------------------------------------
def _fleet_objects():
    kinds = (TVSet, MediaPlayer, Printer, Kernel)
    return sum(1 for obj in gc.get_objects() if isinstance(obj, kinds))


def _settled_heap():
    while gc.collect():  # earlier tests' garbage may take several passes
        pass
    # Not 0 on every interpreter: a full collection on CPython 3.12
    # leaves a few hundred interpreter objects in the frozen generation.
    return _fleet_objects(), gc.get_freeze_count()


def _assert_heap_released(before):
    objects, frozen = before
    gc.collect()
    assert _fleet_objects() <= objects
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize(
    "name", ["zapping-storm", "printer-burst", "player-seek-stress"]
)
def test_one_collection_frees_a_finished_cell(name):
    before = _settled_heap()
    run_cell(name, 0)
    _assert_heap_released(before)


def test_overlapping_cells_on_threads_match_serial_and_release_the_heap():
    """Cells running on concurrent threads share the process-wide
    collector policy: each digest equals the serial run's, and once the
    last one ends the heap is unfrozen, collectable and collecting."""
    names = ["zapping-storm", "player-seek-stress", "printer-burst", "zapping-storm"]
    serial = [run_cell(name, 0).shard_trace_digests[0] for name in names]
    before = _settled_heap()
    barrier = threading.Barrier(len(names), timeout=60)
    digests = [None] * len(names)

    def on_segment(compiled, index, now):
        if index == 0:
            barrier.wait()  # every cell is compiled and in flight

    def run(slot, name):
        plan = build_plan(get_scenario(name), 0)
        payload = execute_plan_segmented(plan, 2, on_segment=on_segment)
        digests[slot] = payload["trace_digest"]

    threads = [
        threading.Thread(target=run, args=(slot, name))
        for slot, name in enumerate(names)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == serial
    _assert_heap_released(before)
