"""Tests for telemetry summary merging (the sharded-campaign seam).

``merge_summaries`` is the pure companion to ``FleetTelemetry.summary``:
counters and tallies sum exactly, windowed rates add because their
buckets align on simulated time, and reservoir quantiles come from a
deterministic re-sample of the concatenated shard samples.  The
``merge_digest`` over the shard-invariant projection is the witness a
sharded campaign and its serial twin must agree on.
"""

import pytest

from repro.runtime.telemetry import (
    merge_digest,
    merge_summaries,
    mergeable_summary,
    summary_digest,
)
from repro.scenarios import build_plan, partition_plan
from repro.campaign import execute_plan
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

SPEC = ScenarioSpec(
    name="merge-fixture",
    description="test fixture",
    duration=25.0,
    tvs=6,
    profiles=(UserProfile("p", mean_gap=1.5, keys=("power", "vol_up", "mute")),),
    phases=(FaultPhase("volume_overshoot", at=8.0, fraction=0.5),),
)


def _serial_summary(seed=3):
    return execute_plan(build_plan(SPEC, seed))["summary"]


def _shard_summaries(shards, seed=3):
    plans = partition_plan(build_plan(SPEC, seed), shards)
    return [execute_plan(plan)["summary"] for plan in plans]


# ----------------------------------------------------------------------
# counters / tallies: exact equality with the serial run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 3, 4])
def test_merge_over_n_shards_equals_serial_counters_and_tallies(shards):
    """Acceptance: merge_summaries over 2-4 shard summaries equals the
    serial summary for counters and tallies."""
    serial = _serial_summary()
    merged = merge_summaries(_shard_summaries(shards))
    for key in ("time", "suos", "events_total", "events_by_kind",
                "errors_total", "errors_by_suo", "per_suo"):
        assert merged[key] == serial[key], key
    assert merged["latency"]["count"] == serial["latency"]["count"]
    assert merged["latency"]["min"] == serial["latency"]["min"]
    assert merged["latency"]["max"] == serial["latency"]["max"]
    assert merge_digest(merged) == merge_digest(serial)


def test_merge_digest_is_stable_across_reruns():
    first = merge_digest(merge_summaries(_shard_summaries(2)))
    second = merge_digest(merge_summaries(_shard_summaries(2)))
    assert first == second
    # ... and differs for a different seed (it is not a constant)
    other = merge_digest(merge_summaries(_shard_summaries(2, seed=4)))
    assert other != first


def test_merge_of_one_is_identity_on_the_invariant_core():
    serial = _serial_summary()
    merged = merge_summaries([serial])
    assert mergeable_summary(merged) == mergeable_summary(serial)
    # quantiles survive a single-input merge too: the resample of one
    # reservoir's samples is the reservoir itself
    for q in ("p50", "p90", "p99"):
        assert merged["latency"][q] == serial["latency"][q]


def test_window_rate_is_additive_across_shards():
    serial = _serial_summary()
    merged = merge_summaries(_shard_summaries(3))
    assert merged["window_rate"] == pytest.approx(
        serial["window_rate"], abs=1e-6
    )


# ----------------------------------------------------------------------
# reservoir re-sampling
# ----------------------------------------------------------------------
def _synthetic(count, samples, mean=1.0):
    return {
        "time": 10.0, "suos": 1, "events_total": count,
        "events_by_kind": {"output": count}, "window_rate": 1.0,
        "errors_total": 0, "errors_by_suo": {},
        "latency": {
            "count": count, "mean": mean, "min": min(samples),
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": max(samples),
            "retained": len(samples), "samples": list(samples),
        },
    }


def test_merged_reservoir_is_bounded_and_deterministic():
    a = _synthetic(600, [float(i) for i in range(400)])
    b = _synthetic(500, [float(i) for i in range(400, 800)])
    first = merge_summaries([a, b], reservoir=256)
    second = merge_summaries([a, b], reservoir=256)
    assert first["latency"]["retained"] == 256
    assert first["latency"]["samples"] == second["latency"]["samples"]
    assert first["latency"]["count"] == 1100
    assert first["latency"]["min"] == 0.0
    assert first["latency"]["max"] == 799.0
    # quantiles come from the re-sample, ordered
    assert first["latency"]["p50"] <= first["latency"]["p90"] <= \
        first["latency"]["p99"]


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError):
        merge_summaries([])


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def test_mergeable_summary_excludes_backend_dependent_fields():
    serial = _serial_summary()
    core = mergeable_summary(serial)
    assert "window_rate" not in core
    assert "p50" not in core["latency"]
    assert "samples" not in core["latency"]
    assert core["events_by_kind"] == serial["events_by_kind"]
    assert core["per_suo"] == serial["per_suo"]


def test_summary_digest_matches_fleet_telemetry_digest():
    """FleetTelemetry.digest() and the standalone summary_digest agree,
    so post-hoc digesting of shipped summaries is sound."""
    from repro.scenarios import CompiledScenario

    compiled = CompiledScenario(SPEC, seed=3)
    compiled.run()
    assert compiled.fleet.telemetry.digest() == summary_digest(
        compiled.fleet.telemetry.summary(per_suo=True)
    )
