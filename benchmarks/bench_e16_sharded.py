"""E16 — beyond the paper: sharded campaign execution.

The ROADMAP's next scale decade is sharded fleets: one kernel per shard,
N shards in worker processes, merged telemetry.  This bench runs the
1000-SUO scenario of E15 through both execution backends of the unified
campaign API and checks the two claims that make sharding *trustworthy*:

* **determinism** — the sharded run's merged counter/tally telemetry is
  byte-identical to the serial run's (`telemetry_digest` matches), and
  every shard contributes a reproducible trace digest;
* **speed** — with enough cores, 4 shards beat one kernel by >= 2x on
  wall clock (the assertion is gated on ``os.cpu_count()``: on a 1-core
  container the partitioned run still *works* and still matches the
  serial digests, but the processes serialize and the speedup is
  recorded rather than asserted).

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the fleet and shard count
so this doubles as the CI shard-determinism smoke (serial vs 2-shard).
"""

import os

from repro.campaign import DistributedBackend, ProcessWorkerExecutor, run_cell
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

from conftest import print_table, qscale, run_once

MEMBERS = qscale(1000, 200)
DURATION = qscale(20.0, 8.0)
SHARDS = qscale(4, 2)

SPEC = ScenarioSpec(
    name="sharded-soak",
    description="the E15 thousand-SUO workload, partitionable",
    duration=DURATION,
    tvs=MEMBERS,
    profiles=(
        UserProfile("prime-time", mean_gap=15.0,
                    keys=("power", "ch_up", "vol_up", "vol_down", "mute")),
        UserProfile("idle", mean_gap=60.0, keys=("power", "ch_up"), weight=0.5),
    ),
    phases=(
        FaultPhase("volume_overshoot", at=DURATION / 2, fraction=0.1),
    ),
)


def test_e16_sharded_campaign_matches_serial_and_scales(benchmark):
    def both():
        # Sharded first: forking from a lean parent measures the backend,
        # not the CPython copy-on-write penalty of duplicating a heap the
        # serial run would otherwise have left behind (refcount writes
        # unshare forked pages).
        sharded = run_cell(
            SPEC, 16,
            backend=DistributedBackend(ProcessWorkerExecutor(), shards=SHARDS),
        )
        serial = run_cell(SPEC, 16)
        return serial, sharded

    serial, sharded = run_once(benchmark, both)
    speedup = (
        serial.wall_seconds / sharded.wall_seconds
        if sharded.wall_seconds > 0 else 0.0
    )
    cores = os.cpu_count() or 1
    print_table(
        f"E16: {MEMBERS}-SUO campaign, serial vs {SHARDS} shards "
        f"({cores} cores)",
        ["backend", "members", "wall s", "dispatched", "suo events",
         "telemetry digest"],
        [
            ["serial", serial.members, f"{serial.wall_seconds:.2f}",
             serial.dispatched, serial.telemetry_summary["events_total"],
             serial.telemetry_digest[:16]],
            [sharded.backend, sharded.members, f"{sharded.wall_seconds:.2f}",
             sharded.dispatched, sharded.telemetry_summary["events_total"],
             sharded.telemetry_digest[:16]],
        ],
    )
    print(f"speedup: {speedup:.2f}x on {cores} cores "
          f"(shard walls: {[round(w, 2) for w in sharded.shard_wall_seconds]})")

    # determinism: the partition is invisible in the merged telemetry
    assert sharded.members == serial.members == MEMBERS
    assert sharded.telemetry_digest == serial.telemetry_digest, \
        "sharded counter/tally telemetry must equal the serial run's"
    assert sharded.faulty == serial.faulty
    assert sharded.detected == serial.detected
    assert len(sharded.shard_trace_digests) == SHARDS
    assert len(set(sharded.shard_trace_digests)) == SHARDS

    # speed: only assert where the hardware can physically deliver it
    if cores >= SHARDS:
        assert speedup >= 2.0, (
            f"expected >= 2x wall-clock speedup at {SHARDS} shards on "
            f"{cores} cores, measured {speedup:.2f}x"
        )


def test_e16_shard_trace_digests_reproduce(benchmark):
    backend = DistributedBackend(ProcessWorkerExecutor(), shards=SHARDS)

    def twice():
        return (
            run_cell(SPEC, 16, backend=backend),
            run_cell(SPEC, 16, backend=backend),
        )

    first, second = run_once(benchmark, twice)
    assert first.shard_trace_digests == second.shard_trace_digests
    assert first.telemetry_digest == second.telemetry_digest
