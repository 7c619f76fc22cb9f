"""Fleet campaign through the unified API: one plan, two backends.

The paper's framework (Fig. 1/2) watches a single TV.  This example runs
the production-scale version end to end: a declarative
:class:`~repro.scenarios.ScenarioSpec` for 120 monitored devices (110
TVs + 10 media players) with a seeded volume-fault wave, executed twice
through :class:`~repro.campaign.Campaign` —

* once on :class:`~repro.campaign.SerialBackend` — one kernel, one
  fleet, one telemetry hub (PR 1's hand-coded campaign, now one call);
* once on :class:`~repro.campaign.DistributedBackend` with a
  :class:`~repro.campaign.ProcessWorkerExecutor` — the device mix
  partitioned into 4 per-shard plans, one kernel + fleet per worker
  process, telemetry merged back into one report.

The point of the demo: the two reports carry the *identical* merged
counter/tally telemetry digest.  Per-member behaviour is keyed to
``(campaign seed, suo_id)``, so how the fleet is placed across kernels
is invisible in what it does — which is what makes sharding safe to
reach for when one kernel stops being enough.

Run:  python examples/fleet_campaign.py
"""

from repro.campaign import Campaign, DistributedBackend, ProcessWorkerExecutor
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

CAMPAIGN_SPEC = ScenarioSpec(
    name="fleet-campaign",
    description="110 TVs + 10 players, volume fault on a seeded quarter",
    duration=120.0,
    tvs=110,
    players=10,
    profiles=(
        UserProfile("active", mean_gap=3.0,
                    keys=("power", "vol_up", "vol_down", "ch_up", "ch_down",
                          "mute", "ttx", "menu", "epg", "back")),
    ),
    phases=(FaultPhase("volume_overshoot", at=40.0, fraction=0.25),),
)


def main() -> None:
    campaign = Campaign(CAMPAIGN_SPEC)

    # 1. the serial path: one kernel runs the whole fleet ---------------
    serial = campaign.run_cell(CAMPAIGN_SPEC, seed=2026)
    print(f"serial : {serial.members} SUOs, {serial.dispatched:,} events in "
          f"{serial.wall_seconds:.2f}s wall "
          f"({serial.events_per_sec:,.0f} events/sec)")
    print(f"         afflicted {len(serial.faulty)}, detected "
          f"{len(serial.detected)} ({serial.detection_rate:.0%}), "
          f"false alarms: {len(serial.false_alarms)}")

    # 2. the sharded path: same plan, 4 worker processes ----------------
    sharded = campaign.run_cell(
        CAMPAIGN_SPEC, seed=2026,
        backend=DistributedBackend(ProcessWorkerExecutor(), shards=4),
    )
    print(f"sharded: {sharded.members} SUOs across {sharded.shards} worker "
          f"processes in {sharded.wall_seconds:.2f}s wall "
          f"(shard walls {[f'{w:.2f}' for w in sharded.shard_wall_seconds]})")
    print(f"         per-shard trace digests: "
          f"{[d[:10] for d in sharded.shard_trace_digests]}")

    # 3. the witness: the partition is invisible in the telemetry -------
    print(f"serial  telemetry digest: {serial.telemetry_digest[:24]}…")
    print(f"sharded telemetry digest: {sharded.telemetry_digest[:24]}…")
    assert sharded.telemetry_digest == serial.telemetry_digest
    assert sharded.faulty == serial.faulty
    assert sharded.detected == serial.detected
    assert serial.false_alarms == [] and sharded.false_alarms == []
    print("identical merged counters, tallies, and detections — one "
          "campaign API, pluggable execution.")


if __name__ == "__main__":
    main()
