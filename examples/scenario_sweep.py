"""Scenario × seed sweep through the unified campaign API.

The sweep is one :class:`~repro.campaign.Campaign` — and because
execution backends are pluggable, the identical plan can
run serially or sharded across worker processes without changing a line
of the sweep.  The telemetry digest column is the reproducibility
witness: it is backend-invariant *and* rerun-stable, because every
stochastic choice in a scenario draws from streams derived from
``(campaign seed, role)`` names.

Run:  python examples/scenario_sweep.py          # aligned text table
      python examples/scenario_sweep.py --json   # machine-readable cells
"""

import argparse
import json

from repro.campaign import (
    Campaign,
    DistributedBackend,
    ProcessWorkerExecutor,
    format_campaign_table,
)
from repro.scenarios import get_scenario, scenario_names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON array of campaign-report dicts instead of text",
    )
    args = parser.parse_args()

    # 1. the grid: four contrasting workload classes, three seeds each --
    grid = ["zapping-storm", "teletext-heavy", "mixed-fleet-cascade",
            "recovery-ladder-drill"]
    seeds = [1, 2, 3]
    campaign = Campaign(grid, seeds=seeds)
    reports = campaign.run()

    if args.json:
        print(json.dumps([report.as_dict() for report in reports], indent=2,
                         sort_keys=True))
        return

    print(f"library: {len(scenario_names())} named scenarios; sweeping "
          f"{len(grid)} of them x {len(seeds)} seeds\n")

    # 2. the summary table: one row per (scenario, seed) cell -----------
    print(format_campaign_table(reports))

    # 3. what the telemetry layer saw for one interesting cell ----------
    drill = next(r for r in reports
                 if r.scenario == "recovery-ladder-drill" and r.seed == 1)
    summary = drill.telemetry_summary
    print("\nrecovery-ladder-drill seed 1, through the telemetry hub:")
    print(f"  {summary['suos']} SUOs, {summary['events_total']} suo events "
          f"({summary['events_by_kind']})")
    latency = summary["latency"]
    print(f"  monitor channel latency: p50={latency['p50'] * 1000:.1f}ms "
          f"p99={latency['p99'] * 1000:.1f}ms over {latency['count']} deliveries "
          f"({latency['retained']} retained in the reservoir)")
    print(f"  errors by SUO: {summary['errors_by_suo']}")
    spec = get_scenario("recovery-ladder-drill")
    print(f"  drill schedule: {len(spec.phases)} waves, "
          f"fractions {[phase.fraction for phase in spec.phases]}")

    # 4. determinism: the same cell re-executes to the same digest ------
    #    even on a different backend (2 worker processes).
    again = campaign.run_cell("recovery-ladder-drill", seed=1,
                              backend=DistributedBackend(
                                  ProcessWorkerExecutor(), shards=2))
    assert again.telemetry_digest == drill.telemetry_digest
    print("\nrerun of that cell on a 2-shard process backend reproduced the "
          "identical merged telemetry digest — the sweep is replayable, "
          "and the partition is invisible.")


if __name__ == "__main__":
    main()
