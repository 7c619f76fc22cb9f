"""Rewrite ``tests/golden_digests.json`` and print which digests moved.

The table pins, for every library scenario at ``scaled(0.5)`` and seed
11 (the run ``tests/test_scenarios.py::
test_every_library_scenario_runs_and_is_deterministic`` already makes),
the serial ``run_cell_detailed`` trace, telemetry and span digests, and
the per-shard trace digests of the same cell run through
``DistributedBackend(InlineExecutor(), shards=2)`` (whose telemetry and
span digests must equal the serial ones).  A change that moves any of
them fails that test; run this script when the move is intended, and
commit the rewritten table with the change that explains it::

    python tools/rebaseline.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_digests.json"
SCALE = 0.5
SEED = 11


Row = Dict[str, Any]


def compute() -> Dict[str, Row]:
    """The digest row of every library scenario, keyed by name."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.campaign import (
        DistributedBackend,
        InlineExecutor,
        run_cell,
        run_cell_detailed,
    )
    from repro.scenarios import SCENARIOS

    table = {}
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name].scaled(SCALE)
        cell = run_cell_detailed(spec, seed=SEED)
        sharded = run_cell(
            spec, seed=SEED, backend=DistributedBackend(InlineExecutor(), shards=2)
        )
        table[name] = {
            "trace_digest": cell.fleet_report.trace_digest,
            "telemetry_digest": cell.report.telemetry_digest,
            "span_digest": cell.report.span_digest,
            "shard_trace_digests": sharded.shard_trace_digests,
        }
        cell.compiled.close()
    return table


def moves(old: Dict[str, Row], new: Dict[str, Row]) -> List[str]:
    """One line per scenario digest that differs between the tables."""
    lines = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            lines.append(f"{name}: {'added' if name in new else 'removed'}")
            continue
        for field, value in new[name].items():
            if old[name].get(field) != value:
                lines.append(
                    f"{name}: {field} {old[name].get(field) or '-'} -> {value or '-'}"
                )
    return lines


def main() -> None:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = compute()
    moved = moves(old, new)
    for line in moved:
        print(line)
    print(f"{len(moved)} digest(s) moved across {len(new)} scenarios")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
