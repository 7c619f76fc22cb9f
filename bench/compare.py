"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py A/ B/

``A/`` (the parent) and ``B/`` (the change) each hold at least five
results JSONs written by ``bench/run.py --out``.  For every workload and
every metric, one row gives each side's median and quartiles, the change
in the median, and a verdict:

* ``ok`` — B's median is no worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``worse`` — it is worse by more than the bound;
* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, so the runs cannot tell, unless every run of B
  reads better than every run of A.

``ok_ratio`` has no tolerance: a failed cell is a correctness failure,
not noise.  Its row reads ``MISMATCH`` if any run of B failed a cell or
any run of B has a lower ``ok_ratio`` than every run of A.

Per-layer metrics have no bound and get no verdict, except the counts a
traced run lists as ``exact`` (``sim.events``, and the ``calls.<package>``
counts of the batch workloads), which must be identical between runs of
the two sides made with the same seed, and the cell digests, which must
agree wherever a cell appears (``exact`` / ``MISMATCH``).  A metric a
result lists under ``aliases`` (``first_record_s_p50`` of the batch
workloads, which is ``cell_s_p50`` by definition) gets no row.

Exit status 1 when any row is ``worse``, ``unresolved`` or ``MISMATCH``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_RUNS = 5


def load(directory: str) -> List[Dict[str, Any]]:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        data = json.loads(path.read_text())
        if isinstance(data, dict) and "workloads" in data and "provenance" in data:
            runs.append(data)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); inclusive quartiles, which for five runs are the
    second and fourth values instead of points beyond them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def verdict(
    a: List[float], b: List[float], better: str, bound: float,
) -> Tuple[str, Optional[float]]:
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] == 0:
        return ("ok" if qb[1] == 0 else "unresolved"), None
    delta = (qb[1] - qa[1]) / qa[1]
    worse = delta if better == "lower" else -delta
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if spread > bound and not b_wins:
        return "unresolved", delta
    return ("worse" if worse > bound else "ok"), delta


def same_seed_pairs(
    side_a: List[Dict[str, Any]], side_b: List[Dict[str, Any]], workload: str,
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    by_seed = {run["provenance"]["seed"]: run for run in side_a if workload in run["workloads"]}
    return [
        (by_seed[run["provenance"]["seed"]]["workloads"][workload], run["workloads"][workload])
        for run in side_b
        if workload in run["workloads"] and run["provenance"]["seed"] in by_seed
    ]


def _summary(values: List[float]) -> str:
    low, median, high = quartiles(values)
    return f"{median:.6g} [{low:.4g}, {high:.4g}]"


def _digests(runs: List[Dict[str, Any]], workload: str) -> Optional[int]:
    """Cells seen, or None if one cell has two digests across the runs."""
    seen: Dict[str, str] = {}
    for run in runs:
        for key, digest in run["workloads"].get(workload, {}).get("cell_digests", {}).items():
            if seen.setdefault(key, digest) != digest:
                return None
    return len(seen)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="directory of the parent's results JSONs")
    parser.add_argument("change", help="directory of the change's results JSONs")
    args = parser.parse_args(argv)
    side_a, side_b = load(args.parent), load(args.change)
    if len(side_a) < MIN_RUNS or len(side_b) < MIN_RUNS:
        print(f"compare: need at least {MIN_RUNS} results per side, "
              f"got {len(side_a)} and {len(side_b)}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m, "end_to_end") for m in contract["end_to_end"]]
    metrics += [(m, "per_layer") for m in contract["per_layer"]]
    workloads = sorted({name for run in side_a + side_b for name in run["workloads"]})
    failed = False
    print(f"{'workload':<16} {'metric':<26} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'delta':>8}  verdict")
    for workload in workloads:
        pairs = same_seed_pairs(side_a, side_b, workload)
        results_a, results_b = ([run["workloads"][workload] for run in side
                                 if workload in run["workloads"]]
                                for side in (side_a, side_b))
        exact = set().union(*(result.get("exact", ()) for result in results_a))
        aliases = set().union(*(result.get("aliases", ()) for result in results_a + results_b))
        for metric, section in metrics:
            name = metric["name"]
            if name in aliases:
                continue
            a, b = ([result[section][name] for result in results if section in result]
                    for results in (results_a, results_b))
            if not a or not b:
                continue
            delta = None
            if name == "ok_ratio":
                fails = any(result["failed"] for result in results_b) or min(b) < min(a)
                label = "MISMATCH" if fails else "exact"
            elif name in exact and pairs:
                same = all(x[section][name] == y[section][name] for x, y in pairs
                           if section in x and section in y)
                label = "exact" if same else "MISMATCH"
            elif section == "end_to_end":
                label, delta = verdict(a, b, metric["better"], metric["bound"])
            else:
                label = "-"
            failed |= label in ("worse", "unresolved", "MISMATCH")
            change = f"{delta:+.2%}" if delta is not None else ""
            print(f"{workload:<16} {name:<26} {_summary(a):<34} {_summary(b):<34} "
                  f"{change:>8}  {label}")
        digests = _digests(side_a + side_b, workload)
        failed |= digests is None
        print(f"{workload:<16} {'cell digests':<26} {'':<34} {'':<34} {'':>8}  "
              f"{'MISMATCH' if digests is None else f'exact ({digests} cells)'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
