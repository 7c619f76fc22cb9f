"""Run-to-run comparison of ``benchmarks/run_all.py`` reports.

:func:`compare_bench_runs` is the ``python -m repro.obs compare``
view: events/s, detection rates, diagnosis accuracy and per-mode TTR of
two reports side by side.  The trend *rules* that gate a run against
its prior window are rows of the gate table in :mod:`repro.obs.gates`.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .gates import _detection_rates, _probe_eps


# ----------------------------------------------------------------------
# run comparison (the CLI's `compare` subcommand)
# ----------------------------------------------------------------------
def _delta(old: float, new: float) -> str:
    if old:
        return f"{(new - old) / old:+.1%}"
    return "n/a" if not new else "+inf"


def compare_bench_runs(
    old: Dict[str, Any], new: Dict[str, Any]
) -> List[str]:
    """Human-readable diff of two run_all reports: events/s, detection
    rates, diagnosis accuracy, and per-mode TTR."""
    lines: List[str] = []
    lines.append("throughput (events/sec):")
    for label, getter in (
        ("kernel", lambda r: float(r.get("kernel_events_per_sec", 0) or 0)),
        ("fleet", lambda r: _probe_eps(r, "fleet")),
        ("scenarios", lambda r: _probe_eps(r, "scenarios")),
    ):
        a, b = getter(old), getter(new)
        lines.append(f"  {label:<10} {a:>12,.0f} -> {b:>12,.0f}  {_delta(a, b)}")
    old_rates, new_rates = _detection_rates(old), _detection_rates(new)
    if old_rates or new_rates:
        lines.append("detection rate:")
        for name in sorted(set(old_rates) | set(new_rates)):
            a = old_rates.get(name, 0.0)
            b = new_rates.get(name, 0.0)
            lines.append(f"  {name:<24} {a:>7.4f} -> {b:>7.4f}")
    old_diag = old.get("diagnosis", {})
    new_diag = new.get("diagnosis", {})
    if old_diag or new_diag:
        lines.append("diagnosis (accuracy | targeted/full TTR range):")
        for name in sorted(set(old_diag) | set(new_diag)):
            row = [f"  {name:<24}"]
            for report in (old_diag, new_diag):
                cell = report.get(name, {})
                accuracy = cell.get("localization_accuracy", 0.0)
                ttr = cell.get("ttr", {})
                parts = []
                for mode in ("targeted", "full"):
                    block = ttr.get(mode, {})
                    if block.get("count", 0):
                        parts.append(
                            f"{mode} {block.get('min', 0.0):.1f}"
                            f"-{block.get('max', 0.0):.1f}s"
                        )
                row.append(
                    f"{accuracy:.4f} | {', '.join(parts) if parts else '-'}"
                )
            lines.append(" -> ".join(row))
    return lines
