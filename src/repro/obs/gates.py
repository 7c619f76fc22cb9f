"""The benchmark gate table: every rule a ``run_all`` report must meet.

Each :class:`Gate` row names the report path it reads, a predicate and
threshold, a skip condition and its failure message.  :func:`evaluate`
turns a report plus the prior-run window into one pass/fail/skip
:class:`Record` per row, carrying the measured value and the threshold.
``benchmarks/run_all.py``, the CI re-check of its report artifact,
``python -m repro.obs trend`` and ``GET /trend`` all evaluate this one
table; the last two show only the trend rows (``Record.trend``).

Paths are ``/``-separated report keys.  ``*`` fans a row out over a
mapping's keys (or a list's items), one record per key; the keys fill
the ``{0}``/``{1}`` fields of the row's name and message.  A trailing
``?`` measures whether the value is present and non-empty.  An absent
value reads as the row's default.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from statistics import median
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: The library scenarios whose detection/recovery rates are gated.
#: ``overnight-soak`` is among them because the TV's timed volume
#: self-check must keep sparse sleeper sessions detecting injected
#: volume faults.
DETECTION_SCENARIOS = (
    "player-seek-stress", "printer-burst", "recovery-ladder-drill",
    "overnight-soak",
)

#: The drills whose diagnosis-guided recovery is gated.
DIAGNOSIS_SCENARIOS = (
    "player-decoder-drill", "printer-jam-drill", "recovery-ladder-drill",
)

#: Seed-kernel numbers measured on the same container immediately before
#: the runtime refactor (the EventBus), for trajectory comparison.  The kernel
#: gate falls back to them when a report carries no ``seed_baseline``.
SEED_BASELINE = {
    "kernel_events_per_sec": 370_000,
    "single_suo_events_per_sec": 115_000,
    "note": "seed kernel (pre-EventBus), same host, best of 3",
}

#: The trend rows compare a run with the median of this many prior runs
#: (the median, so one noisy run cannot drag the reference down) ...
TREND_WINDOW = 5
#: ... once there are at least this many ...
MIN_HISTORY = 1
#: ... and allow throughput this far below it ...
TREND_MAX_REGRESSION = 0.30
#: ... and a detection rate this far below it.
MAX_DRIFT = 0.25

Report = Dict[str, Any]
Keys = Tuple[str, ...]
Skip = Callable[[Report, List[Report], Keys], Optional[str]]


class Bound(float):
    """A threshold derived from a reference value ``base``: compares as
    the limit itself, and keeps ``margin`` and ``runs`` for messages."""

    def __new__(cls, limit: float, base: float, margin: float, runs: int) -> "Bound":
        bound = super().__new__(cls, limit)
        bound.base, bound.margin, bound.runs = base, margin, runs
        return bound

    def __getnewargs__(self) -> Tuple[float, float, float, int]:
        return float(self), self.base, self.margin, self.runs


class Gate(NamedTuple):
    name: str
    path: str
    default: Any
    test: Callable[[Any, Any], bool]  # test(measured, threshold) -> passed
    threshold: Any  # a constant, or threshold(report, window, keys)
    skip: Optional[Skip]  # -> why the row does not apply, or None
    message: str
    trend: bool  # reads the prior-run window


class Record(NamedTuple):
    gate: str
    status: str  # "pass" | "fail" | "skip"
    measured: Any
    threshold: Any
    message: str  # the failure message, or the skip reason
    trend: bool


# ----------------------------------------------------------------------
# predicates, thresholds and skip conditions
# ----------------------------------------------------------------------
def _holds(measured: Any, threshold: bool) -> bool:
    return bool(measured) == threshold


def _never(measured: Any, threshold: Any) -> bool:
    """Every instance the path finds is a violation (a crash finding)."""
    return False


def _finite(values: Sequence[Any], positive: bool) -> bool:
    return all(
        isinstance(v, (int, float)) and math.isfinite(v) and (v > 0.0 or not positive)
        for v in values
    )


def _wave_ttr(entry: Dict[str, Any], threshold: Any) -> bool:
    values = [entry.get(key, 0.0) for key in ("min", "max", "mean")]
    return entry.get("count", 0) > 0 and _finite(values, False)


def _mode_ttr(stats: Dict[str, Any], threshold: Any) -> bool:
    values = [stats.get("min", 0.0), stats.get("max", 0.0)]
    return stats.get("count", 0) <= 0 or _finite(values, True)


def _unless(reason: str, *paths: str) -> Skip:
    """Skip with ``reason`` unless every path (``{0}`` = the fan-out
    key) holds a present, non-empty value."""

    def skip(report: Report, window: List[Report], keys: Keys) -> Optional[str]:
        for path in paths:
            if not _read(report, path.format(*keys) + "?", None)[0][1]:
                return reason
        return None

    return skip


def _perf_skip(report: Report) -> Optional[str]:
    """Quick mode on a 1-CPU host measures the container, not the
    runtime: no wall-clock floor applies to such a report."""
    cpu_count = report.get("sharded", {}).get("cpu_count") or 0
    if report.get("mode") == "quick" and cpu_count <= 1:
        return f"quick mode on {cpu_count} CPU measures the container, not the runtime"
    return None


def _e16_skip(report: Report, window: List[Report], keys: Keys) -> Optional[str]:
    benches = report.get("benches") or {}
    if benches and "bench_e16_sharded.py" not in benches:
        return None
    sharded = report.get("sharded", {})
    cpus = sharded.get("cpu_count") or 0
    shards = sharded.get("shards") or 0
    if shards and cpus < shards:
        return (
            f"sharded wall-clock speedup >= 2x not asserted: {cpus} CPUs cannot "
            f"physically deliver it at {shards} shards (bench_e16 applies the "
            "same guard)"
        )
    return None if benches else "no benches ran"


def _kernel_baseline(report: Report, window: List[Report], keys: Keys) -> Any:
    return report.get("seed_baseline", SEED_BASELINE).get("kernel_events_per_sec", 0)


def _floor_skip(probe: str, key: str) -> Skip:
    def skip(report: Report, window: List[Report], keys: Keys) -> Optional[str]:
        floor = report.get("perf_floor")
        if not floor:
            return "no perf_floor block in the report"
        reason = _perf_skip(report)
        if reason is None and probe == "fuzz" and report.get("mode") == "quick":
            # The fuzz floor was recorded at the full-mode candidate budget.
            reason = "quick mode runs a smaller fuzz budget than the floor's"
        return reason or (None if floor.get(key) else f"no recorded {key}")

    return skip


def _floor(key: str):
    def threshold(report: Report, window: List[Report], keys: Keys) -> Bound:
        recorded = report["perf_floor"][key]
        margin = report["perf_floor"].get("max_regression", 0.30)
        return Bound(recorded * (1.0 - margin), recorded, margin, 1)

    return threshold


def _probe_eps(report: Report, probe: str) -> float:
    return float(report.get(probe, {}).get("events_per_sec", 0) or 0)


def _detection_rates(report: Report) -> Dict[str, float]:
    return {
        name: float(cell.get("detection_rate", 0.0))
        for name, cell in report.get("detection", {}).items()
        if isinstance(cell, dict) and "detection_rate" in cell
    }


def _eps(probe: str):
    """A report's ``probe`` throughput, or None where no perf rule
    applies to it (nothing measured, or :func:`_perf_skip`)."""

    def value(report: Report, keys: Keys) -> Optional[float]:
        eps = _probe_eps(report, probe)
        return eps if eps > 0 and _perf_skip(report) is None else None

    return value


def _rate(report: Report, keys: Keys) -> Optional[float]:
    return _detection_rates(report).get(keys[0])


def _trend_skip(value) -> Skip:
    def skip(report: Report, window: List[Report], keys: Keys) -> Optional[str]:
        if len(window) < MIN_HISTORY:
            return "no prior runs in the trend window"
        if value(report, keys) is None:
            return _perf_skip(report) or "nothing measured"
        if all(value(prior, keys) is None for prior in window):
            return "no comparable prior runs"
        return None

    return skip


def _trend_bound(value, relative: bool):
    def threshold(report: Report, window: List[Report], keys: Keys) -> Bound:
        history = [v for v in (value(prior, keys) for prior in window) if v is not None]
        base = median(history)
        if relative:
            limit, margin = base * (1.0 - TREND_MAX_REGRESSION), TREND_MAX_REGRESSION
        else:
            limit, margin = base - MAX_DRIFT, MAX_DRIFT
        return Bound(limit, base, margin, len(history))

    return threshold


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
_DRILL = "detection/recovery-ladder-drill"
_RESUME = "(checkpoint resume gate)"
_SERVICE = "diverging from the serial run (service determinism gate)"

#: (name, path, default, test, threshold, skip, message) per report row.
_REPORT_ROWS = (
    ("bench {0}", "benches/*/ok", None, _holds, True, None, "bench {0} failed"),
    ("bench_e16-speedup", "benches/bench_e16_sharded.py?", None, _holds, True,
     _e16_skip, "benches ran without bench_e16_sharded.py"),
    ("sharded", "sharded?", None, _holds, True, None,
     "sharded probe block missing from the report"),
    ("shard determinism", "sharded/digests_match", None, _holds, True,
     _unless("no sharded block", "sharded"),
     "serial and sharded telemetry digests diverged (shard determinism gate)"),
    *(
        (f"{probe} {name}", f"{probe}/{name}?", None, _holds, True, None,
         f"{name} missing from the {probe} probe")
        for probe, names in (("detection", DETECTION_SCENARIOS),
                             ("diagnosis", DIAGNOSIS_SCENARIOS))
        for name in names
    ),
    *(
        (f"{probe} {{0}} {field}", f"{probe}/*/{field}", default, test, threshold,
         skip, "{0}: " + message)
        for probe, field, default, test, threshold, skip, message in (
            ("detection", "faulty", 0, operator.ne, 0, None, "no faults were injected"),
            ("detection", "detection_rate", 0.0, operator.gt, 0.0,
             _unless("no faults were injected", "detection/{0}/faulty"),
             "detection rate is zero"),
            ("detection", "false_alarms", 0, _holds, False, None,
             "false alarms on clean members"),
            ("detection", "digests_match", None, _holds, True, None,
             "serial vs sharded telemetry digests diverged"),
            ("detection", "detection_invariant", None, _holds, True, None,
             "serial vs sharded detection stats diverged"),
            ("diagnosis", "episodes_ranked", 0, operator.gt, 0, None,
             "no localization episodes recorded"),
            ("diagnosis", "localization_accuracy", 0.0, operator.gt, 0.0,
             _unless("no localization episodes", "diagnosis/{0}/episodes_ranked"),
             "localization accuracy is zero"),
            ("diagnosis", "recovered", 0, operator.gt, 0, None,
             "no completed recoveries"),
            ("diagnosis", "digests_match", None, _holds, True, None,
             "serial vs sharded telemetry digests diverged"),
            ("diagnosis", "diagnosis_invariant", None, _holds, True, None,
             "serial vs sharded diagnosis stats diverged"),
        )
    ),
    ("recovery-ladder-drill recovered", f"{_DRILL}/recovered", 0, operator.gt, 0,
     _unless("no recovery-ladder-drill cell", _DRILL),
     "recovery-ladder-drill: no completed recoveries"),
    ("recovery-ladder-drill ttr_waves", f"{_DRILL}/ttr_waves", {}, _holds, True,
     _unless("no recovery-ladder-drill cell", _DRILL),
     "recovery-ladder-drill: no per-wave time-to-recover recorded"),
    ("recovery-ladder-drill wave {0}", f"{_DRILL}/ttr_waves/*", {}, _wave_ttr,
     "count > 0, finite min/max/mean", None,
     "recovery-ladder-drill wave {0}: time-to-recover not finite"),
    ("diagnosis {0} ttr {1}", "diagnosis/*/ttr/*", {}, _mode_ttr,
     "finite and > 0 when count > 0", None, "{0}: {1} time-to-recover not finite"),
    *(
        (block, f"{block}?", None, _holds, True, None,
         f"{block} probe missing from the report")
        for block in ("fuzz", "resume", "service")
    ),
    ("fuzz crash {0}", "fuzz/crash_findings/*/detail", "?", _never, "no crashes", None,
     "fuzz probe hit a crash verdict on a grammar-sampled candidate: {measured}"),
    *(
        (f"{block} {field}", f"{block}/{field}", default, test, threshold,
         _unless(f"no {block} block", block), message)
        for block, field, default, test, threshold, message in (
            ("fuzz", "evaluated", 0, operator.gt, 0,
             "fuzz probe evaluated no candidates"),
            ("fuzz", "deterministic", None, _holds, True,
             "two identical fuzz runs produced different witnesses "
             "(fuzz determinism gate)"),
            ("resume", "interrupt_observed", None, _holds, True,
             "resume probe never observed its injected interruption "
             "(the gate proved nothing)"),
            ("resume", "shards_durable_at_interrupt", 0, operator.gt, 0,
             "resume probe checkpointed no shards before the interruption"),
            ("resume", "lost_shards", 1, operator.le, 0,
             "resume left {measured} shard(s) unexecuted " + _RESUME),
            ("resume", "telemetry_match", None, _holds, True,
             "resumed campaign telemetry digest diverged from the uninterrupted "
             "run " + _RESUME),
            ("resume", "span_match", None, _holds, True,
             "resumed campaign span digest diverged from the uninterrupted run "
             + _RESUME),
            ("service", "state", None, operator.eq, "complete",
             "service probe job did not complete (state: {measured})"),
            ("service", "stream_ordered", None, _holds, True,
             "service stream was not job-first/end-last ordered"),
            ("service", "telemetry_records", 0, operator.gt, 0,
             "service stream carried no live telemetry records"),
            ("service", "telemetry_match", None, _holds, True,
             "campaign submitted over HTTP produced a telemetry digest " + _SERVICE),
            ("service", "span_match", None, _holds, True,
             "campaign submitted over HTTP produced a span digest " + _SERVICE),
            ("service", "history_recorded", None, _holds, True,
             "service did not append the finished campaign to the run-history "
             "store"),
        )
    ),
    ("kernel", "kernel_events_per_sec", 0,
     lambda measured, baseline: round(measured) >= baseline, _kernel_baseline, None,
     "kernel throughput regressed below the seed baseline"),
    ("perf_floor", "perf_floor?", None, _holds, True,
     _unless("not a run_all report: no mode or seed_baseline", "mode", "seed_baseline"),
     "perf_floor block missing from the report"),
    *(
        (f"perf floor {probe}", f"{probe}/{metric}", 0, operator.ge, _floor(key),
         _floor_skip(probe, key),
         f"{probe} throughput {{measured:,}} {unit} is more than "
         "{threshold.margin:.0%} below the recorded floor of {threshold.base:,} "
         "(perf floor gate)")
        for probe, key, metric, unit in (
            ("fleet", "fleet_events_per_sec", "events_per_sec", "events/sec"),
            ("scenarios", "scenarios_events_per_sec", "events_per_sec", "events/sec"),
            ("fuzz", "fuzz_candidates_per_sec", "candidates_per_sec", "candidates/sec"),
        )
    ),
)

#: The rows that read the prior-run window (same columns).
_TREND_ROWS = (
    *(
        (f"trend floor {probe}", f"{probe}/events_per_sec", 0, operator.ge,
         _trend_bound(_eps(probe), True), _trend_skip(_eps(probe)),
         f"{probe} throughput {{measured:,.0f}} events/sec is more than "
         "{threshold.margin:.0%} below the {threshold.runs}-run rolling median of "
         "{threshold.base:,.0f} (trend perf floor)")
        for probe in ("fleet", "scenarios")
    ),
    ("detection drift {0}", "detection/*/detection_rate", None, operator.ge,
     _trend_bound(_rate, False), _trend_skip(_rate),
     "{0} detection rate {measured:.4f} drifted more than {threshold.margin} below "
     "the {threshold.runs}-run rolling median of {threshold.base:.4f} "
     "(detection drift)"),
)

GATES: Tuple[Gate, ...] = tuple(
    Gate(*row, trend) for rows, trend in ((_REPORT_ROWS, False), (_TREND_ROWS, True))
    for row in rows
)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------
_ABSENT = object()


def _read(report: Report, path: str, default: Any) -> List[Tuple[Keys, Any]]:
    """``(fan-out keys, value)`` for every instance of ``path``."""
    found: List[Tuple[Keys, Any]] = [((), report)]
    for part in path.rstrip("?").split("/"):
        step: List[Tuple[Keys, Any]] = []
        for keys, node in found:
            if part != "*":
                present = isinstance(node, dict) and part in node
                step.append((keys, node[part] if present else _ABSENT))
            elif isinstance(node, dict):
                step.extend((keys + (k,), v) for k, v in sorted(node.items()))
            elif isinstance(node, list):
                step.extend((keys + (str(i),), v) for i, v in enumerate(node))
        found = step
    if path.endswith("?"):
        return [(keys, value is not _ABSENT and bool(value)) for keys, value in found]
    return [(keys, default if value is _ABSENT else value) for keys, value in found]


def evaluate(report: Report, priors: List[Report]) -> List[Record]:
    """One record per gate row (per fan-out key) for ``report``.

    ``priors`` are earlier run_all reports, newest first (as
    :meth:`RunHistory.run_reports` returns them); the trend rows read
    the first :data:`TREND_WINDOW` of them."""
    window = list(priors[:TREND_WINDOW])
    records = []
    for gate in GATES:
        for keys, measured in _read(report, gate.path, gate.default):
            name = gate.name.format(*keys)
            reason = gate.skip and gate.skip(report, window, keys)
            if reason:
                records.append(Record(name, "skip", measured, None, reason, gate.trend))
                continue
            threshold = gate.threshold
            if callable(threshold):
                threshold = threshold(report, window, keys)
            status, message = "pass", ""
            if not gate.test(measured, threshold):
                status = "fail"
                message = gate.message.format(
                    *keys, measured=measured, threshold=threshold
                )
            records.append(
                Record(name, status, measured, threshold, message, gate.trend)
            )
    return records


def failures(records: List[Record]) -> List[str]:
    """The failure messages among ``records``."""
    return [record.message for record in records if record.status == "fail"]


def render(records: List[Record]) -> List[str]:
    """A summary line, then every skip and failure with its measured
    value and threshold."""
    counts = Counter(record.status for record in records)
    lines = [
        f"gates: {counts['pass']} passed, {counts['skip']} skipped, "
        f"{counts['fail']} failed"
    ]
    for record in records:
        if record.status != "pass":
            label = "skipped" if record.status == "skip" else "FAILED"
            lines.append(
                f"{label}: {record.message} ({record.gate}: measured "
                f"{record.measured!r}, threshold {record.threshold!r})"
            )
    return lines
