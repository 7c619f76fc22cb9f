"""Tests for the benchmark gate table and shard autotuning.

``benchmarks/run_all.py`` computes its exit status from
:func:`repro.obs.gates.evaluate` over the JSON report; these tests pin
the gate rows without executing any probe: any failed bench exits
nonzero (not just the sharded probe), zeroed detection rates fail,
serial-vs-shard divergence fails, and the drill must record finite
per-wave TTR.  The table test drives every row to failure by a
one-field mutation, so no row is vacuous.
"""

import copy
import math

import pytest

from repro.campaign import (
    DistributedBackend,
    InlineExecutor,
    ProcessWorkerExecutor,
    resolve_shards,
)
from repro.obs.gates import GATES, evaluate
from repro.scenarios import ScenarioSpec


def fails_after(report, priors):
    """The failure messages ``evaluate`` gives ``report`` after ``priors``."""
    return [r.message for r in evaluate(report, priors) if r.status == "fail"]


def fails(report):
    """The failure messages ``evaluate`` gives ``report`` with no priors."""
    return fails_after(report, [])


def skipped(report):
    """gate name -> skip reason, for every skipped record."""
    return {
        record.gate: record.message
        for record in evaluate(report, []) if record.status == "skip"
    }


def passing_report():
    return {
        "kernel_events_per_sec": 1_000_000,
        "seed_baseline": {"kernel_events_per_sec": 370_000},
        "sharded": {"digests_match": True},
        "detection": {
            "player-seek-stress": {
                "faulty": 4, "detected": 2, "detection_rate": 0.5,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
            "printer-burst": {
                "faulty": 2, "detected": 2, "detection_rate": 1.0,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
            "recovery-ladder-drill": {
                "faulty": 7, "detected": 7, "detection_rate": 1.0,
                "false_alarms": 0, "recovered": 9,
                "ttr_waves": {
                    "0": {"count": 2, "min": 9.0, "max": 12.0, "mean": 10.5},
                    "1": {"count": 3, "min": 8.0, "max": 20.0, "mean": 13.0},
                },
                "digests_match": True, "detection_invariant": True,
            },
            "overnight-soak": {
                "faulty": 3, "detected": 2, "detection_rate": 0.6667,
                "false_alarms": 0, "recovered": 0, "ttr_waves": {},
                "digests_match": True, "detection_invariant": True,
            },
        },
        "diagnosis": {
            "printer-jam-drill": {
                "episodes_ranked": 3, "rank_first": 3,
                "localization_accuracy": 1.0,
                "targeted_rebinds": 3, "full_rebinds": 0,
                "recovered": 3,
                "ttr": {
                    "targeted": {"count": 3, "min": 24.0, "max": 31.0},
                    "full": {"count": 0, "min": 0.0, "max": 0.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
            "player-decoder-drill": {
                "episodes_ranked": 3, "rank_first": 3,
                "localization_accuracy": 1.0,
                "targeted_rebinds": 3, "full_rebinds": 0,
                "recovered": 3,
                "ttr": {
                    "targeted": {"count": 3, "min": 20.0, "max": 31.0},
                    "full": {"count": 0, "min": 0.0, "max": 0.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
            "recovery-ladder-drill": {
                "episodes_ranked": 10, "rank_first": 9,
                "localization_accuracy": 0.9,
                "targeted_rebinds": 9, "full_rebinds": 1,
                "recovered": 10,
                "ttr": {
                    "targeted": {"count": 9, "min": 9.0, "max": 40.0},
                    "full": {"count": 1, "min": 14.0, "max": 14.0},
                },
                "digests_match": True, "diagnosis_invariant": True,
            },
        },
        "fuzz": {
            "seed": 7, "candidates": 8, "evaluated": 8,
            "stopped_by": "candidates", "admitted": 6, "findings": 2,
            "crash_findings": [], "coverage_keys": 40,
            "candidates_per_sec": 2.5, "deterministic": True,
        },
        "resume": {
            "scenario": "recovery-ladder-drill", "seed": 7, "shards": 3,
            "killed_shard": 1, "interrupt_observed": True,
            "shards_durable_at_interrupt": 2, "lost_shards": 0,
            "telemetry_match": True, "span_match": True,
        },
        "service": {
            "scenario": "recovery-ladder-drill", "seed": 7, "segments": 4,
            "state": "complete", "telemetry_records": 4,
            "stream_ordered": True, "telemetry_match": True,
            "span_match": True, "history_recorded": True,
        },
        "benches": {
            "bench_e14_fleet.py": {"ok": True, "seconds": 1.0},
            "bench_e16_sharded.py": {"ok": True, "seconds": 2.0},
        },
    }


def test_clean_report_passes():
    assert fails(passing_report()) == []


def test_any_failed_bench_fails_not_just_the_sharded_probe():
    report = passing_report()
    report["benches"]["bench_e14_fleet.py"]["ok"] = False
    failures = fails(report)
    assert any("bench_e14_fleet.py" in failure for failure in failures)


def test_zero_detection_rate_fails():
    report = passing_report()
    report["detection"]["printer-burst"]["detected"] = 0
    report["detection"]["printer-burst"]["detection_rate"] = 0.0
    failures = fails(report)
    assert any("printer-burst" in f and "zero" in f for f in failures)


def test_serial_vs_sharded_divergence_fails():
    report = passing_report()
    report["detection"]["player-seek-stress"]["detection_invariant"] = False
    assert any("diverged" in f for f in fails(report))
    report = passing_report()
    report["detection"]["player-seek-stress"]["digests_match"] = False
    assert any("digests" in f for f in fails(report))
    report = passing_report()
    report["sharded"]["digests_match"] = False
    assert any("shard determinism" in f for f in fails(report))


def test_drill_must_record_finite_per_wave_ttr():
    report = passing_report()
    report["detection"]["recovery-ladder-drill"]["recovered"] = 0
    report["detection"]["recovery-ladder-drill"]["ttr_waves"] = {}
    failures = fails(report)
    assert any("no completed recoveries" in f for f in failures)
    assert any("no per-wave" in f for f in failures)

    report = passing_report()
    report["detection"]["recovery-ladder-drill"]["ttr_waves"]["1"]["mean"] = float("inf")
    assert any("not finite" in f for f in fails(report))


def test_false_alarms_fail_the_gate():
    report = passing_report()
    report["detection"]["player-seek-stress"]["false_alarms"] = 2
    assert any("false alarms" in f for f in fails(report))


def test_kernel_regression_fails():
    report = passing_report()
    report["kernel_events_per_sec"] = 100
    assert any("regressed" in f for f in fails(report))


# ----------------------------------------------------------------------
# the perf floor gate (PR 6)
# ----------------------------------------------------------------------
def floored_report(mode="full", cpu_count=4):
    report = passing_report()
    report["mode"] = mode
    report["sharded"]["cpu_count"] = cpu_count
    report["perf_floor"] = {
        "fleet_events_per_sec": 120_000,
        "scenarios_events_per_sec": 130_000,
        "max_regression": 0.30,
    }
    report["fleet"] = {"events_per_sec": 120_000}
    report["scenarios"] = {"events_per_sec": 130_000}
    return report


def test_perf_floor_passes_at_and_above_the_recorded_numbers():
    assert fails(floored_report()) == []
    report = floored_report()
    report["fleet"]["events_per_sec"] = 95_000  # -21%: inside the margin
    assert fails(report) == []


def test_perf_floor_fails_on_injected_2x_slowdown():
    report = floored_report()
    report["fleet"]["events_per_sec"] = 60_000  # half the recorded floor
    failures = fails(report)
    assert any("fleet" in f and "perf floor" in f for f in failures)

    report = floored_report()
    report["scenarios"]["events_per_sec"] = 65_000
    failures = fails(report)
    assert any("scenarios" in f and "perf floor" in f for f in failures)


def test_perf_floor_skipped_in_quick_mode_on_one_cpu_host():
    report = floored_report(mode="quick", cpu_count=1)
    report["fleet"]["events_per_sec"] = 60_000
    assert fails(report) == []
    # ... but quick mode on a multi-core host still enforces it,
    report = floored_report(mode="quick", cpu_count=4)
    report["fleet"]["events_per_sec"] = 60_000
    assert fails(report) != []
    # ... and a full-mode run enforces it even on one CPU.
    report = floored_report(mode="full", cpu_count=1)
    report["fleet"]["events_per_sec"] = 60_000
    assert fails(report) != []


def test_reports_without_a_recorded_floor_are_not_gated():
    assert fails(passing_report()) == []


# ----------------------------------------------------------------------
# the diagnosis gate (PR 5)
# ----------------------------------------------------------------------
def test_zero_localization_accuracy_fails():
    report = passing_report()
    cell = report["diagnosis"]["player-decoder-drill"]
    cell["rank_first"] = 0
    cell["localization_accuracy"] = 0.0
    failures = fails(report)
    assert any("player-decoder-drill" in f and "accuracy" in f for f in failures)


def test_missing_localization_episodes_fail():
    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["episodes_ranked"] = 0
    failures = fails(report)
    assert any("no localization episodes" in f for f in failures)


def test_diagnosis_divergence_fails():
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["diagnosis_invariant"] = False
    assert any(
        "diagnosis stats diverged" in f for f in fails(report)
    )
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["digests_match"] = False
    assert any("digests diverged" in f for f in fails(report))


def test_diagnosis_ttr_must_be_finite_and_positive():
    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["ttr"]["targeted"]["max"] = float("inf")
    assert any("not finite" in f for f in fails(report))

    report = passing_report()
    cell = report["diagnosis"]["recovery-ladder-drill"]
    cell["ttr"]["full"]["min"] = 0.0  # count > 0 but zero TTR: bogus
    assert any("not finite" in f for f in fails(report))


def test_diagnosis_requires_completed_recoveries():
    report = passing_report()
    report["diagnosis"]["player-decoder-drill"]["recovered"] = 0
    assert any(
        "player-decoder-drill" in f and "no completed recoveries" in f
        for f in fails(report)
    )


def test_overnight_soak_zero_detection_fails():
    report = passing_report()
    report["detection"]["overnight-soak"]["detected"] = 0
    report["detection"]["overnight-soak"]["detection_rate"] = 0.0
    failures = fails(report)
    assert any("overnight-soak" in f and "zero" in f for f in failures)


def test_dropped_probe_scenarios_fail_not_pass():
    """A drill silently missing from a probe must read as a failure —
    an empty loop over absent cells must not look like a clean gate."""
    report = passing_report()
    del report["diagnosis"]["printer-jam-drill"]
    failures = fails(report)
    assert any("printer-jam-drill" in f and "missing" in f for f in failures)

    report = passing_report()
    report["diagnosis"] = {}
    assert len([f for f in fails(report) if "missing" in f]) == 3

    report = passing_report()
    del report["detection"]["overnight-soak"]
    failures = fails(report)
    assert any("overnight-soak" in f and "missing" in f for f in failures)


# ----------------------------------------------------------------------
# the fuzz gate (PR 8)
# ----------------------------------------------------------------------
def test_missing_fuzz_probe_fails():
    report = passing_report()
    del report["fuzz"]
    assert any("fuzz probe missing" in f for f in fails(report))


def test_fuzz_nondeterminism_fails():
    report = passing_report()
    report["fuzz"]["deterministic"] = False
    assert any(
        "fuzz determinism gate" in f for f in fails(report)
    )


def test_fuzz_crash_findings_fail():
    report = passing_report()
    report["fuzz"]["crash_findings"] = [
        {"detail": "ValueError: boom", "spec_hash": "abc"},
    ]
    failures = fails(report)
    assert any("crash verdict" in f and "boom" in f for f in failures)


def test_fuzz_zero_candidates_fails():
    report = passing_report()
    report["fuzz"]["evaluated"] = 0
    assert any("no candidates" in f for f in fails(report))


def test_fuzz_throughput_joins_the_perf_floor():
    report = floored_report()
    report["perf_floor"]["fuzz_candidates_per_sec"] = 2.0
    report["fuzz"]["candidates_per_sec"] = 1.8  # -10%: inside the margin
    assert fails(report) == []
    report["fuzz"]["candidates_per_sec"] = 0.9  # -55%: below the floor
    failures = fails(report)
    assert any("fuzz" in f and "perf floor" in f for f in failures)
    # quick mode runs a smaller candidate budget than the floor was
    # recorded at, so the fuzz floor (and only it) is not applied
    report["mode"] = "quick"
    report["sharded"]["cpu_count"] = 4
    assert not any("fuzz" in f for f in fails(report))


# ----------------------------------------------------------------------
# the checkpoint/resume gate (PR 9)
# ----------------------------------------------------------------------
def test_missing_resume_probe_fails():
    report = passing_report()
    del report["resume"]
    assert any("resume probe missing" in f for f in fails(report))


def test_resume_telemetry_divergence_fails():
    report = passing_report()
    report["resume"]["telemetry_match"] = False
    failures = fails(report)
    assert any(
        "telemetry digest diverged" in f and "resume" in f.lower()
        for f in failures
    )


def test_resume_span_divergence_fails():
    report = passing_report()
    report["resume"]["span_match"] = False
    failures = fails(report)
    assert any("span digest diverged" in f for f in failures)


def test_lost_shards_fail_the_resume_gate():
    report = passing_report()
    report["resume"]["lost_shards"] = 1
    failures = fails(report)
    assert any("unexecuted" in f for f in failures)


def test_resume_probe_must_actually_interrupt():
    # A probe whose injected kill never fired (or that checkpointed
    # nothing before dying) proved nothing and must read as a failure.
    report = passing_report()
    report["resume"]["interrupt_observed"] = False
    assert any("interruption" in f for f in fails(report))
    report = passing_report()
    report["resume"]["shards_durable_at_interrupt"] = 0
    assert any("checkpointed no shards" in f for f in fails(report))


# ----------------------------------------------------------------------
# the campaign-service gate (PR 10)
# ----------------------------------------------------------------------
def test_missing_service_probe_fails():
    report = passing_report()
    del report["service"]
    assert any("service probe missing" in f for f in fails(report))


def test_service_digest_divergence_fails():
    report = passing_report()
    report["service"]["telemetry_match"] = False
    failures = fails(report)
    assert any(
        "HTTP" in f and "telemetry digest" in f for f in failures
    )
    report = passing_report()
    report["service"]["span_match"] = False
    assert any(
        "HTTP" in f and "span digest" in f for f in fails(report)
    )


def test_service_job_must_complete_with_live_telemetry():
    report = passing_report()
    report["service"]["state"] = "failed"
    assert any("did not complete" in f for f in fails(report))
    report = passing_report()
    report["service"]["telemetry_records"] = 0
    assert any(
        "no live telemetry" in f for f in fails(report)
    )
    report = passing_report()
    report["service"]["stream_ordered"] = False
    assert any("ordered" in f for f in fails(report))


def test_service_must_append_to_history():
    report = passing_report()
    report["service"]["history_recorded"] = False
    assert any(
        "run-history store" in f for f in fails(report)
    )


# ----------------------------------------------------------------------
# skipped gates are visible, not silent (PR 7)
# ----------------------------------------------------------------------
#: The gates a report's mode and CPU count can skip.
HOST_SKIPS = ("perf floor fleet", "perf floor scenarios", "bench_e16-speedup")


def test_no_gates_skipped_on_a_capable_host():
    for mode in ("full", "quick"):
        report = floored_report(mode=mode, cpu_count=4)
        assert not set(skipped(report)) & set(HOST_SKIPS)


def test_perf_floor_skip_is_reported_with_its_reason():
    report = floored_report(mode="quick", cpu_count=1)
    reasons = skipped(report)
    assert "quick mode" in reasons["perf floor fleet"]
    assert "quick mode" in reasons["perf floor scenarios"]
    # the skip records and the gate rules agree: the floor is not applied
    report["fleet"]["events_per_sec"] = 1
    assert not any("perf floor" in f for f in fails(report))


def test_bench_e16_speedup_skip_tracks_cpu_vs_shards():
    report = floored_report(cpu_count=1)
    report["sharded"]["shards"] = 2
    assert "1 CPUs" in skipped(report)["bench_e16-speedup"]
    # enough cores: the speedup gate applies, nothing skipped
    report = floored_report(cpu_count=8)
    report["sharded"]["shards"] = 4
    assert not set(skipped(report)) & set(HOST_SKIPS)


# ----------------------------------------------------------------------
# trend rows ride through the same evaluate
# ----------------------------------------------------------------------
def trended_report(fleet_eps=150_000):
    report = floored_report()
    report["fleet"]["events_per_sec"] = fleet_eps
    return report


def test_trend_rules_engage_only_with_priors():
    current = trended_report(fleet_eps=95_000)  # above the absolute floor
    assert fails(current) == []
    priors = [trended_report(fleet_eps=200_000) for _ in range(3)]
    failures = fails_after(current, priors)
    assert any("trend perf floor" in f for f in failures)


def test_detection_drift_fails_through_evaluate_report():
    current = trended_report()
    current["detection"]["recovery-ladder-drill"]["detection_rate"] = 0.5
    priors = [trended_report() for _ in range(3)]
    failures = fails_after(current, priors)
    assert any("detection drift" in f for f in failures)


# ----------------------------------------------------------------------
# the table: every row fails on its own one-field mutation
# ----------------------------------------------------------------------
def full_report():
    """A passing report as run_all writes it: mode, seed baseline and
    every recorded floor, the fuzz floor included."""
    report = floored_report()
    report["perf_floor"]["fuzz_candidates_per_sec"] = 2.0
    return report


def fast_priors():
    """A prior window faster than the recorded floor, so the trend
    rows bind before the absolute floor does."""
    prior = full_report()
    prior["fleet"]["events_per_sec"] = 150_000
    prior["scenarios"]["events_per_sec"] = 150_000
    return [prior] * 3


def _set(path, value):
    def mutate(report):
        *parents, leaf = path.split("/")
        node = report
        for key in parents:
            node = node[key]
        node[leaf] = value
    return mutate


def _del(path):
    def mutate(report):
        *parents, leaf = path.split("/")
        node = report
        for key in parents:
            node = node[key]
        del node[leaf]
    return mutate


D, G = "detection/printer-burst", "diagnosis/printer-jam-drill"
DRILL = "detection/recovery-ladder-drill"

#: row name -> (base report, mutation, priors, failing record, message part)
MUTATIONS = {
    "bench {0}": (passing_report, _set("benches/bench_e14_fleet.py/ok", False),
                  False, "bench bench_e14_fleet.py", "failed"),
    "bench_e16-speedup": (passing_report, _del("benches/bench_e16_sharded.py"),
                          False, "bench_e16-speedup", "without bench_e16"),
    "sharded": (passing_report, _del("sharded"), False, "sharded",
                "sharded probe block missing"),
    "shard determinism": (passing_report, _set("sharded/digests_match", False),
                          False, "shard determinism", "shard determinism gate"),
    **{
        f"detection {name}": (passing_report, _del(f"detection/{name}"), False,
                              f"detection {name}", "missing from the detection")
        for name in ("player-seek-stress", "printer-burst",
                     "recovery-ladder-drill", "overnight-soak")
    },
    "detection {0} faulty": (passing_report, _set(f"{D}/faulty", 0), False,
                             "detection printer-burst faulty", "no faults"),
    "detection {0} detection_rate": (
        passing_report, _set(f"{D}/detection_rate", 0.0), False,
        "detection printer-burst detection_rate", "detection rate is zero"),
    "detection {0} false_alarms": (
        passing_report, _set(f"{D}/false_alarms", 2), False,
        "detection printer-burst false_alarms", "false alarms"),
    "detection {0} digests_match": (
        passing_report, _set(f"{D}/digests_match", False), False,
        "detection printer-burst digests_match", "telemetry digests diverged"),
    "detection {0} detection_invariant": (
        passing_report, _set(f"{D}/detection_invariant", False), False,
        "detection printer-burst detection_invariant",
        "detection stats diverged"),
    "recovery-ladder-drill recovered": (
        passing_report, _set(f"{DRILL}/recovered", 0), False,
        "recovery-ladder-drill recovered", "no completed recoveries"),
    "recovery-ladder-drill ttr_waves": (
        passing_report, _set(f"{DRILL}/ttr_waves", {}), False,
        "recovery-ladder-drill ttr_waves", "no per-wave"),
    "recovery-ladder-drill wave {0}": (
        passing_report, _set(f"{DRILL}/ttr_waves/1/mean", math.inf), False,
        "recovery-ladder-drill wave 1", "not finite"),
    **{
        f"diagnosis {name}": (passing_report, _del(f"diagnosis/{name}"), False,
                              f"diagnosis {name}", "missing from the diagnosis")
        for name in ("player-decoder-drill", "printer-jam-drill",
                     "recovery-ladder-drill")
    },
    "diagnosis {0} episodes_ranked": (
        passing_report, _set(f"{G}/episodes_ranked", 0), False,
        "diagnosis printer-jam-drill episodes_ranked", "no localization"),
    "diagnosis {0} localization_accuracy": (
        passing_report, _set(f"{G}/localization_accuracy", 0.0), False,
        "diagnosis printer-jam-drill localization_accuracy", "accuracy is zero"),
    "diagnosis {0} recovered": (
        passing_report, _set(f"{G}/recovered", 0), False,
        "diagnosis printer-jam-drill recovered", "no completed recoveries"),
    "diagnosis {0} digests_match": (
        passing_report, _set(f"{G}/digests_match", False), False,
        "diagnosis printer-jam-drill digests_match", "telemetry digests diverged"),
    "diagnosis {0} diagnosis_invariant": (
        passing_report, _set(f"{G}/diagnosis_invariant", False), False,
        "diagnosis printer-jam-drill diagnosis_invariant",
        "diagnosis stats diverged"),
    "diagnosis {0} ttr {1}": (
        passing_report, _set(f"{G}/ttr/targeted/max", math.inf), False,
        "diagnosis printer-jam-drill ttr targeted", "targeted time-to-recover"),
    "fuzz": (passing_report, _del("fuzz"), False, "fuzz", "fuzz probe missing"),
    "resume": (passing_report, _del("resume"), False, "resume",
               "resume probe missing"),
    "service": (passing_report, _del("service"), False, "service",
                "service probe missing"),
    "fuzz crash {0}": (
        passing_report, _set("fuzz/crash_findings", [{"detail": "boom"}]),
        False, "fuzz crash 0", "crash verdict on a grammar-sampled candidate: boom"),
    "fuzz evaluated": (passing_report, _set("fuzz/evaluated", 0), False,
                       "fuzz evaluated", "no candidates"),
    "fuzz deterministic": (passing_report, _set("fuzz/deterministic", False),
                           False, "fuzz deterministic", "fuzz determinism gate"),
    "resume interrupt_observed": (
        passing_report, _set("resume/interrupt_observed", False), False,
        "resume interrupt_observed", "interruption"),
    "resume shards_durable_at_interrupt": (
        passing_report, _set("resume/shards_durable_at_interrupt", 0), False,
        "resume shards_durable_at_interrupt", "checkpointed no shards"),
    "resume lost_shards": (passing_report, _set("resume/lost_shards", 1), False,
                           "resume lost_shards", "1 shard(s) unexecuted"),
    "resume telemetry_match": (
        passing_report, _set("resume/telemetry_match", False), False,
        "resume telemetry_match", "telemetry digest diverged"),
    "resume span_match": (passing_report, _set("resume/span_match", False),
                          False, "resume span_match", "span digest diverged"),
    "service state": (passing_report, _set("service/state", "failed"), False,
                      "service state", "did not complete (state: failed)"),
    "service stream_ordered": (
        passing_report, _set("service/stream_ordered", False), False,
        "service stream_ordered", "ordered"),
    "service telemetry_records": (
        passing_report, _set("service/telemetry_records", 0), False,
        "service telemetry_records", "no live telemetry"),
    "service telemetry_match": (
        passing_report, _set("service/telemetry_match", False), False,
        "service telemetry_match", "HTTP produced a telemetry digest"),
    "service span_match": (passing_report, _set("service/span_match", False),
                           False, "service span_match",
                           "HTTP produced a span digest"),
    "service history_recorded": (
        passing_report, _set("service/history_recorded", False), False,
        "service history_recorded", "run-history store"),
    "kernel": (passing_report, _set("kernel_events_per_sec", 100), False,
               "kernel", "regressed below the seed baseline"),
    "perf_floor": (passing_report, _set("mode", "full"), False, "perf_floor",
                   "perf_floor block missing"),
    "perf floor fleet": (full_report, _set("fleet/events_per_sec", 60_000),
                         False, "perf floor fleet",
                         "fleet throughput 60,000 events/sec is more than 30% "
                         "below the recorded floor of 120,000 (perf floor gate)"),
    "perf floor scenarios": (
        full_report, _set("scenarios/events_per_sec", 65_000), False,
        "perf floor scenarios", "scenarios throughput 65,000"),
    "perf floor fuzz": (full_report, _set("fuzz/candidates_per_sec", 0.9),
                        False, "perf floor fuzz",
                        "fuzz throughput 0.9 candidates/sec is more than 30% "
                        "below the recorded floor of 2.0 (perf floor gate)"),
    "trend floor fleet": (full_report, _set("fleet/events_per_sec", 95_000),
                          True, "trend floor fleet",
                          "fleet throughput 95,000 events/sec is more than 30% "
                          "below the 3-run rolling median of 150,000 "
                          "(trend perf floor)"),
    "trend floor scenarios": (
        full_report, _set("scenarios/events_per_sec", 100_000), True,
        "trend floor scenarios", "scenarios throughput 100,000"),
    "detection drift {0}": (
        full_report, _set(f"{DRILL}/detection_rate", 0.5), True,
        "detection drift recovery-ladder-drill",
        "recovery-ladder-drill detection rate 0.5000 drifted more than 0.25 "
        "below the 3-run rolling median of 1.0000 (detection drift)"),
}


def test_every_row_has_a_mutation():
    assert sorted(MUTATIONS) == sorted(gate.name for gate in GATES)
    assert len({gate.name for gate in GATES}) == len(GATES)


@pytest.mark.parametrize("base", [passing_report, full_report])
def test_passing_reports_yield_only_pass_and_reasoned_skips(base):
    for priors in ([], fast_priors()):
        records = evaluate(base(), priors)
        assert {record.status for record in records} <= {"pass", "skip"}
        assert all(r.message for r in records if r.status == "skip")
        assert len({record.gate for record in records}) == len(records)


@pytest.mark.parametrize("row", sorted(MUTATIONS))
def test_each_row_fails_alone_on_its_mutation(row):
    base, mutate, with_priors, gate, message = MUTATIONS[row]
    report = base()
    mutate(report)
    priors = fast_priors() if with_priors else []
    failed = [r for r in evaluate(report, priors) if r.status == "fail"]
    assert [r.gate for r in failed] == [gate]
    assert message in failed[0].message
    assert failed[0].trend == with_priors


# ----------------------------------------------------------------------
# the three checks only CI used to apply
# ----------------------------------------------------------------------
def test_missing_sharded_block_fails():
    report = full_report()
    del report["sharded"]
    assert "sharded probe block missing from the report" in fails(report)
    report = full_report()
    report["sharded"] = {}
    assert "sharded probe block missing from the report" in fails(report)


def test_missing_perf_floor_block_fails_a_run_all_report():
    report = full_report()
    del report["perf_floor"]
    assert fails(report) == ["perf_floor block missing from the report"]
    # a hand-built report (no mode) is not held to carrying a floor
    assert "perf_floor" in skipped(passing_report())


def test_benches_without_bench_e16_fail():
    report = full_report()
    del report["benches"]["bench_e16_sharded.py"]
    assert fails(report) == ["benches ran without bench_e16_sharded.py"]
    # ... even where the speedup itself could not be asserted
    report["sharded"]["shards"] = 8
    assert fails(report) == ["benches ran without bench_e16_sharded.py"]
    # a --no-benches run records the skip instead
    report["benches"] = {}
    assert skipped(report)["bench_e16-speedup"]
    assert fails(report) == []


def test_gate_records_carry_measured_value_and_threshold():
    report = full_report()
    report["fleet"]["events_per_sec"] = 60_000
    record = next(
        r for r in evaluate(report, []) if r.gate == "perf floor fleet"
    )
    assert record.status == "fail"
    assert record.measured == 60_000
    assert record.threshold == pytest.approx(84_000)
    assert copy.deepcopy(record._asdict())["threshold"] == pytest.approx(84_000)


# ----------------------------------------------------------------------
# span forests survive sharding (PR 7: the causal-trace invariant)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["recovery-ladder-drill", "targeted-rebind-storm"]
)
def test_span_forest_digest_is_shard_invariant(name):
    from dataclasses import replace

    from repro.campaign import run_cell
    from repro.scenarios import get_scenario

    spec = replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, 7)
    sharded = run_cell(
        spec, 7,
        backend=DistributedBackend(InlineExecutor(), shards=2, parallelism=1),
    )
    assert serial.spans["completed"] > 0
    assert sharded.span_digest == serial.span_digest
    assert sharded.spans["completed"] == serial.spans["completed"]
    assert sharded.spans["digests"] == serial.spans["digests"]
    # the drills fit the reservoir, so even the sample lists agree
    assert sharded.spans["samples"] == serial.spans["samples"]
    # and the spans block is as reproducible as the telemetry digest
    again = run_cell(spec, 7)
    assert again.spans == serial.spans


# ----------------------------------------------------------------------
# shard-count autotuning (ROADMAP follow-up)
# ----------------------------------------------------------------------
def test_resolve_shards_scales_with_members_and_caps_at_cpus():
    assert resolve_shards(10, cpu_count=8) == 1    # too small to split
    assert resolve_shards(100, cpu_count=8) == 4   # 25 members per shard
    assert resolve_shards(1000, cpu_count=8) == 8  # capped by the host
    assert resolve_shards(1000, cpu_count=1) == 1  # 1-CPU container
    assert resolve_shards(0, cpu_count=4) == 1


def test_backend_autotunes_when_shards_is_none():
    backend = DistributedBackend(ProcessWorkerExecutor(), shards=None)
    assert backend.name == "distributed-process[auto]"
    spec = ScenarioSpec("auto", "d", duration=10.0, tvs=120)
    expected = resolve_shards(120)
    assert backend.resolve(spec) == expected
    with pytest.raises(ValueError, match="autotune"):
        DistributedBackend(ProcessWorkerExecutor(), shards=0)


def test_autotuned_run_matches_serial_digest():
    from repro.campaign import run_cell
    from repro.scenarios import UserProfile

    spec = ScenarioSpec(
        "auto-cell", "d", duration=20.0, tvs=6,
        profiles=(UserProfile("p", mean_gap=3.0, keys=("power", "vol_up")),),
    )
    auto = run_cell(
        spec, 5,
        backend=DistributedBackend(InlineExecutor(), shards=None, parallelism=1),
    )
    serial = run_cell(spec, 5)
    assert auto.telemetry_digest == serial.telemetry_digest
    assert auto.shards == resolve_shards(spec.members)
