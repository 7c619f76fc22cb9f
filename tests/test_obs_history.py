"""Run-history store and the gate table's trend rows.

The store is append-only SQLite; the trend rows are pure over report
dicts.  The negative tests here are the PR 7 acceptance criteria: an
injected 2x slowdown and an injected detection-rate drop must both be
flagged against a healthy prior window, while a fresh store (no
history) must stay silent.
"""

import subprocess
from dataclasses import replace

from repro.campaign import run_cell
from repro.obs.history import RunHistory, current_git_rev
from repro.obs.gates import TREND_WINDOW, evaluate
from repro.obs.trend import compare_bench_runs
from repro.scenarios import get_scenario


def trend_failures(current, priors):
    """The trend rows' failure messages for ``current`` after ``priors``."""
    return [
        record.message for record in evaluate(current, priors)
        if record.trend and record.status == "fail"
    ]


def trend_perf_skip(report):
    """Why the trend perf floor skips ``report`` against a healthy
    window (None when it applies)."""
    record = next(
        r for r in evaluate(report, healthy_priors())
        if r.gate == "trend floor fleet"
    )
    return record.message if record.status == "skip" else None


def bench_report(fleet_eps=150_000, scenarios_eps=140_000, ladder_rate=1.0,
                 mode="full", cpu_count=4):
    return {
        "mode": mode,
        "kernel_events_per_sec": 1_000_000,
        "fleet": {"events_per_sec": fleet_eps},
        "scenarios": {"events_per_sec": scenarios_eps},
        "sharded": {"cpu_count": cpu_count, "shards": 2,
                    "digests_match": True},
        "detection": {
            "recovery-ladder-drill": {"detection_rate": ladder_rate},
            "printer-burst": {"detection_rate": 1.0},
        },
        "diagnosis": {
            "player-decoder-drill": {
                "localization_accuracy": 1.0,
                "ttr": {"targeted": {"count": 3, "min": 20.0, "max": 30.0}},
            },
        },
    }


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
def test_run_round_trip(tmp_path):
    path = str(tmp_path / "history.sqlite")
    with RunHistory(path) as history:
        first = history.record_run(bench_report(), label="ci-1",
                                   git_rev="abc123")
        second = history.record_run(bench_report(fleet_eps=160_000))
        assert second == first + 1
        runs = history.runs()
        assert [run["id"] for run in runs] == [second, first]
        assert runs[1]["label"] == "ci-1"
        assert runs[1]["git_rev"] == "abc123"
        assert history.run_report(first)["fleet"]["events_per_sec"] == 150_000
        # newest-first window, and before_id excludes the run itself
        reports = history.run_reports(limit=5)
        assert [r["fleet"]["events_per_sec"] for r in reports] == [
            160_000, 150_000,
        ]
        priors = history.run_reports(limit=5, before_id=second)
        assert [r["fleet"]["events_per_sec"] for r in priors] == [150_000]
        assert history.counts() == {
            "runs": 2, "campaigns": 0, "episodes": 0, "fuzz_corpus": 0,
        }
    # reopening sees the same rows (it is a file, not a session)
    with RunHistory(path) as history:
        assert history.counts()["runs"] == 2


def test_record_campaign_stores_headline_columns_and_episode_rows(tmp_path):
    spec = replace(get_scenario("player-decoder-drill"), record_spans=True)
    report = run_cell(spec, 7)
    with RunHistory(str(tmp_path / "history.sqlite")) as history:
        campaign_id = history.record_campaign(report, git_rev="abc123")
        rows = history.campaigns(scenario="player-decoder-drill")
        assert len(rows) == 1
        row = rows[0]
        assert row["id"] == campaign_id
        assert row["seed"] == 7
        assert row["telemetry_digest"] == report.telemetry_digest
        assert row["span_digest"] == report.span_digest
        assert row["detection_rate"] == report.detection_rate
        assert row["recovered"] == (
            report.telemetry_summary["recovery"]["recovered"]
        )
        # one episode row per span sample, fully attributed
        episodes = history.episodes(campaign_id)
        assert len(episodes) == len(report.spans["samples"])
        for row in episodes:
            assert row["fault"]
            assert row["ttr"] > 0
            assert row["mode"] in ("targeted", "full")
            assert row["suspect"]
            assert row["digest"]
        # the full report round-trips
        stored = history.campaign_report(campaign_id)
        assert stored["telemetry_digest"] == report.telemetry_digest
        # campaigns with no spans still record (empty span block)
        plain = run_cell(get_scenario("player-decoder-drill"), 7)
        plain_id = history.record_campaign(plain)
        assert history.episodes(plain_id) == []


def test_current_git_rev_in_this_checkout():
    rev = current_git_rev()
    assert rev is None or (len(rev) == 40 and all(
        c in "0123456789abcdef" for c in rev
    ))
    assert current_git_rev(cwd="/nonexistent-dir") is None


def test_git_rev_is_resolved_once_per_process(tmp_path, monkeypatch):
    """Five checkpointed cells start one ``git rev-parse``, not five."""
    calls = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        calls.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    current_git_rev.cache_clear()
    try:
        with RunHistory(str(tmp_path / "h.sqlite")) as history:
            rows = [
                history.begin_campaign_cell(
                    "camp", f"hash{seed}", "tv-fleet", seed, None, None, 1,
                    "{}",
                )
                for seed in range(5)
            ]
    finally:
        current_git_rev.cache_clear()
    assert calls == [["git", "rev-parse", "HEAD"]]
    assert len({row["git_rev"] for row in rows}) == 1


# ----------------------------------------------------------------------
# trend rules (the PR 7 negative tests)
# ----------------------------------------------------------------------
def healthy_priors(n=3):
    return [bench_report() for _ in range(n)]


def test_healthy_run_raises_no_trend_flags():
    assert trend_failures(bench_report(), healthy_priors()) == []


def test_injected_2x_slowdown_is_flagged():
    current = bench_report(fleet_eps=75_000)  # half the prior median
    failures = trend_failures(current, healthy_priors())
    assert any("fleet" in f and "trend perf floor" in f for f in failures)

    current = bench_report(scenarios_eps=60_000)
    failures = trend_failures(current, healthy_priors())
    assert any("scenarios" in f and "trend perf floor" in f for f in failures)


def test_injected_detection_drop_is_flagged():
    current = bench_report(ladder_rate=0.5)  # 1.0 -> 0.5 > 0.25 drift
    failures = trend_failures(current, healthy_priors())
    assert any(
        "recovery-ladder-drill" in f and "detection drift" in f
        for f in failures
    )
    # drift within the bound passes
    assert trend_failures(bench_report(ladder_rate=0.8),
                          healthy_priors()) == []


def test_no_history_means_no_flags():
    assert trend_failures(bench_report(fleet_eps=10), []) == []


def test_median_resists_one_noisy_prior():
    priors = healthy_priors(4) + [bench_report(fleet_eps=1_000_000)]
    assert trend_failures(bench_report(), priors) == []


def test_window_limits_how_far_back_the_rules_look():
    # ancient fast runs beyond the window must not fail today's run
    fast = [bench_report(fleet_eps=10_000_000)] * 5
    priors = healthy_priors(TREND_WINDOW) + fast
    assert trend_failures(bench_report(), priors) == []
    # ... though inside the window the same runs would
    assert trend_failures(bench_report(), healthy_priors(2) + fast) != []


def test_quick_mode_on_one_cpu_skips_perf_but_not_drift():
    current = bench_report(fleet_eps=10_000, ladder_rate=0.5,
                           mode="quick", cpu_count=1)
    assert trend_perf_skip(current) is not None
    failures = trend_failures(current, healthy_priors())
    assert not any("trend perf floor" in f for f in failures)
    assert any("detection drift" in f for f in failures)
    # and skipped priors are excluded from the rolling median
    priors = [bench_report(fleet_eps=10_000, mode="quick", cpu_count=1)] * 3
    assert trend_failures(bench_report(), priors) == []


def test_perf_skip_reason_rules():
    assert trend_perf_skip(bench_report()) is None
    assert trend_perf_skip(bench_report(mode="quick", cpu_count=4)) is None
    assert trend_perf_skip(bench_report(mode="full", cpu_count=1)) is None
    assert trend_perf_skip(
        bench_report(mode="quick", cpu_count=1)
    ) is not None


# ----------------------------------------------------------------------
# run comparison
# ----------------------------------------------------------------------
def test_compare_bench_runs_reports_deltas():
    old = bench_report()
    new = bench_report(fleet_eps=300_000, ladder_rate=0.9)
    lines = compare_bench_runs(old, new)
    text = "\n".join(lines)
    assert "+100.0%" in text
    assert "recovery-ladder-drill" in text
    assert "1.0000 ->  0.9000" in text
    assert "targeted 20.0-30.0s" in text
