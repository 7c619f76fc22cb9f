"""E2 — Sect. 4.3: comparator tuning (threshold / consecutive deviations).

The paper: "small delays in system-internal communication might easily
lead to differences during a short time interval", hence per-observable
thresholds and a maximum number of consecutive deviations, trading false
errors against detection speed.

The bench sweeps ``max_consecutive`` under realistic IPC delay/jitter and
measures (a) false errors on a fault-free run and (b) detection latency
on a faulty run — the paper's trade-off frontier.
"""


from repro.products import TV, make_monitor
from repro.tv import FaultInjector, TVSet

from conftest import print_table, qscale, run_once

WORKLOAD = [
    "power", "ttx", "ch_up", "ttx", "menu", "back", "vol_up", "vol_up",
    "epg", "epg", "dual", "swap", "dual", "ttx", "ch_down", "ttx", "power",
]


def tuned_config(max_consecutive, period):
    """The TV's observables with one tolerance and sampling period."""
    config = TV.config()
    for spec in config.observables.values():
        spec.max_consecutive, spec.period = max_consecutive, period
    return config


def run_point(max_consecutive, delay=0.3, jitter=0.25, period=0.25):
    config = tuned_config(max_consecutive, period)

    # (a) fault-free run: every reported error is a false error
    tv = TVSet(seed=41)
    monitor = make_monitor(
        TV, tv, config=config, channel_delay=delay, channel_jitter=jitter
    )
    for key in WORKLOAD:
        tv.press(key)
        tv.run(4.0)
    tv.run(6.0)
    false_errors = len(monitor.errors)

    # (b) faulty run: detection latency for a mute fault
    config_b = tuned_config(max_consecutive, period)
    tv_f = TVSet(seed=41)
    monitor_f = make_monitor(
        TV, tv_f, config=config_b, channel_delay=delay, channel_jitter=jitter
    )
    FaultInjector(tv_f).inject("mute_noop")
    tv_f.press("power")
    tv_f.run(4.0)
    fault_time = tv_f.kernel.now
    tv_f.press("mute")
    tv_f.run(30.0)
    sound_errors = [e for e in monitor_f.errors if e.observable == "sound"]
    latency = sound_errors[0].time - fault_time if sound_errors else None
    return false_errors, latency


def test_e2_tolerance_tradeoff(benchmark):
    def sweep():
        rows = []
        for max_consecutive in qscale((1, 2, 3, 5, 8), (1, 3, 8)):
            false_errors, latency = run_point(max_consecutive)
            rows.append(
                [
                    max_consecutive,
                    false_errors,
                    f"{latency:.2f}" if latency is not None else "missed",
                ]
            )
        return rows

    rows = run_once(benchmark, sweep)
    print_table(
        "E2: consecutive-deviation tolerance vs false errors and latency "
        "(paper: trade-off between avoiding false errors and reporting fast)",
        ["max_consecutive", "false errors (no fault)", "detection latency"],
        rows,
    )
    # Shape: strictest setting produces false alarms; a tolerant setting
    # eliminates them; latency grows monotonically with tolerance.
    false_by_setting = [row[1] for row in rows]
    assert false_by_setting[0] > 0
    assert false_by_setting[-1] == 0
    latencies = [float(row[2]) for row in rows if row[2] != "missed"]
    assert latencies == sorted(latencies)


def test_e2_event_vs_time_comparison(benchmark):
    """Ablation: event-based vs time-based triggering (Sect. 4.3 supports
    both; event-based detects input-driven faults faster, time-based
    catches quiet divergence)."""
    from repro.awareness import AwarenessConfig

    def run_mode(trigger):
        config = AwarenessConfig()
        config.observable("screen", max_consecutive=3, trigger=trigger, period=0.5)
        config.observable("sound", max_consecutive=3, trigger=trigger, period=0.5)
        tv = TVSet(seed=42)
        monitor = make_monitor(TV, tv, config=config)
        FaultInjector(tv).inject("mute_noop")
        tv.press("power")
        tv.run(4.0)
        fault_time = tv.kernel.now
        tv.press("mute")
        tv.run(30.0)
        errors = [e for e in monitor.errors if e.observable == "sound"]
        return (errors[0].time - fault_time) if errors else None

    def sweep():
        return {trigger: run_mode(trigger) for trigger in ("event", "time", "both")}

    latencies = run_once(benchmark, sweep)
    print_table(
        "E2b: comparison trigger ablation",
        ["trigger", "detection latency"],
        [[k, f"{v:.2f}" if v else "missed"] for k, v in latencies.items()],
    )
    # The mute fault produces no further output events, so a purely
    # event-based comparator can under-sample the divergence; time-based
    # (and combined) comparison is what catches quiet divergence — the
    # reason the framework supports a comparison *frequency* (Sect. 4.3).
    assert latencies["time"] is not None
    assert latencies["both"] is not None
