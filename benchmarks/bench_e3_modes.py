"""E3 — Sect. 4.3: mode-consistency checking detects teletext sync loss.

Paper claim: "an approach which checks the consistency of internal modes
of components turned out to be successful to detect teletext problems due
to a loss of synchronization between components" [17].

The bench injects the synchronization fault and compares three detectors:
the mode-consistency checker, the model-based comparator, and a no-
monitoring baseline — plus the false-alarm behaviour on a healthy run.
"""


from repro.awareness import (
    ModeConsistencyChecker,
    ttx_sync_rule,
)
from repro.products import TV, make_monitor
from repro.tv import FaultInjector, TVSet

from conftest import print_table, qscale, run_once

SCENARIO = ["power", "ttx", "ttx", "ch_up", "ttx"]


def build_tv(faulty):
    tv = TVSet(seed=51)
    monitor = make_monitor(TV, tv)
    checker = ModeConsistencyChecker(
        tv.kernel,
        lambda: {
            tv.teletext.acquirer.name: tv.teletext.acquirer.mode,
            tv.teletext.renderer.name: tv.teletext.renderer.mode,
        },
        interval=1.0,
    )
    checker.add_rule(
        ttx_sync_rule(tv.teletext.acquirer.name, tv.teletext.renderer.name)
    )
    checker.start()
    if faulty:
        FaultInjector(tv).inject("drop_ttx_notify", activate_after_presses=3)
    return tv, monitor, checker


def run_experiment(faulty):
    tv, monitor, checker = build_tv(faulty)
    fault_visible_at = None
    for index, key in enumerate(SCENARIO):
        tv.press(key)
        if faulty and key == "ttx" and index == 4:
            fault_visible_at = tv.kernel.now
        tv.run(5.0)
    tv.run(qscale(15.0, 10.0))
    mode_latency = (
        checker.reports[0].time - fault_visible_at
        if checker.reports and fault_visible_at
        else None
    )
    comparator_latency = (
        monitor.errors[0].time - fault_visible_at
        if monitor.errors and fault_visible_at
        else None
    )
    return {
        "mode_reports": len(checker.reports),
        "comparator_reports": len(monitor.errors),
        "mode_latency": mode_latency,
        "comparator_latency": comparator_latency,
    }


def test_e3_mode_consistency_detection(benchmark):
    def experiment():
        return {"faulty": run_experiment(True), "healthy": run_experiment(False)}

    results = run_once(benchmark, experiment)
    faulty = results["faulty"]
    healthy = results["healthy"]
    def fmt(v):
        return f"{v:.2f}" if isinstance(v, float) else str(v)

    print_table(
        "E3: teletext sync-loss detection by mode consistency "
        "(paper: mode checking successfully detects these faults)",
        ["detector", "errors (faulty run)", "latency", "errors (healthy run)"],
        [
            ["mode-consistency", faulty["mode_reports"], fmt(faulty["mode_latency"]), healthy["mode_reports"]],
            ["model comparator", faulty["comparator_reports"], fmt(faulty["comparator_latency"]), healthy["comparator_reports"]],
        ],
    )
    assert faulty["mode_reports"] >= 1          # detected
    assert healthy["mode_reports"] == 0          # no false alarms
    assert healthy["comparator_reports"] == 0
    # mode checking sees the internal inconsistency before the user-level
    # comparator confirms the ttx status divergence
    assert faulty["mode_latency"] <= faulty["comparator_latency"]
