"""End-to-end integration: the complete Fig. 1 loop on the simulated TV.

These tests exercise every package together: fault injection → awareness
monitor (Fig. 2) + mode checker detect → policy decides → recovery manager
repairs → loop verifies — the paper's model-to-model validation (Sect. 5)
plus actual recovery.
"""


from repro.awareness import (
    ModeConsistencyChecker,
    ttx_sync_rule,
)
from repro.core import AwarenessLoop, LadderStep, MonitorHierarchy, RecoveryPolicy
from repro.products import TV, make_monitor
from repro.recovery import RecoveryManager
from repro.tv import FaultInjector, TVSet


def build_stack(seed=21, settle=8.0):
    """TV + monitor + mode checker + loop, with a teletext repair ladder."""
    tv = TVSet(seed=seed)
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
    manager = RecoveryManager(tv.kernel)
    manager.register_repair(
        "ttx_resync", lambda: injector.clear("drop_ttx_notify")
    )
    manager.register_repair(
        "render_fix", lambda: injector.clear("ttx_stale_render")
    )
    policy = RecoveryPolicy()
    policy.add_ladder("ttx-*", [LadderStep("repair", "ttx_resync", 0.0)])
    policy.add_ladder("screen", [
        LadderStep("repair", "render_fix", 0.0),
        LadderStep("repair", "ttx_resync", 0.0),
    ])
    policy.add_ladder("sound", [LadderStep("repair", "ttx_resync", 0.0)])

    loop = AwarenessLoop(tv.kernel, policy, manager, settle_time=settle)
    loop.attach(monitor.controller)
    loop.attach(checker)
    loop.post_recovery_hooks.append(
        lambda incident: (monitor.comparator.reset(), checker.reset())
    )
    return tv, monitor, checker, injector, loop


def drive(tv, keys, gap=5.0):
    for key in keys:
        tv.press(key)
        tv.run(gap)


class TestClosedLoop:
    def test_sync_loss_detected_and_repaired(self):
        tv, monitor, checker, injector, loop = build_stack()
        injector.inject("drop_ttx_notify", activate_after_presses=3)
        drive(tv, ["power", "ttx", "ttx", "ch_up", "ttx"])
        tv.run(30.0)
        assert loop.incidents, "nothing detected"
        assert loop.recovered_count() == len(loop.incidents)
        # user-visible effect repaired: teletext shows pages again
        assert tv.screen_descriptor()["ttx_status"] == "shown"

    def test_detection_before_recovery_ordering(self):
        tv, monitor, checker, injector, loop = build_stack()
        injector.inject("drop_ttx_notify", activate_after_presses=3)
        drive(tv, ["power", "ttx", "ttx", "ch_up", "ttx"])
        tv.run(30.0)
        for incident in loop.incidents:
            assert incident.action is not None
            assert incident.verified_at > incident.report.time

    def test_stale_render_repaired_via_escalation(self):
        tv, monitor, checker, injector, loop = build_stack()
        injector.inject("ttx_stale_render", activate_after_presses=2)
        drive(tv, ["power", "ttx"])
        tv.run(40.0)
        screen_incidents = [
            i for i in loop.incidents if i.report.observable == "screen"
        ]
        assert screen_incidents
        assert tv.screen_descriptor()["ttx_status"] == "shown"

    def test_no_faults_no_actions(self):
        tv, monitor, checker, injector, loop = build_stack()
        drive(tv, ["power", "ttx", "ch_up", "ttx", "menu", "back", "power"])
        tv.run(20.0)
        assert loop.incidents == []

    def test_loop_summary_detection_latency(self):
        tv, monitor, checker, injector, loop = build_stack()
        injector.inject("ttx_stale_render", activate_after_presses=2)
        drive(tv, ["power", "ttx"])
        tv.run(40.0)
        summary = loop.summary()
        assert summary.detection_latency is not None
        assert summary.detection_latency >= 0.0


class TestHierarchicalMonitors:
    def test_scoped_view_of_one_incident(self):
        tv, monitor, checker, injector, loop = build_stack()
        hierarchy = MonitorHierarchy("tv")
        hierarchy.add_scope("user-observables", monitor.controller)
        hierarchy.add_scope("mode-consistency", checker)
        injector.inject("drop_ttx_notify", activate_after_presses=3)
        drive(tv, ["power", "ttx", "ttx", "ch_up", "ttx"])
        tv.run(30.0)
        summary = hierarchy.scope_summary()
        assert sum(summary.values()) == len(hierarchy.errors)
        assert summary["mode-consistency"] >= 1

    def test_partial_recovery_keeps_other_features_alive(self):
        """While teletext recovery is pending, volume keys still work —
        the independence property partial recovery buys (Sect. 4.5)."""
        tv, monitor, checker, injector, loop = build_stack(settle=5.0)
        injector.inject("drop_ttx_notify", activate_after_presses=3)
        drive(tv, ["power", "ttx", "ttx", "ch_up", "ttx"])
        tv.press("vol_up")
        assert tv.sound_level() == 35
        tv.run(20.0)
        tv.press("vol_up")
        assert tv.sound_level() == 40
