"""Tests for the assembled awareness monitor and mode-consistency checking."""


from repro.awareness import (
    ModeConsistencyChecker,
    modes_equal_rule,
    ttx_sync_rule,
)
from repro.products import PLAYER, TV, make_monitor
from repro.sim import Kernel
from repro.tv import FaultInjector, MediaPlayer, MediaSource, TVSet


def drive(tv, keys, gap=4.0, settle=6.0):
    for key in keys:
        tv.press(key)
        tv.run(gap)
    tv.run(settle)


class TestTvMonitorEndToEnd:
    def test_no_false_positives_fault_free(self):
        tv = TVSet(seed=31)
        monitor = make_monitor(TV, tv)
        drive(tv, [
            "power", "vol_up", "ch_up", "ttx", "ch_down", "menu", "back",
            "mute", "mute", "dual", "swap", "dual", "epg", "epg", "power",
        ])
        assert monitor.errors == []
        assert monitor.comparator.stats.comparisons > 50

    def test_transients_occur_but_are_suppressed(self):
        tv = TVSet(seed=31)
        monitor = make_monitor(TV, tv)
        drive(tv, ["power", "ttx", "ch_up", "ttx", "menu", "power"])
        assert monitor.errors == []
        # IPC delay + model/system race: deviations happen, then clear.
        assert monitor.comparator.stats.deviations > 0

    def test_detects_mute_fault(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        FaultInjector(tv).inject("mute_noop")
        drive(tv, ["power", "mute"])
        assert any(e.observable == "sound" for e in monitor.errors)

    def test_detects_volume_overshoot(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        FaultInjector(tv).inject("volume_overshoot")
        drive(tv, ["power", "vol_up"])
        errors = [e for e in monitor.errors if e.observable == "sound"]
        assert errors and errors[0].actual == 100

    def test_detects_menu_opens_epg(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        FaultInjector(tv).inject("menu_opens_epg")
        drive(tv, ["power", "menu"])
        errors = [e for e in monitor.errors if e.observable == "screen"]
        assert errors
        assert errors[0].actual["overlay"] == "epg"

    def test_detects_stale_teletext(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        FaultInjector(tv).inject("ttx_stale_render")
        drive(tv, ["power", "ttx"], settle=10.0)
        errors = [e for e in monitor.errors if e.observable == "screen"]
        assert errors
        assert errors[0].actual["ttx_status"] == "searching"
        assert errors[0].expected["ttx_status"] == "shown"

    def test_detection_latency_recorded(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        FaultInjector(tv).inject("mute_noop")
        drive(tv, ["power", "mute"])
        report = monitor.errors[0]
        assert report.context["first_deviation_at"] <= report.time

    def test_monitor_stop_freezes_detection(self):
        tv = TVSet(seed=32)
        monitor = make_monitor(TV, tv)
        monitor.stop()
        FaultInjector(tv).inject("mute_noop")
        drive(tv, ["power", "mute"])
        assert monitor.errors == []

    def test_alert_stimulus_observed(self):
        tv = TVSet(seed=33)
        monitor = make_monitor(TV, tv)
        drive(tv, ["power"])
        tv.broadcast_alert()
        tv.run(6.0)
        assert monitor.errors == []  # spec tracks the alert too

    def test_strict_config_false_positives(self):
        """Zero tolerance (max_consecutive=1, fast sampling) turns IPC
        transients into false errors — the Sect. 4.3 trade-off."""
        tv = TVSet(seed=31)
        config = TV.config()
        for spec in config.observables.values():
            spec.max_consecutive, spec.period = 1, 0.2
        monitor = make_monitor(TV, tv, config=config, channel_delay=0.3, channel_jitter=0.2)
        drive(tv, ["power", "ttx", "ch_up", "ttx", "menu", "back", "power"])
        assert len(monitor.errors) > 0  # false alarms: no fault injected


class TestPlayerMonitor:
    def test_player_monitor_fault_free(self):
        kernel = Kernel()
        player = MediaPlayer(kernel, MediaSource(packet_count=200))
        monitor = make_monitor(PLAYER, player)
        for command, at in [("play", 1.0), ("pause", 8.0), ("play", 12.0)]:
            kernel.run(until=at)
            player.command(command)
        kernel.run(until=30.0)
        assert monitor.errors == []

    def test_player_monitor_detects_command_loss(self):
        kernel = Kernel()
        player = MediaPlayer(kernel, MediaSource(packet_count=200))
        monitor = make_monitor(PLAYER, player)
        kernel.run(until=1.0)
        player.command("play")
        kernel.run(until=5.0)
        # Fault: the pause handler is dead — state stays 'playing'.
        player._cmd_pause = lambda: None
        player.command("pause")
        kernel.run(until=15.0)
        errors = [e for e in monitor.errors if e.observable == "state"]
        assert errors
        assert errors[0].expected == "paused"
        assert errors[0].actual == "playing"


class TestModeConsistency:
    def test_ttx_sync_rule_violation_detected(self):
        tv = TVSet(seed=34)
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
        FaultInjector(tv).inject("drop_ttx_notify")
        drive(tv, ["power", "ttx", "ch_up", "ttx"], settle=10.0)
        assert len(checker.reports) == 1
        assert "expected acquiring:ch2" in checker.reports[0].actual

    def test_no_violation_without_fault(self):
        tv = TVSet(seed=34)
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
        drive(tv, ["power", "ttx", "ch_up", "ttx", "ttx", "power"])
        assert checker.reports == []
        assert checker.samples > 10

    def test_modes_equal_rule(self):
        modes = {"a": "x", "b": "x"}
        rule = modes_equal_rule("ab-equal", "a", "b")
        assert rule.check(modes) is None
        modes["b"] = "y"
        assert rule.check(modes) is not None

    def test_consecutive_tolerance_suppresses_blips(self):
        kernel = Kernel()
        modes = {"a": "same", "b": "same"}
        checker = ModeConsistencyChecker(kernel, lambda: dict(modes), interval=1.0)
        checker.add_rule(modes_equal_rule("eq", "a", "b", max_consecutive=3))
        checker.start()
        # blip for two samples, then re-sync: below tolerance
        kernel.schedule(1.5, lambda: modes.update(b="other"))
        kernel.schedule(3.5, lambda: modes.update(b="same"))
        kernel.run(until=10.0)
        assert checker.reports == []

    def test_reset_clears_reported_state(self):
        kernel = Kernel()
        modes = {"a": "x", "b": "y"}
        checker = ModeConsistencyChecker(kernel, lambda: dict(modes), interval=1.0)
        checker.add_rule(modes_equal_rule("eq", "a", "b", max_consecutive=1))
        checker.start()
        kernel.run(until=5.0)
        assert len(checker.reports) == 1
        checker.reset()
        kernel.run(until=10.0)
        assert len(checker.reports) == 2
