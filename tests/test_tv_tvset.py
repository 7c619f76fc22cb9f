"""Behavioural tests for the assembled TV: keys, overlays, interactions."""

import pytest

from repro.tv import TVSet


@pytest.fixture
def tv():
    tv = TVSet(seed=4)
    tv.press("power")
    tv.run(1.0)
    return tv


class TestPower:
    def test_starts_in_standby(self):
        cold = TVSet(seed=4)
        assert cold.screen_descriptor() == {
            "power": False,
            "content": "dark",
            "overlay": "none",
        }
        assert cold.sound_level() == 0

    def test_power_on(self, tv):
        descriptor = tv.screen_descriptor()
        assert descriptor["power"] is True
        assert descriptor["content"] == "video"
        assert tv.sound_level() == 30

    def test_keys_ignored_in_standby(self):
        cold = TVSet(seed=4)
        cold.press("vol_up")
        cold.press("ttx")
        assert cold.screen_descriptor()["content"] == "dark"

    def test_power_off_resets_overlays_and_dual(self, tv):
        tv.press("dual")
        tv.press("power")
        tv.press("power")  # back on
        descriptor = tv.screen_descriptor()
        assert descriptor["content"] == "video"
        assert descriptor["overlay"] == "none"


class TestChannels:
    def test_ch_up_down(self, tv):
        tv.press("ch_up")
        assert tv.screen_descriptor()["channel"] == 2
        tv.press("ch_down")
        assert tv.screen_descriptor()["channel"] == 1

    def test_wraparound(self, tv):
        tv.press("ch_down")
        assert tv.screen_descriptor()["channel"] == tv.tuner.channel_count

    def test_digit_keys(self, tv):
        tv.press("digit7")
        assert tv.screen_descriptor()["channel"] == 7
        tv.press("digit0")
        assert tv.screen_descriptor()["channel"] == 10

    def test_channel_change_blocked_in_menu(self, tv):
        tv.press("menu")
        tv.press("ch_up")
        assert tv.screen_descriptor()["channel"] == 1
        assert tv.screen_descriptor()["overlay"] == "menu"

    def test_child_lock_blocks_locked_channel(self, tv):
        tv.features.lock_channel(3)
        tv.press("lock")  # enable lock
        tv.run(3.0)       # let the info banner dismiss
        tv.press("digit3")
        descriptor = tv.screen_descriptor()
        assert descriptor["channel"] == 1
        assert descriptor["overlay"] == "info_banner"

    def test_channel_change_closes_ttx(self, tv):
        tv.press("ttx")
        tv.press("ch_up")
        assert tv.screen_descriptor()["overlay"] == "none"
        assert tv.teletext.mode == "off"


class TestVolume:
    def test_vol_up_steps_and_shows_bar(self, tv):
        tv.press("vol_up")
        assert tv.sound_level() == 35
        assert tv.screen_descriptor()["overlay"] == "volume_bar"

    def test_volume_bar_times_out(self, tv):
        tv.press("vol_up")
        tv.run(2.5)
        assert tv.screen_descriptor()["overlay"] == "none"

    def test_repeated_presses_rearm_bar(self, tv):
        tv.press("vol_up")
        tv.run(1.5)
        tv.press("vol_up")
        tv.run(1.5)  # only 1.5 since re-arm: still visible
        assert tv.screen_descriptor()["overlay"] == "volume_bar"

    def test_mute_toggle(self, tv):
        tv.press("mute")
        assert tv.sound_level() == 0
        tv.press("mute")
        assert tv.sound_level() == 30

    def test_volume_in_menu_blocked(self, tv):
        tv.press("menu")
        tv.press("vol_up")
        assert tv.sound_level() == 30

    def test_volume_in_ttx_changes_without_bar(self, tv):
        tv.press("ttx")
        tv.press("vol_up")
        assert tv.sound_level() == 35
        assert tv.screen_descriptor()["overlay"] == "ttx"


class TestOverlayInteractions:
    def test_ttx_toggle(self, tv):
        tv.press("ttx")
        assert tv.screen_descriptor()["overlay"] == "ttx"
        tv.press("ttx")
        assert tv.screen_descriptor()["overlay"] == "none"

    def test_menu_suppresses_ttx(self, tv):
        tv.press("ttx")
        tv.press("menu")
        descriptor = tv.screen_descriptor()
        assert descriptor["overlay"] == "menu"
        assert tv.teletext.mode == "off"

    def test_ttx_forces_single_screen(self, tv):
        tv.press("dual")
        assert tv.screen_descriptor()["content"] == "dual"
        tv.press("ttx")
        descriptor = tv.screen_descriptor()
        assert descriptor["content"] == "video"
        assert descriptor["overlay"] == "ttx"

    def test_epg_toggle_and_suppression(self, tv):
        tv.press("epg")
        assert tv.screen_descriptor()["overlay"] == "epg"
        tv.press("menu")
        assert tv.screen_descriptor()["overlay"] == "menu"
        tv.press("epg")  # suppressed by menu
        assert tv.screen_descriptor()["overlay"] == "menu"

    def test_back_closes_overlay(self, tv):
        tv.press("menu")
        tv.press("back")
        assert tv.screen_descriptor()["overlay"] == "none"

    def test_ttx_page_defaults_to_100(self, tv):
        tv.press("ttx")
        assert tv.screen_descriptor()["ttx_page"] == 100

    def test_ttx_status_becomes_shown(self, tv):
        tv.press("ttx")
        tv.run(3.0)
        assert tv.screen_descriptor()["ttx_status"] == "shown"


class TestDualScreen:
    def test_dual_toggle(self, tv):
        tv.press("dual")
        descriptor = tv.screen_descriptor()
        assert descriptor["content"] == "dual"
        assert descriptor["pip_channel"] == 2
        tv.press("dual")
        assert tv.screen_descriptor()["content"] == "video"

    def test_swap(self, tv):
        tv.press("dual")
        tv.press("swap")
        descriptor = tv.screen_descriptor()
        assert descriptor["channel"] == 2
        assert descriptor["pip_channel"] == 1

    def test_swap_outside_dual_is_noop(self, tv):
        tv.press("swap")
        assert tv.screen_descriptor()["channel"] == 1

    def test_dual_blocked_by_menu(self, tv):
        tv.press("menu")
        tv.press("dual")
        assert tv.screen_descriptor()["content"] == "video"


class TestAlertsAndSleep:
    def test_broadcast_alert_takes_over(self, tv):
        tv.broadcast_alert()
        assert tv.screen_descriptor()["overlay"] == "alert"

    def test_alert_blocks_ttx_and_menu(self, tv):
        tv.broadcast_alert()
        tv.press("ttx")
        tv.press("menu")
        assert tv.screen_descriptor()["overlay"] == "alert"

    def test_ok_clears_alert(self, tv):
        tv.broadcast_alert()
        tv.press("ok")
        assert tv.screen_descriptor()["overlay"] == "none"

    def test_alert_ignored_in_standby(self):
        cold = TVSet(seed=4)
        cold.broadcast_alert()
        assert cold.screen_descriptor()["content"] == "dark"

    def test_sleep_timer_powers_off(self, tv):
        tv.press("sleep")  # 15 minutes
        tv.run(15 * tv.features.time_per_minute + 5)
        assert tv.screen_descriptor()["power"] is False

    def test_sleep_key_shows_banner(self, tv):
        tv.press("sleep")
        assert tv.screen_descriptor()["overlay"] == "info_banner"


class TestOutputs:
    def test_output_events_deduplicated(self, tv):
        count = len(tv.output_events)
        tv.publish_outputs()
        tv.publish_outputs()
        assert len(tv.output_events) == count

    def test_output_topic_receives_changes(self, tv):
        seen = []
        tv.bus.subscribe("suo.tv.output", lambda _topic, event: seen.append(event))
        tv.press("mute")
        assert any(e.name == "sound" and e.value == 0 for e in seen)
