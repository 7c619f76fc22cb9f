"""Tests for the TV specification model, including impl-vs-spec lockstep."""

import pytest

from repro.statemachine import Event, ModelChecker
from repro.tv import (
    TVSet,
    build_tv_model,
    expected_screen,
    expected_sound,
    key_to_event_name,
)


class TestSpecModelAlone:
    def test_initial_standby(self):
        spec = build_tv_model()
        assert expected_screen(spec)["content"] == "dark"
        assert expected_sound(spec) == 0

    def test_power_on_defaults(self):
        spec = build_tv_model()
        spec.inject("power")
        screen = expected_screen(spec)
        assert screen == {
            "power": True,
            "content": "video",
            "overlay": "none",
            "channel": 1,
        }
        assert expected_sound(spec) == 30

    def test_volume_clamping(self):
        spec = build_tv_model(initial_volume=95)
        spec.inject("power")
        spec.inject("vol_up")
        spec.inject("vol_up")
        assert expected_sound(spec) == 100

    def test_volume_bar_timeout(self):
        spec = build_tv_model()
        spec.inject("power")
        spec.inject("vol_up")
        assert expected_screen(spec)["overlay"] == "volume_bar"
        spec.advance(spec.time + 2.5)
        assert expected_screen(spec)["overlay"] == "none"

    def test_ttx_searching_then_shown(self):
        spec = build_tv_model()
        spec.inject("power")
        spec.inject("ttx")
        assert expected_screen(spec)["ttx_status"] == "searching"
        spec.advance(spec.time + 2.0)
        assert expected_screen(spec)["ttx_status"] == "shown"

    def test_child_lock_shows_banner(self):
        spec = build_tv_model(locked_channels=frozenset({3}))
        spec.inject("power")
        spec.inject("lock")  # enables lock, shows banner
        spec.advance(spec.time + 3.0)
        spec.inject("digit", n=3)
        screen = expected_screen(spec)
        assert screen["channel"] == 1
        assert screen["overlay"] == "info_banner"

    def test_alert_and_ok(self):
        spec = build_tv_model()
        spec.inject("power")
        spec.inject("alert_broadcast")
        assert expected_screen(spec)["overlay"] == "alert"
        spec.inject("ok")
        assert expected_screen(spec)["overlay"] == "none"

    def test_dual_and_swap(self):
        spec = build_tv_model()
        spec.inject("power")
        spec.inject("dual")
        screen = expected_screen(spec)
        assert screen["content"] == "dual"
        assert screen["pip_channel"] == 2
        spec.inject("swap")
        screen = expected_screen(spec)
        assert screen["channel"] == 2
        assert screen["pip_channel"] == 1

    def test_key_to_event_name_digits(self):
        assert key_to_event_name("digit5") == ("digit", {"n": 5})
        assert key_to_event_name("mute") == ("mute", {})


class TestLockstepConformance:
    """The central fidelity property: with no faults injected, the
    implementation and the specification model agree on every observable
    after every key press.  This is the model-to-model validation of
    Sect. 5."""

    SCENARIOS = {
        "zapping": ["power", "ch_up", "ch_up", "digit5", "ch_down", "power"],
        "volume": ["power", "vol_up", "vol_up", "mute", "vol_down", "mute", "power"],
        "overlays": [
            "power", "menu", "back", "epg", "epg", "ttx", "menu", "menu",
            "ttx", "ttx", "power",
        ],
        "dual": ["power", "dual", "swap", "swap", "dual", "dual", "ttx", "power"],
        "features": ["power", "sleep", "sleep", "lock", "lock", "ok", "power"],
        "mixed": [
            "power", "ttx", "vol_up", "ch_up", "dual", "menu", "ch_up",
            "back", "epg", "digit9", "mute", "swap", "mute", "power",
        ],
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_lockstep_agreement(self, name):
        keys = self.SCENARIOS[name]
        tv = TVSet(seed=13)
        spec = build_tv_model(channel_count=tv.tuner.channel_count)
        time = 0.0
        for key in keys:
            time += 5.0
            tv.kernel.run(until=time)
            tv.press(key)
            event, params = key_to_event_name(key)
            spec.advance(time)
            spec.inject(event, **params)
            assert expected_screen(spec) == tv.screen_descriptor(), (
                f"screen mismatch after {key!r} in scenario {name}"
            )
            assert expected_sound(spec) == tv.sound_level(), (
                f"sound mismatch after {key!r} in scenario {name}"
            )

    def test_lockstep_with_settling_time(self):
        """Agreement also holds mid-interval once transients settle."""
        tv = TVSet(seed=13)
        spec = build_tv_model(channel_count=tv.tuner.channel_count)
        time = 0.0
        for key in ["power", "ttx", "vol_up", "ch_up"]:
            time += 5.0
            tv.kernel.run(until=time)
            tv.press(key)
            event, params = key_to_event_name(key)
            spec.advance(time)
            spec.inject(event, **params)
            # settle 3s (covers volume-bar timeout and ttx acquisition)
            tv.kernel.run(until=time + 3.0)
            spec.advance(time + 3.0)
            assert expected_screen(spec) == tv.screen_descriptor()


class TestSpecModelChecking:
    def test_spec_model_is_deterministic_and_live(self):
        spec = build_tv_model(channel_count=3)
        alphabet = [
            Event(name)
            for name in (
                "power", "ch_up", "vol_up", "mute", "ttx", "menu", "back",
                "dual", "swap", "epg", "ok",
            )
        ] + [Event("digit", {"n": 2})]
        report = ModelChecker(spec, alphabet, max_states=4000).run()
        assert report.truncated is False
        assert report.nondeterminism == []
        assert report.deadlocks == []
        assert report.violations == []

    def test_overlay_exclusion_invariant(self):
        """Dual screen and teletext are never active simultaneously —
        the Sect. 4.2 feature-interaction rule, machine-checked."""
        spec = build_tv_model(channel_count=3)
        alphabet = [
            Event(name)
            for name in ("power", "ttx", "dual", "menu", "back", "epg")
        ]

        def no_dual_ttx(machine):
            in_ttx = "ttx" in machine.configuration()
            return not (machine.get("dual") and in_ttx)

        report = ModelChecker(
            spec, alphabet, invariants=[("no-dual-ttx", no_dual_ttx)], max_states=4000
        ).run()
        assert report.truncated is False
        assert report.violations == []

    def test_full_alphabet_reaches_every_state(self):
        """All 17 chart events: the whole reachable space, with no
        deadlock, no nondeterminism and no dead state."""
        spec = build_tv_model(channel_count=3)
        names = sorted(
            {t.event for t in spec.all_transitions() if t.event} - {"digit"}
        )
        alphabet = [Event(name) for name in names] + [Event("digit", {"n": 2})]
        assert len(alphabet) == 17
        report = ModelChecker(spec, alphabet, max_states=40000).run()
        assert report.truncated is False
        assert report.states_explored == 34020
        assert report.ok()
