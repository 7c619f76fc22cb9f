"""Tests for state machine semantics: hierarchy, RTC, timers, snapshots."""

import copy

import pytest

from repro.statemachine import MachineBuilder, MachineError


def simple_tv():
    b = MachineBuilder("tv")
    b.state("off", on_entry=lambda m: m.emit("screen", "dark"))
    b.state("on", initial="viewing", on_entry=lambda m: m.emit("screen", "video"))
    b.state("viewing", parent="on")
    b.state("menu", parent="on", on_entry=lambda m: m.emit("screen", "menu"))
    b.initial("off")
    b.transition("off", "on", event="power")
    b.transition("on", "off", event="power")
    b.transition("viewing", "menu", event="menu")
    b.transition("menu", "viewing", event="back")
    b.transition("menu", "viewing", after=5.0)
    return b.build()


class TestBasicDispatch:
    def test_initial_configuration(self):
        machine = simple_tv()
        assert machine.configuration().endswith("off")

    def test_initial_entry_actions_fire(self):
        machine = simple_tv()
        assert machine.outputs[0].value == "dark"

    def test_event_moves_to_target(self):
        machine = simple_tv()
        assert machine.inject("power") is True
        assert machine.configuration() == "tv_root.on.viewing"

    def test_unknown_event_ignored(self):
        machine = simple_tv()
        assert machine.inject("nonsense") is False
        assert machine.configuration().endswith("off")

    def test_compound_state_descends_to_initial(self):
        machine = simple_tv()
        machine.inject("power")
        assert machine.configuration().endswith("viewing")

    def test_transition_on_ancestor_fires_from_nested_leaf(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        # "power" is declared on the compound "on"; active leaf is menu.
        machine.inject("power")
        assert machine.configuration().endswith("off")

    def test_events_in_past_rejected(self):
        machine = simple_tv()
        machine.advance(10.0)
        with pytest.raises(MachineError):
            machine.inject("power", time=5.0)


class TestTimers:
    def test_timeout_fires_after_delay(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.advance(machine.time + 4.9)
        assert machine.configuration().endswith("menu")
        machine.advance(machine.time + 0.2)
        assert machine.configuration().endswith("viewing")

    def test_timer_disarmed_on_exit(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.inject("back")  # leave menu before timeout
        fired = machine.advance(machine.time + 10.0)
        assert fired == 0

    def test_timer_rearmed_on_reentry(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        machine.advance(machine.time + 3.0)
        machine.inject("back")
        machine.inject("menu")  # re-enter: timer restarts from now
        machine.advance(machine.time + 3.0)
        assert machine.configuration().endswith("menu")
        machine.advance(machine.time + 2.5)
        assert machine.configuration().endswith("viewing")

    def test_next_timeout_reported(self):
        machine = simple_tv()
        machine.inject("power")
        assert machine.next_timeout() is None
        machine.inject("menu")
        assert machine.next_timeout() == pytest.approx(machine.time + 5.0)

    def test_advance_backwards_rejected(self):
        machine = simple_tv()
        machine.advance(5.0)
        with pytest.raises(MachineError):
            machine.advance(1.0)


class TestGuardsAndActions:
    def test_guard_blocks_transition(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", event="go", guard=lambda m, e: m.get("armed"))
        machine = b.var("armed", False).build()
        machine.inject("go")
        assert machine.configuration().endswith("a")
        machine.set("armed", True)
        machine.inject("go")
        assert machine.configuration().endswith("b")

    def test_action_receives_event_params(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        b.transition(
            "a",
            None,
            event="set",
            action=lambda m, e: m.set("value", e.param("value")),
            internal=True,
        )
        machine = b.build()
        machine.inject("set", value=7)
        assert machine.get("value") == 7

    def test_internal_transition_keeps_state_and_timers(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", after=10.0)
        b.transition("a", None, event="poke", action=lambda m, e: None, internal=True)
        machine = b.build()
        machine.advance(6.0)
        machine.inject("poke")  # must NOT re-arm the 10s timer
        machine.advance(10.5)
        assert machine.configuration().endswith("b")

    def test_completion_transition_chains(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go")
        b.transition("b", "c", guard=lambda m, e: True)  # completion
        machine = b.build()
        machine.inject("go")
        assert machine.configuration().endswith("c")

    def test_completion_livelock_detected(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.initial("a")
        b.transition("a", "b", guard=lambda m, e: True)
        b.transition("b", "a", guard=lambda m, e: True)
        with pytest.raises(MachineError):
            b.build()  # initialize() runs completions

    def test_raise_event_processed_after_step(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go", action=lambda m, e: m.raise_event("chain"))
        b.transition("b", "c", event="chain")
        machine = b.build()
        machine.inject("go")
        assert machine.configuration().endswith("c")


class TestNondeterminism:
    def build_ambiguous(self, strict=False):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go")
        b.transition("a", "c", event="go")
        machine = b.build()
        machine.strict = strict
        return machine

    def test_nondeterminism_logged(self):
        machine = self.build_ambiguous()
        machine.inject("go")
        assert len(machine.nondeterminism_log) == 1
        state, event, names = machine.nondeterminism_log[0]
        assert event == "go"
        assert len(names) == 2

    def test_first_declared_wins_by_default(self):
        machine = self.build_ambiguous()
        machine.inject("go")
        assert machine.configuration().endswith("b")

    def test_strict_mode_raises(self):
        machine = self.build_ambiguous(strict=True)
        with pytest.raises(MachineError):
            machine.inject("go")


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        snapshot = machine.snapshot()
        machine.inject("back")
        machine.restore(snapshot)
        assert machine.configuration().endswith("menu")

    def test_restored_timers_still_fire(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("menu")
        snapshot = machine.snapshot()
        machine.inject("back")
        machine.restore(snapshot)
        machine.advance(machine.time + 5.5)
        assert machine.configuration().endswith("viewing")

    def test_mutable_var_rejected(self):
        """A snapshot shares var values instead of deep-copying them, so
        a mutable value would leak later edits into it."""
        machine = simple_tv()
        machine.set("nested", {"a": 1})
        with pytest.raises(MachineError):
            machine.snapshot()

    def test_snapshot_from_another_chart_rejected(self):
        machine = simple_tv()
        clone = copy.deepcopy(machine)
        with pytest.raises(MachineError):
            clone.restore(machine.snapshot())


class TestOutputs:
    def test_emit_notifies_listeners(self):
        machine = simple_tv()
        seen = []
        machine.on_output(seen.append)
        machine.inject("power")
        assert [o.value for o in seen] == ["video"]

    def test_outputs_carry_time(self):
        machine = simple_tv()
        machine.advance(3.0)
        machine.inject("power")
        assert machine.outputs[-1].time == 3.0


class TestDeepCopy:
    def test_deep_copied_tv_model_keeps_its_transitions(self):
        """A deep copy re-creates every State; transitions keyed by the
        states themselves follow the copy instead of being stranded under
        the original objects' ids."""
        from repro.tv import build_tv_model, key_to_event_name

        original = build_tv_model()
        clone = copy.deepcopy(original)
        assert len(clone.transitions_from(clone.active)) == len(
            original.transitions_from(original.active)
        ) > 0
        keys = ["power", "vol_up", "menu", "back", "ttx", "ch_up", "mute",
                "dual", "epg", "power"]
        for index, key in enumerate(keys):
            name, params = key_to_event_name(key)
            for machine in (original, clone):
                machine.advance(2.0 * (index + 1))
                machine.inject(name, **params)
            assert clone.configuration() == original.configuration()
        assert clone.vars == original.vars
        assert clone.outputs == original.outputs


class TestSharedChart:
    """Spec models of one product line run on one chart; each machine
    keeps its own run state."""

    def test_tv_models_share_one_chart(self):
        from repro.tv import build_tv_model

        first, second = build_tv_model(), build_tv_model()
        assert first is not second
        assert first.root is second.root
        transitions = first.all_transitions()
        assert len(transitions) == len(second.all_transitions()) > 0
        assert all(
            a is b for a, b in zip(transitions, second.all_transitions())
        )

    def test_driving_one_model_leaves_the_other_untouched(self):
        from repro.tv import build_tv_model
        from repro.tv.control_model import VOLUME_BAR_TIMEOUT

        driven, idle = build_tv_model(), build_tv_model()
        before = (
            idle.configuration(), dict(idle.vars), list(idle._timers),
            list(idle.outputs), dict(idle.fire_counts),
        )
        driven.inject("power", time=1.0)
        driven.inject("vol_up", time=2.0)
        assert driven.configuration() == "tv_spec_root.on.volbar"
        assert driven.next_timeout() == 2.0 + VOLUME_BAR_TIMEOUT
        driven.advance(2.0 + VOLUME_BAR_TIMEOUT + 0.5)
        assert driven.configuration() == "tv_spec_root.on.viewing"
        assert driven.get("volume") == 35
        assert sum(driven.fire_counts.values()) == 3
        after = (
            idle.configuration(), dict(idle.vars), list(idle._timers),
            list(idle.outputs), dict(idle.fire_counts),
        )
        assert after == before
        assert idle.time == 0.0

    def test_arguments_only_set_vars(self):
        from repro.tv import build_tv_model

        default, small = build_tv_model(), build_tv_model(channel_count=3)
        assert small.root is default.root
        assert small.configuration() == default.configuration()
        differing = {
            key for key in default.vars if default.vars[key] != small.vars[key]
        }
        assert differing == {"channel_count"}
        assert small.get("channel_count") == 3

    def test_spawn_initializes_a_fresh_run(self):
        template = simple_tv()
        template.inject("power")
        fresh = template.spawn({"mode": "demo"})
        assert fresh.root is template.root
        assert fresh.configuration() == "tv_root.off"
        assert [o.value for o in fresh.outputs] == ["dark"]
        assert fresh.vars == {"mode": "demo"}
        assert fresh.fire_counts == {}
        assert fresh.inject("power") is True
        assert template.configuration() == "tv_root.on.viewing"

    def test_fire_counts_are_per_machine(self):
        machine = simple_tv()
        machine.inject("power")
        machine.inject("power")
        [(transition, count)] = [
            (t, c) for t, c in machine.fire_counts.items()
            if t.source.name == "off"
        ]
        assert transition.event == "power" and count == 1
        assert sum(machine.fire_counts.values()) == 2

    def test_transitions_are_immutable(self):
        from dataclasses import FrozenInstanceError

        from repro.tv import build_tv_model

        transition = build_tv_model().all_transitions()[0]
        with pytest.raises(FrozenInstanceError):
            transition.action = None
