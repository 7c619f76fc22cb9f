"""Tests for the machine builder, model checker, and test generator."""

import pytest

from repro.statemachine import (
    Event,
    MachineBuilder,
    ModelChecker,
    TestGenerator,
)


def toggle_machine():
    b = MachineBuilder("toggle")
    b.state("off")
    b.state("on")
    b.initial("off")
    b.transition("off", "on", event="flip")
    b.transition("on", "off", event="flip")
    return b.build()


class TestBuilder:
    def test_duplicate_state_rejected(self):
        b = MachineBuilder("m")
        b.state("a")
        with pytest.raises(ValueError):
            b.state("a")

    def test_unknown_parent_rejected(self):
        b = MachineBuilder("m")
        with pytest.raises(ValueError):
            b.state("child", parent="ghost")

    def test_unknown_transition_endpoint_rejected(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        with pytest.raises(ValueError):
            b.transition("a", "ghost", event="go")

    def test_compound_without_initial_rejected(self):
        b = MachineBuilder("m")
        b.state("parent")
        b.state("child", parent="parent")
        b.initial("parent")
        with pytest.raises(ValueError):
            b.build()

    def test_build_twice_rejected(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        b.build()
        with pytest.raises(RuntimeError):
            b.build()

    def test_var_initialization(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        machine = b.var("x", 42).build()
        assert machine.get("x") == 42


class TestModelChecker:
    def test_explores_reachable_states(self):
        machine = toggle_machine()
        report = ModelChecker(machine, [Event("flip")]).run()
        assert report.states_explored == 2
        assert report.deadlocks == []
        assert report.unreached_states == []

    def test_finds_unreachable_state(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("island")
        b.initial("a")
        b.transition("a", "a", event="loop")
        machine = b.build()
        report = ModelChecker(machine, [Event("loop")]).run()
        assert any("island" in name for name in report.unreached_states)

    def test_finds_deadlock(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("trap")
        b.initial("a")
        b.transition("a", "trap", event="go")
        machine = b.build()
        report = ModelChecker(machine, [Event("go")]).run()
        assert any("trap" in d for d in report.deadlocks)

    def test_invariant_violation_reported_with_trace(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("bad")
        b.initial("a")
        b.transition("a", "bad", event="go")
        b.transition("bad", "a", event="back")
        machine = b.build()
        report = ModelChecker(
            machine,
            [Event("go"), Event("back")],
            invariants=[("never-bad", lambda m: not m.configuration().endswith("bad"))],
        ).run()
        assert len(report.violations) == 1
        assert report.violations[0].trace == ["go"]
        assert not report.ok()

    def test_detects_nondeterminism(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("b")
        b.state("c")
        b.initial("a")
        b.transition("a", "b", event="go")
        b.transition("a", "c", event="go")
        machine = b.build()
        report = ModelChecker(machine, [Event("go")]).run()
        assert report.nondeterminism

    def test_timeouts_explored_via_tick(self):
        b = MachineBuilder("m")
        b.state("a")
        b.state("timed_out")
        b.initial("a")
        b.transition("a", "timed_out", after=5.0)
        machine = b.build()
        report = ModelChecker(machine, []).run()
        assert report.states_explored == 2

    def test_machine_state_restored_after_run(self):
        machine = toggle_machine()
        machine.inject("flip")
        before = machine.configuration()
        ModelChecker(machine, [Event("flip")]).run()
        assert machine.configuration() == before

    def test_truncation_flag(self):
        b = MachineBuilder("m")
        b.state("a")
        b.initial("a")
        b.transition(
            "a",
            None,
            event="inc",
            action=lambda m, e: m.set("n", m.get("n", 0) + 1),
            internal=True,
        )
        machine = b.build()
        report = ModelChecker(machine, [Event("inc")], max_states=10).run()
        assert report.truncated


class TestTestGenerator:
    def test_covers_all_transitions(self):
        machine = toggle_machine()
        generator = TestGenerator(machine, [Event("flip")])
        scenarios = generator.generate()
        covered = set()
        for scenario in scenarios:
            covered |= scenario.covers
        assert covered == generator.coverage_keys()

    def test_replay_returns_configurations(self):
        machine = toggle_machine()
        generator = TestGenerator(machine, [Event("flip")])
        scenarios = generator.generate()
        configs = generator.replay(scenarios[0])
        assert configs[0].endswith("off")
        assert len(configs) == len(scenarios[0].events) + 1

    def test_replay_restores_machine(self):
        machine = toggle_machine()
        generator = TestGenerator(machine, [Event("flip")])
        scenarios = generator.generate()
        generator.replay(scenarios[0])
        assert machine.configuration().endswith("off")

    def test_scenarios_against_richer_model(self):
        b = MachineBuilder("m")
        b.state("off")
        b.state("on", initial="plain")
        b.state("plain", parent="on")
        b.state("menu", parent="on")
        b.initial("off")
        b.transition("off", "on", event="power")
        b.transition("on", "off", event="power")
        b.transition("plain", "menu", event="menu")
        b.transition("menu", "plain", event="back")
        machine = b.build()
        alphabet = [Event("power"), Event("menu"), Event("back")]
        scenarios = TestGenerator(machine, alphabet).generate()
        total_events = sum(len(s) for s in scenarios)
        assert total_events >= 4  # at least every edge once
