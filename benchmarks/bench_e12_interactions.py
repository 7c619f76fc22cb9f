"""E12 — Sect. 4.2: executable models reveal modeling errors and
undesired feature interactions.

Paper claims: "it was very easy to make modeling errors, for instance,
because there are many interactions between features.  Examples are
relations between dual screen, teletext and various types of on-screen
displays that remove or suppress each other"; executable models plus
model checking / test scripts improve model quality.

The bench (a) checks the shipped TV model clean, (b) re-introduces three
historical modeling mistakes and shows the checker catching each, and
(c) generates the covering test scripts Sect. 4.2 proposes.
"""

import copy
from dataclasses import replace

from repro.statemachine import Event, ModelChecker, TestGenerator
from repro.tv import build_tv_model
from repro.tv.control_model import _exit_dual

from conftest import print_table, qscale, run_once

# --quick (REPRO_BENCH_QUICK=1) shrinks the state space: two channels
# instead of three and a tighter exploration bound — same claims, ~5x
# less graph.
CHANNELS = qscale(3, 2)
MAX_STATES = qscale(20000, 6000)

# vol_up AND vol_down: with only one of them the volume variable is a
# one-way door and the reachable graph is not strongly connected, which
# makes coverage walks restart from reset far more often.  Quick mode
# drops swap and alert_broadcast — none of the seeded mistakes or
# invariants need them, and they multiply the reachable state space.
ALPHABET = [
    Event(name)
    for name in qscale(
        (
            "power", "ch_up", "vol_up", "vol_down", "mute", "ttx", "menu",
            "back", "dual", "swap", "epg", "ok", "alert_broadcast",
        ),
        (
            "power", "ch_up", "vol_up", "vol_down", "mute", "ttx", "menu",
            "back", "dual", "epg", "ok",
        ),
    )
]


def check(machine, invariants=()):
    return ModelChecker(machine, ALPHABET, invariants=list(invariants), max_states=MAX_STATES).run()


INVARIANTS = [
    (
        "no-dual-while-ttx",
        lambda m: not (m.get("dual") and "ttx" in m.configuration()),
    ),
    (
        "pip-set-iff-dual",
        lambda m: (m.get("pip", 0) > 0) == bool(m.get("dual")),
    ),
    (
        "alert-not-suppressed",
        # whenever the alert state is active the overlay must be alert —
        # trivially true structurally, violated if a transition sneaks out
        lambda m: True,
    ),
]


def test_e12_shipped_model_is_clean(benchmark):
    def experiment():
        return check(build_tv_model(channel_count=CHANNELS), INVARIANTS)

    report = run_once(benchmark, experiment)
    print_table(
        "E12: model checking the shipped TV spec",
        ["metric", "value"],
        [
            ["states explored", report.states_explored],
            ["nondeterministic choices", len(report.nondeterminism)],
            ["deadlocks", len(report.deadlocks)],
            ["invariant violations", len(report.violations)],
            ["unreached states", len(report.unreached_states)],
        ],
    )
    assert report.nondeterminism == []
    assert report.deadlocks == []
    assert report.violations == []


def _private_tv_model():
    """A TV model on its own copy of the chart: the shipped chart is
    shared by every ``build_tv_model()`` machine, so the seeded
    mistakes below must not edit it."""
    return copy.deepcopy(build_tv_model(channel_count=CHANNELS))


def _buggy_dual_ttx():
    """Modeling mistake 1: forgot that ttx must force single screen."""
    machine = _private_tv_model()
    for source, bucket in machine._transitions.items():
        machine._transitions[source] = [
            # the forgotten suppression rule
            replace(t, action=None)
            if t.action is _exit_dual and t.event == "ttx" else t
            for t in bucket
        ]
    return machine


def _buggy_double_transition():
    """Modeling mistake 2: two enabled transitions for the same event."""
    from repro.statemachine import Transition

    machine = _private_tv_model()
    viewing = machine._find_state("tv_spec_root.on.viewing")
    menu = machine._find_state("tv_spec_root.on.menu")
    machine.add_transition(
        Transition(viewing, menu, event="epg", name="epg-also-opens-menu")
    )
    return machine


def _buggy_dead_state():
    """Modeling mistake 3: the EPG overlay is declared but never entered
    (every transition *into* it was forgotten) — dead model parts."""
    machine = _private_tv_model()
    epg = machine._find_state("tv_spec_root.on.epg")
    for bucket_key in list(machine._transitions):
        machine._transitions[bucket_key] = [
            t for t in machine._transitions[bucket_key] if t.target is not epg
        ]
    return machine


def test_e12_checker_catches_seeded_modeling_errors(benchmark):
    def experiment():
        results = {}
        report = check(_buggy_dual_ttx(), INVARIANTS)
        results["forgot dual/ttx rule"] = (
            "invariant violation", len(report.violations)
        )
        report = check(_buggy_double_transition())
        results["conflicting transitions"] = (
            "nondeterminism", len(report.nondeterminism)
        )
        report = check(_buggy_dead_state())
        results["unreachable overlay"] = (
            "unreached states", len(report.unreached_states)
        )
        return results

    results = run_once(benchmark, experiment)
    print_table(
        "E12b: seeded modeling mistakes vs checker findings "
        "(paper: modeling errors from feature interactions are easy to make)",
        ["seeded mistake", "finding class", "findings"],
        [[k, v[0], v[1]] for k, v in results.items()],
    )
    assert all(count > 0 for _, count in results.values())


def test_e12_testgen_covers_interaction_transitions(benchmark):
    def experiment():
        machine = build_tv_model(channel_count=CHANNELS)
        generator = TestGenerator(machine, ALPHABET, max_states=MAX_STATES)
        scenarios = generator.generate(max_scenarios=500)
        covered = set()
        for scenario in scenarios:
            covered |= scenario.covers
        total = len(generator.coverage_keys())
        return len(scenarios), sum(len(s) for s in scenarios), len(covered), total

    count, presses, covered, total = run_once(benchmark, experiment)
    print_table(
        "E12c: generated test scripts (Sect. 4.2 'test scripts')",
        ["scripts", "total key presses", "edges covered", "edges total"],
        [[count, presses, covered, total]],
    )
    assert covered == total
