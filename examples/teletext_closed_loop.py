"""The paper's flagship scenario: teletext sync loss, closed loop.

A channel-change notification is lost between the TV's control logic and
the teletext acquirer (the fault of Sect. 4.3, [17]).  The user sees an
endless 'searching' page; the system itself is unaware.

This example wires the *complete* Fig. 1 loop:

* the Fig. 2 awareness monitor watches the user observables;
* a mode-consistency checker watches the internal component modes;
* spectrum-based diagnosis localizes the fault in the 60 000-block build;
* a recovery policy repairs the synchronization, verified by the loop.

Run:  python examples/teletext_closed_loop.py
"""

from repro.awareness import ModeConsistencyChecker, ttx_sync_rule
from repro.products import TV, make_monitor
from repro.core import AwarenessLoop, LadderStep, RecoveryPolicy
from repro.diagnosis import (
    TELETEXT_SCENARIO_27,
    ScenarioRunner,
    SpectrumDiagnoser,
    evaluate_ranking,
)
from repro.recovery import RecoveryManager
from repro.tv import FaultInjector, TVSet


def closed_loop_demo() -> None:
    print("== closed-loop recovery ==")
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

    manager = RecoveryManager(tv.kernel)
    manager.register_repair("ttx_resync", lambda: injector.clear("drop_ttx_notify"))
    policy = RecoveryPolicy()
    for observable in ("ttx-*", "screen", "sound"):
        policy.add_ladder(observable, [LadderStep("repair", "ttx_resync", 0.0)])
    loop = AwarenessLoop(tv.kernel, policy, manager, settle_time=8.0)
    loop.attach(monitor.controller)
    loop.attach(checker)
    loop.post_recovery_hooks.append(
        lambda incident: (monitor.comparator.reset(), checker.reset())
    )

    for key in ["power", "ttx", "ttx", "ch_up", "ttx"]:
        tv.press(key)
        tv.run(5.0)
        descriptor = tv.screen_descriptor()
        print(f"  t={tv.kernel.now:6.1f}  pressed {key:6s} -> "
              f"overlay={descriptor['overlay']:4s} ttx={descriptor.get('ttx_status', '-')}")
    tv.run(30.0)

    for incident in loop.incidents:
        print(
            f"  incident: {incident.report.detector} flagged "
            f"{incident.report.observable!r} at t={incident.report.time:.1f}; "
            f"action={incident.action.kind}->{incident.action.target}; "
            f"recovered={incident.recovered}"
        )
    print(f"  final teletext status: {tv.screen_descriptor().get('ttx_status')}")


def diagnosis_demo() -> None:
    print("\n== spectrum-based diagnosis (Sect. 4.4) ==")
    tv = TVSet(seed=11)
    FaultInjector(tv).inject("ttx_stale_render", activate_after_presses=10)
    runner = ScenarioRunner(tv)
    result = runner.run(TELETEXT_SCENARIO_27)
    print(f"  scenario: {len(result.keys)} key presses, "
          f"{result.error_steps} flagged erroneous")
    print(f"  blocks: {result.executed_blocks} of {result.total_blocks} executed "
          f"(paper: 13 796 of 60 000)")
    ranking = SpectrumDiagnoser("ochiai").ranking(result.collector)
    quality = evaluate_ranking(ranking, runner.build.fault_blocks("ttx_stale_render"))
    print(f"  faulty block rank: {quality.best_rank} (paper: 1); "
          f"wasted effort: {quality.wasted_effort:.4f}")


if __name__ == "__main__":
    closed_loop_demo()
    diagnosis_demo()
