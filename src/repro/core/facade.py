"""One-call assembly of the full Trader stack (Sect. 5 'integration').

The paper's stated future work is "the optimal integration of various
techniques for observation, error detection, diagnosis, and recovery".
:class:`TraderTV` is that integration for the TV domain: one object that
builds the SUO, the Fig. 2 monitor, the mode-consistency checker, the
recovery machinery, and the Fig. 1 loop — pre-wired with the repair
ladders for the known fault classes and with comparator/checker resets
after recovery.

Use it when you want the whole closed loop in two lines::

    system = TraderTV(seed=7)
    system.inject("drop_ttx_notify", activate_after_presses=3)
    system.press_sequence(["power", "ttx", "ttx", "ch_up", "ttx"])
    system.run(30.0)
    assert system.loop.recovered_count() == len(system.loop.incidents)
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..awareness.config import AwarenessConfig
from ..awareness.modes import ModeConsistencyChecker, ttx_sync_rule
from ..awareness.monitor import AwarenessMonitor
from ..products import TV, make_monitor
from ..recovery.recoverymgr import RecoveryManager
from ..tv.faults import FaultInjector
from ..tv.tvset import TVSet
from .hierarchy import MonitorHierarchy
from .loop import AwarenessLoop
from .policy import LadderStep, RecoveryPolicy


class TraderTV:
    """The integrated system: TV + monitors + diagnosis hooks + recovery."""

    def __init__(
        self,
        seed: int = 0,
        config: Optional[AwarenessConfig] = None,
        settle_time: float = 8.0,
        mode_check_interval: float = 1.0,
    ) -> None:
        self.tv = TVSet(seed=seed)
        self.kernel = self.tv.kernel
        self.injector = FaultInjector(self.tv)

        # observation + error detection --------------------------------
        self.monitor: AwarenessMonitor = make_monitor(TV, self.tv, config=config)
        self.mode_checker = ModeConsistencyChecker(
            self.kernel,
            lambda: {
                self.tv.teletext.acquirer.name: self.tv.teletext.acquirer.mode,
                self.tv.teletext.renderer.name: self.tv.teletext.renderer.mode,
            },
            interval=mode_check_interval,
        )
        self.mode_checker.add_rule(
            ttx_sync_rule(
                self.tv.teletext.acquirer.name, self.tv.teletext.renderer.name
            )
        )
        self.mode_checker.start()

        # diagnosis --------------------------------------------------------
        from ..diagnosis.online import OnlineDiagnoser

        self.diagnoser = OnlineDiagnoser(self.tv, monitor=self.monitor)

        # recovery -------------------------------------------------------
        self.recovery = RecoveryManager(self.kernel)
        self._register_repairs()
        self.policy = RecoveryPolicy()
        self._build_ladders()

        # the loop ---------------------------------------------------------
        self.loop = AwarenessLoop(
            self.kernel,
            self.policy,
            self.recovery,
            diagnoser=self.diagnoser.diagnose,
            settle_time=settle_time,
        )
        self.loop.attach(self.monitor.controller)
        self.loop.attach(self.mode_checker)
        self.loop.post_recovery_hooks.append(self._post_recovery)

        # the hierarchical view (several monitors, Sect. 3) ---------------
        self.hierarchy = MonitorHierarchy("tv")
        self.hierarchy.add_scope("user-observables", self.monitor.controller)
        self.hierarchy.add_scope("mode-consistency", self.mode_checker)

    # ------------------------------------------------------------------
    def _register_repairs(self) -> None:
        """Repairs for every fault class the injector knows."""
        for fault in (
            "drop_ttx_notify",
            "ttx_stale_render",
            "volume_overshoot",
            "mute_noop",
            "menu_opens_epg",
        ):
            self.recovery.register_repair(
                f"clear:{fault}",
                lambda fault=fault: self.injector.clear(fault),
            )
        self.recovery.register_repair("clear_all", self._clear_all_faults)

    def _clear_all_faults(self) -> None:
        for fault in list(self.injector.plan):
            self.injector.clear(fault)

    def _build_ladders(self) -> None:
        # Teletext-internal inconsistencies: targeted resync first.
        self.policy.add_ladder(
            "ttx-*",
            [LadderStep("repair", "clear:drop_ttx_notify", user_impact=0.0)],
        )
        # User-observable divergence: escalate from invisible repairs to
        # the catch-all (which still beats a service call).
        generic = [
            LadderStep("repair", "clear:drop_ttx_notify", user_impact=0.0),
            LadderStep("repair", "clear:ttx_stale_render", user_impact=0.0),
            LadderStep("repair", "clear_all", user_impact=0.1),
        ]
        self.policy.add_ladder("screen", list(generic))
        sound = [
            LadderStep("repair", "clear:mute_noop", user_impact=0.0),
            LadderStep("repair", "clear:volume_overshoot", user_impact=0.0),
            LadderStep("repair", "clear_all", user_impact=0.1),
        ]
        self.policy.add_ladder("sound", sound)

    def _post_recovery(self, incident) -> None:
        self.monitor.comparator.reset()
        self.mode_checker.reset()

    # ------------------------------------------------------------------
    # convenience driving API
    # ------------------------------------------------------------------
    def inject(self, fault: str, activate_after_presses: int = 0):
        """Inject a catalogue fault into the SUO."""
        return self.injector.inject(fault, activate_after_presses)

    def press_sequence(self, keys: Sequence[str], gap: float = 5.0) -> None:
        for key in keys:
            self.tv.press(key)
            self.tv.run(gap)

    def run(self, duration: float) -> None:
        self.tv.run(duration)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def health_report(self) -> dict:
        """One-shot summary of the whole stack's state."""
        return {
            "screen": self.tv.screen_descriptor(),
            "sound": self.tv.sound_level(),
            "active_faults": self.injector.active_faults(),
            "errors_by_scope": self.hierarchy.scope_summary(),
            "incidents": len(self.loop.incidents),
            "recovered": self.loop.recovered_count(),
            "comparisons": self.monitor.comparator.stats.comparisons,
            "suppressed_transients": (
                self.monitor.comparator.stats.suppressed_transients
            ),
        }
