"""Scenario-driven recovery: the Fig. 1 ladder wired to fleet members.

A :class:`FaultPhase` with ``recovery=True`` schedules *no* repair.
Instead every monitored target gets a :class:`MemberRecovery` harness —
the paper's outer loop assembled from the real parts:

* the member's :class:`~repro.awareness.controller.Controller` is the
  error source (``IErrorNotify``);
* a :class:`~repro.core.policy.RecoveryPolicy` holds the escalation
  ladder — **local reset** (clear comparator state; invisible to the
  user), **component restart** (bounce the awareness monitor, re-sync
  via ``Machine.reseed``), **rebind** (replace the faulty component and
  restart; the only rung that removes a permanent fault);
* a :class:`~repro.recovery.RecoveryManager` executes the rungs;
* an :class:`~repro.core.loop.AwarenessLoop` ties them together and
  verifies each action by watching for recurrence.

The first two rungs deliberately cannot remove an injected fault: a
local reset only clears detection state, and a restarted monitor
re-adopts the SUO's (still faulty) behaviour as baseline until the next
interaction diverges again.  Repeated detection therefore walks the
ladder to ``rebind``, which invokes the phase's repair action — so the
drill exercises detection → escalation → repair → verification end to
end, and the elapsed time from fault injection to the rebind completing
is the episode's **time-to-recover**.

**Diagnosis in the loop (PR 5).**  From the moment a member comes under
suspicion (its harness is created), a
:class:`~repro.diagnosis.components.ComponentSpectra` collector folds
the member's bus traffic into per-component activity/error spectra.
When the ladder reaches ``rebind``, the harness consults the SFL
ranking: with a confident top suspect it performs a **targeted rebind**
of just that component (smaller downtime; the repair only clears the
fault when the suspect actually is the faulty component — a
mislocalized rebind leaves the fault standing, the next detection
re-escalates, and the harness falls back to a full rebind).  With a
weak or tied ranking it goes straight to the full rebind.  Every rebind
publishes its localization outcome (mode, suspect, confidence, the
rank the *true* faulty component achieved) into the ``diagnosis``
telemetry block.

Every executed rung publishes on ``suo.<suo_id>.recovery``; completed
episodes carry their TTR and wave index, which
:class:`~repro.runtime.telemetry.FleetTelemetry` folds into the
shard-invariant recovery block (merged by ``merge_summaries``).

Determinism: everything here is member-local — errors come from the
member's own monitor, rungs are scheduled on the shared kernel, and no
fleet-level randomness is consulted — so a member recovers identically
whichever shard it lands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..core.contract import RecoveryAction
from ..core.loop import AwarenessLoop
from ..core.policy import LadderStep, RecoveryPolicy, perception_weighted_ladder
from ..diagnosis.components import COMPONENTS, ComponentSpectra
from ..perception.severity import FunctionProfile, SeverityModel
from ..recovery.recoverymgr import RecoveryManager
from ..runtime.bus import EventBus
from ..runtime.fleet import FleetMember
from ..sim.kernel import Kernel

#: The escalation ladder, least user impact first (Sect. 3: corrections
#: are chosen by expected impact on the user).
LADDER_KINDS = ("local_reset", "component_restart", "rebind")

#: Downtime each rung inflicts on the member's observation pipeline.
#: ``targeted_rebind`` is the diagnosis dividend: swapping one suspect
#: component rebinds less of the SUO than replacing it wholesale, so a
#: correct localization shows up as a measurably smaller TTR.
DOWNTIME = {
    "local_reset": 0.0,
    "component_restart": 0.5,
    "targeted_rebind": 0.8,
    "rebind": 2.0,
}

#: Relative user impact per rung (scales the policy's ordering).
USER_IMPACT = {"local_reset": 0.2, "component_restart": 1.0, "rebind": 2.5}

#: How users perceive a failure of the function each SUO kind serves
#: (Sect. 4.6 DTI factors).  :func:`perception_weighted_ladder` scales
#: the rung impacts by the population-level severity weight, so a
#: recovery that disrupts a function users notice and blame the product
#: for (live TV viewing) is costed higher than one users often
#: attribute externally (playback hiccups).
KIND_FUNCTIONS = {
    "tv": FunctionProfile(
        "viewing", stated_importance=0.9, usage=1.0,
        failure_visibility=0.9, external_attribution_prior=0.2,
    ),
    "player": FunctionProfile(
        "playback", stated_importance=0.8, usage=0.8,
        failure_visibility=0.8, external_attribution_prior=0.5,
    ),
    "printer": FunctionProfile(
        "printing", stated_importance=0.7, usage=0.6,
        failure_visibility=0.9, external_attribution_prior=0.3,
    ),
}


@dataclass
class FaultEpisode:
    """One open fault on a member: when it was armed, how to repair it,
    and which component actually carries it (diagnosis ground truth)."""

    wave: int
    armed_at: float
    repair: Callable[[], None]
    component: Optional[str] = None
    #: Targeted rebinds already spent on this episode: after one miss
    #: the harness stops trusting the ranking and rebinds fully.
    targeted_attempts: int = 0


class MemberRecovery:
    """One member's recovery ladder: policy + manager + loop, armed per
    fault episode by the scenario compiler."""

    def __init__(
        self,
        member: FleetMember,
        kernel: Kernel,
        bus: EventBus,
        settle_time: float = 15.0,
        quiet_period: float = 30.0,
        confidence_threshold: float = 0.05,
        spectra_window: float = 1.0,
    ) -> None:
        if member.monitor is None:
            raise ValueError(f"member {member.suo_id!r} has no monitor to recover")
        self.member = member
        self.kernel = kernel
        self.monitor = member.monitor
        self._publish = bus.publisher(f"suo.{member.suo_id}.recovery")
        #: Span markers for repro.obs.  Deliberately a *separate*
        #: namespace: nothing on ``suo.*`` may change shape (the fleet
        #: trace digest hashes event reprs), and with no SpanRecorder
        #: subscribed these publishes hit an empty compiled table —
        #: effectively free, honoring the overhead budget.
        self._span = bus.publisher(f"obs.{member.suo_id}.span")
        #: Online SFL evidence, collected from harness creation onward
        #: ("while the member is under suspicion").  Kinds without a
        #: component vocabulary would get no ranking; every fleet kind
        #: has one, but stay defensive for hand-built members.
        self.spectra: Optional[ComponentSpectra] = (
            ComponentSpectra(
                member.kind,
                member.suo_id,
                bus,
                clock=lambda: kernel.now,
                window=spectra_window,
            )
            if member.kind in COMPONENTS
            else None
        )
        self.confidence_threshold = confidence_threshold
        self.policy = RecoveryPolicy(quiet_period=quiet_period)
        steps = [
            LadderStep(kind, member.suo_id, USER_IMPACT[kind])
            for kind in LADDER_KINDS
        ]
        function = KIND_FUNCTIONS.get(member.kind)
        if function is not None:
            steps = list(
                perception_weighted_ladder(steps, function, SeverityModel())
            )
        self.policy.add_ladder("*", steps)
        self.manager = RecoveryManager(kernel)
        self.manager.register_handler("local_reset", self._local_reset)
        self.manager.register_handler("component_restart", self._component_restart)
        self.manager.register_handler("rebind", self._rebind)
        self.loop = AwarenessLoop(
            kernel,
            self.policy,
            self.manager,
            settle_time=settle_time,
            name=f"{member.suo_id}.recovery-loop",
        )
        self.loop.attach(self.monitor.controller)
        #: Open fault episodes, oldest first.  A queue, not a slot — a
        #: member hit by a second wave before finishing the first
        #: carries BOTH faults, and each rebind repairs (and accounts)
        #: the oldest one.
        self._episodes: List[FaultEpisode] = []
        #: Completed episodes: (wave index, time-to-recover).
        self.completed: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    def arm(
        self,
        wave: int,
        repair: Callable[[], None],
        component: Optional[str] = None,
        fault: Optional[str] = None,
    ) -> None:
        """A fault phase just afflicted this member: open an episode.

        ``repair`` is the fault's clear action — what the ``rebind``
        rung executes when escalation reaches it; ``component`` is the
        fault's true location (ground truth for localization
        telemetry, and what decides whether a targeted rebind of the
        SFL suspect actually repairs); ``fault`` is the injected
        fault's name (span labeling only).  A fresh (no episode in
        flight) arm walks the ladder from the bottom; stacking onto an
        in-flight episode keeps the current escalation, since the
        member is already mid-recovery.
        """
        if not self._episodes:
            self.policy.reset()
        self._episodes.append(
            FaultEpisode(wave, self.kernel.now, repair, component)
        )
        self._span(
            {"ev": "inject", "wave": wave, "fault": fault,
             "component": component}
        )

    @property
    def armed(self) -> bool:
        return bool(self._episodes)

    @property
    def _wave(self) -> Optional[int]:
        """The oldest open episode's wave (rung events are labeled with
        the episode currently being worked)."""
        return self._episodes[0].wave if self._episodes else None

    # ------------------------------------------------------------------
    # ladder rungs (RecoveryManager handlers; each returns its downtime)
    # ------------------------------------------------------------------
    def _local_reset(self, action: RecoveryAction) -> float:
        """Rung 1: clear comparator deviation state only.  Invisible to
        the user; a persistent fault re-accumulates a streak and
        escalates."""
        self.monitor.comparator.reset()
        self._publish({"action": "local_reset", "wave": self._wave})
        self._span(
            {"ev": "rung", "action": "local_reset", "wave": self._wave,
             "downtime": DOWNTIME["local_reset"]}
        )
        return DOWNTIME["local_reset"]

    def _component_restart(self, action: RecoveryAction) -> float:
        """Rung 2: bounce the awareness monitor.  The restart handshake
        re-seeds the model from the SUO's observable state, so a
        *transient* wedge is cured; an injected fault diverges again on
        the next faulty interaction and escalates further."""
        downtime = DOWNTIME["component_restart"]
        self.monitor.stop()
        self.kernel.schedule(
            downtime, self.monitor.start,
            name=f"recovery:restart:{self.member.suo_id}",
        )
        self._publish({"action": "component_restart", "wave": self._wave})
        self._span(
            {"ev": "rung", "action": "component_restart",
             "wave": self._wave, "downtime": downtime}
        )
        return downtime

    def _rebind(self, action: RecoveryAction) -> float:
        """Rung 3: replace the faulty component and restart around the
        new binding — the rung that actually removes an injected fault.

        The SFL ranking decides *which* component to replace.  With a
        confident top suspect the rebind is **targeted**: only that
        component is swapped (smaller downtime), which repairs the fault
        exactly when the suspect is the truly faulty component.  A miss
        leaves the fault standing — the episode stays open, the next
        detection returns here, and the harness rebinds fully.  A weak
        or tied ranking skips straight to the full rebind.  Completing a
        repair closes the oldest episode and records its time-to-recover;
        any stacked episode stays open, and its fault drives the next
        detection, which walks the ladder again from the bottom."""
        episode = self._episodes[0] if self._episodes else None
        suspect: Optional[str] = None
        confidence = 0.0
        true_rank: Optional[int] = None
        if self.spectra is not None:
            ranking = self.spectra.ranking()
            if ranking:
                suspect = ranking[0].component
                confidence = self.spectra.confidence(ranking)
            if episode is not None and episode.component is not None:
                true_rank = next(
                    (
                        entry.rank
                        for entry in ranking
                        if entry.component == episode.component
                    ),
                    None,
                )
        targeted = (
            episode is not None
            # No ground-truth component (an episode armed without one;
            # every Fault a recovery phase may carry has one) means the
            # simulation cannot decide whether a component swap would
            # land — a targeted attempt could never hit, so it would
            # only burn downtime and log a bogus miss.  Go straight to
            # the full rebind instead.
            and episode.component is not None
            and suspect is not None
            and confidence >= self.confidence_threshold
            and episode.targeted_attempts == 0
        )
        closed: Optional[FaultEpisode] = None
        hit: Optional[bool] = None
        if targeted:
            mode = "targeted"
            downtime = DOWNTIME["targeted_rebind"]
            hit = episode.component is not None and suspect == episode.component
            if hit:
                closed = self._episodes.pop(0)
                closed.repair()
            else:
                episode.targeted_attempts += 1
        else:
            mode = "full"
            downtime = DOWNTIME["rebind"]
            if episode is not None:
                closed = self._episodes.pop(0)
                closed.repair()
        episode_wave = episode.wave if episode is not None else None
        if self.spectra is not None:
            self._span(
                {"ev": "sfl-rank", "wave": episode_wave, "suspect": suspect,
                 "confidence": round(confidence, 6), "true_rank": true_rank}
            )
        self._span(
            {"ev": "rung", "action": "rebind", "mode": mode,
             "wave": episode_wave, "downtime": downtime, "hit": hit}
        )
        self.monitor.stop()

        def back_up() -> None:
            self.monitor.start()
            event = {
                "action": "rebind",
                "mode": mode,
                "suspect": suspect,
                "confidence": round(confidence, 6),
                "true_component": episode.component if episode else None,
                "true_rank": true_rank,
                "hit": hit,
            }
            if closed is not None:
                ttr = self.kernel.now - closed.armed_at
                self.completed.append((closed.wave, ttr))
                event["wave"] = closed.wave
                event["ttr"] = round(ttr, 9)
            else:
                event["wave"] = self._wave
            self._publish(event)
            if closed is not None:
                self._span(
                    {"ev": "repair", "wave": closed.wave,
                     "ttr": event["ttr"], "mode": mode}
                )
            if closed is not None and self._episodes:
                # another fault is still standing: restart the ladder
                # for it (its TTR clock has been running since its arm)
                self.policy.reset()

        self.kernel.schedule(
            downtime, back_up, name=f"recovery:rebind:{self.member.suo_id}"
        )
        return downtime
