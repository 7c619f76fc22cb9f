"""Scenario compiler: lower a :class:`ScenarioSpec` onto a MonitorFleet.

:class:`CompiledScenario` is the bridge between the declarative layer and
the runtime engine: it builds the device mix, assigns user profiles from
a seeded stream, schedules every fault phase (applications, pulses, and
repairs) on the kernel, and folds each run into one
:class:`~repro.runtime.fleet.FleetReport` — the record a shard sends
home — so declarative and hand-coded campaigns report through the same
schema.

Determinism contract: every stochastic choice — profile assignment,
phase targeting, seek positions, print-job sizes — draws from a stream
named after its role.  Pre-run decisions come from a
:class:`~repro.scenarios.plan.ScenarioPlan` keyed to the campaign seed;
in-run per-member streams key to ``(campaign seed, suo_id)``.  The same
``(spec, seed)`` pair therefore reproduces the identical event stream,
trace digest, and telemetry summary — *and* each member's stream is
placement-invariant, which is what lets
:class:`~repro.campaign.DistributedBackend` partition a scenario across
worker processes without perturbing any member's behaviour.
"""

from __future__ import annotations

import time as wallclock
from typing import Callable, Dict, List, Optional

from ..faults import FAULTS, Fault
from ..runtime.fleet import FleetMember, FleetReport, MonitorFleet, build_fleet_report
from ..sim.random import RandomStreams
from ..tv.remote import KeySequence
from .plan import ScenarioPlan, build_plan, derive_shard_seed
from .recovery import MemberRecovery
from .spec import FaultPhase, ScenarioSpec

Action = Callable[[FleetMember], None]


def _member_action(fault: Fault, action: Optional[Callable]) -> Optional[Action]:
    """Lift a catalogue action onto a fleet member: its SUO, or its
    monitor (skipped on an unmonitored member) for ``on_monitor``."""
    if action is None:
        return None
    if fault.on_monitor:

        def on_monitor(member: FleetMember) -> None:
            if member.monitor is not None:
                action(member.monitor)

        return on_monitor
    return lambda member: action(member.suo)


class CompiledScenario:
    """One :class:`ScenarioSpec` lowered onto a fresh MonitorFleet.

    ``run()`` may be called repeatedly: setup happens once and later
    calls extend the campaign by another ``spec.duration``.

    Every pre-run decision comes from a :class:`ScenarioPlan` (built
    here when not supplied), so a shard worker can compile its slice of
    a partitioned plan and each member behaves exactly as it would in
    the serial run: member identity, profile, stagger slot, and phase
    membership are global facts, keyed to the campaign seed.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int = 0,
        plan: Optional[ScenarioPlan] = None,
    ) -> None:
        if plan is None:
            plan = build_plan(spec, seed)
        self.plan = plan
        self.spec = plan.spec
        self.seed = plan.seed
        spec = self.spec
        self.fleet = MonitorFleet(
            seed=plan.seed,
            telemetry_window=spec.telemetry_window,
            telemetry_reservoir=spec.telemetry_reservoir,
            # Shard-local streams (telemetry reservoir sampling) key to
            # (seed, shard_id); member streams stay on the campaign seed.
            stream_seed=(
                derive_shard_seed(plan.seed, plan.shard_id)
                if plan.is_shard else None
            ),
        )
        corrupt = list(spec.corrupt_player_packets)
        self._planned: Dict[str, "PlannedMember"] = {}
        for planned in plan.members:
            if planned.kind == "tv":
                self.fleet.add_tv(suo_id=planned.suo_id)
            elif planned.kind == "player":
                self.fleet.add_player(
                    suo_id=planned.suo_id,
                    packet_count=spec.player_packets,
                    corrupt_indices=corrupt,
                )
            else:
                self.fleet.add_printer(suo_id=planned.suo_id)
            self._planned[planned.suo_id] = planned
        #: Causal span recorder (opt-in via ``spec.record_spans``).
        #: Seeded to the campaign seed so its reservoir sample is as
        #: reproducible as everything else; attaching after admission
        #: subscribes every member's exact error topic in one pass.
        self.span_recorder = None
        if spec.record_spans:
            from ..obs.spans import SpanRecorder  # deferred: opt-in layer

            kernel = self.fleet.kernel
            self.span_recorder = SpanRecorder(
                self.fleet.bus, clock=lambda: kernel.now, seed=plan.seed
            )
            self.fleet.attach_span_recorder(self.span_recorder)
        #: Members fault-injected by a marking phase (unique, in order).
        self.faulty: List[FleetMember] = []
        #: Recovery harnesses by suo_id (created lazily when a
        #: ``recovery=True`` phase afflicts a monitored member).
        self.recoveries: Dict[str, MemberRecovery] = {}
        #: profile name -> members assigned to it.
        self.profile_groups: Dict[str, List[FleetMember]] = {
            profile.name: [] for profile in spec.profiles
        }
        for planned in plan.members:
            if planned.profile is not None:
                self.profile_groups[planned.profile].append(
                    self.fleet.members[planned.suo_id]
                )
        self._started = False
        self._elapsed = 0.0
        self._dispatched = 0
        self._wall = 0.0

    # ------------------------------------------------------------------
    # deterministic assignment
    # ------------------------------------------------------------------
    def _members_of(self, kind: str) -> List[FleetMember]:
        return [m for m in self.fleet.members.values() if m.kind == kind]

    def _kind_index(self, member: FleetMember) -> int:
        """The member's stagger slot among its kind, campaign-global."""
        return self._planned[member.suo_id].kind_index

    def _member_stream(self, member: FleetMember, name: str):
        """A per-member scenario stream, keyed to (campaign seed,
        suo_id) — placement-invariant, so shards reproduce it."""
        return RandomStreams(member.seed).stream(name)

    def _phase_targets(self, index: int, phase: FaultPhase) -> List[FleetMember]:
        targets = [
            self.fleet.members[suo_id]
            for suo_id in self.plan.phase_targets[index]
        ]
        if phase.marks_faulty:
            for member in targets:
                # Only monitored members enter detection-rate accounting:
                # a fault on an unmonitored SUO (a monitor=False
                # admission) is still applied, but counting it as
                # "injected" would pin the scenario's detection rate at
                # a structural zero no monitor improvement could move.
                if member.monitor is not None and not member.faulty:
                    member.faulty = True
                    self.faulty.append(member)
        return targets

    # ------------------------------------------------------------------
    # drivers
    # ------------------------------------------------------------------
    def _scripted_suo_ids(self) -> set:
        """Members driven by a scripted profile (the script owns their
        whole session, including the power key)."""
        scripted = set()
        for profile in self.spec.profiles:
            if profile.script is not None:
                scripted.update(
                    member.suo_id
                    for member in self.profile_groups[profile.name]
                )
        return scripted

    def _power_on_tvs(self) -> None:
        """Stagger power-on by the *campaign-global* kind index, so a
        shard's TVs power up at the same simulated instants as in the
        serial run.  Scripted members are skipped: their key script
        controls power itself."""
        scripted = self._scripted_suo_ids()
        for member in self._members_of("tv"):
            if member.suo_id in scripted:
                continue
            member.suo.remote.schedule_press(
                self._kind_index(member) * self.spec.stagger, "power"
            )

    def _start_users(self) -> None:
        for profile in self.spec.profiles:
            group = self.profile_groups[profile.name]
            if not group:
                continue
            if profile.script is not None:
                # Deterministic scripted sessions: one press every
                # mean_gap, offset by the campaign-global stagger slot —
                # placement-invariant, so shards replay them exactly.
                for member in group:
                    KeySequence(
                        member.suo.remote,
                        profile.script,
                        interval=profile.mean_gap,
                        start=1.0 + self._kind_index(member) * self.spec.stagger,
                    ).schedule()
                continue
            self.fleet.start_random_users(
                mean_gap=profile.mean_gap,
                keys=list(profile.keys) if profile.keys else None,
                members=group,
            )

    def _start_players(self) -> None:
        # Each loop closure is built by a factory so its recursive
        # self-reference is its own cell — a bare inner `def` in the for
        # loop would late-bind the name to the LAST member's closure and
        # funnel every reschedule onto one device.
        kernel = self.fleet.kernel
        seek_every = self.spec.player_seek_every

        def make_seek_loop(player, rng, horizon):
            def seek_loop() -> None:
                if player.state != "stopped":
                    player.command(
                        "seek", position=rng.uniform(0.0, horizon * 0.9)
                    )
                kernel.schedule(seek_every, seek_loop, name="scenario:seek")

            return seek_loop

        for member in self._members_of("player"):
            player = member.suo
            index = self._kind_index(member)
            kernel.schedule(
                index * self.spec.stagger,
                lambda p=player: p.command("play"),
                name=f"scenario:play:{member.suo_id}",
            )
            if seek_every is None:
                continue
            rng = self._member_stream(member, "scenario.seek")
            horizon = player.source.packet_count * player.source.packet_interval
            kernel.schedule(
                seek_every + index * self.spec.stagger,
                make_seek_loop(player, rng, horizon),
            )

    def _start_printers(self) -> None:
        gap = self.spec.printer_job_gap
        if gap is None:
            return
        kernel = self.fleet.kernel
        low, high = self.spec.printer_pages

        def make_submit_loop(printer, rng):
            def submit_loop() -> None:
                printer.submit(
                    pages=rng.randint(low, high), staple=rng.random() < 0.3
                )
                kernel.schedule(
                    rng.expovariate(1.0 / gap), submit_loop,
                    name="scenario:job",
                )

            return submit_loop

        for member in self._members_of("printer"):
            rng = self._member_stream(member, "scenario.jobs")
            kernel.schedule(
                rng.expovariate(1.0 / gap), make_submit_loop(member.suo, rng)
            )

    # ------------------------------------------------------------------
    # fault schedule
    # ------------------------------------------------------------------
    def _recovery_harness(self, member: FleetMember) -> Optional[MemberRecovery]:
        """The member's (lazily created) recovery ladder; None when the
        member carries no monitor — nothing could detect, so nothing can
        drive a recovery."""
        if member.monitor is None:
            return None
        harness = self.recoveries.get(member.suo_id)
        if harness is None:
            harness = MemberRecovery(
                member, self.fleet.kernel, self.fleet.bus
            )
            self.recoveries[member.suo_id] = harness
        return harness

    def _schedule_phases(self) -> None:
        kernel = self.fleet.kernel
        for index, phase in enumerate(self.spec.phases):
            entry = FAULTS[(phase.kind, phase.fault)]
            apply = _member_action(entry, entry.apply)
            clear = _member_action(entry, entry.clear)
            targets = self._phase_targets(index, phase)
            if not targets:
                continue

            if phase.recovery:
                # validate() admits recovery only for latent faults, and
                # every latent fault has a clear.
                repair = _member_action(entry, entry.repair) or clear

                def fire_recovery(
                    targets=targets, apply=apply, repair=repair,
                    index=index, component=entry.component, fault=phase.fault,
                ) -> None:
                    for member in targets:
                        apply(member)
                        harness = self._recovery_harness(member)
                        if harness is not None:
                            harness.arm(
                                index,
                                lambda member=member, repair=repair: repair(member),
                                component=component,
                                fault=fault,
                            )

                kernel.schedule_at(
                    phase.at, fire_recovery, name=f"scenario:{phase.fault}"
                )
                continue

            def fire(targets=targets, apply=apply) -> None:
                for member in targets:
                    apply(member)

            kernel.schedule_at(phase.at, fire, name=f"scenario:{phase.fault}")
            if phase.pulse_every is not None and phase.duration is not None:
                pulse_at = phase.at + phase.pulse_every
                while pulse_at < phase.at + phase.duration:
                    kernel.schedule_at(
                        pulse_at, fire, name=f"scenario:{phase.fault}:pulse"
                    )
                    pulse_at += phase.pulse_every
            if phase.duration is not None and clear is not None:

                def repair(targets=targets, clear=clear) -> None:
                    for member in targets:
                        clear(member)

                kernel.schedule_at(
                    phase.at + phase.duration,
                    repair,
                    name=f"scenario:{phase.fault}:clear",
                )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the fleet's simulation (:meth:`Kernel.close`): every
        suspended process is closed and every pending event dropped, so
        the finished fleet is garbage one collection can free.  Call it
        once the last report is built; the scenario cannot run after.
        Idempotent."""
        self.fleet.kernel.close()

    def run(self) -> FleetReport:
        """Drive the campaign for one ``spec.duration`` segment.

        The report covers the campaign from its start — duration,
        dispatched, and wall time accumulate across segments, matching
        the cumulative error counts and telemetry it carries.
        """
        return self.run_segmented(1)

    def run_segmented(
        self,
        segments: int,
        on_segment: Optional[
            Callable[["CompiledScenario", int, float], None]
        ] = None,
    ) -> FleetReport:
        """Drive one ``spec.duration`` campaign in ``segments`` slices.

        Semantically identical to :meth:`run` — the kernel documents
        that interleaved ``run(until=...)`` calls dispatch the same
        events in the same order as one call, and the final boundary is
        the exact float an unsegmented run stops at — so the trace and
        telemetry digests are byte-identical for any segment count.
        ``on_segment(compiled, index, now)`` fires after each boundary:
        the live-snapshot seam the campaign service streams
        :class:`~repro.runtime.telemetry.FleetTelemetry` state through
        while a shard runs.  A callback that raises aborts
        the run (cooperative cancellation); the kernel clock stays at
        the completed boundary.
        """
        if segments < 1:
            raise ValueError("segments must be >= 1")
        if not self._started:
            self._started = True
            self._power_on_tvs()
            self._start_users()
            self._start_players()
            self._start_printers()
            self._schedule_phases()
        kernel = self.fleet.kernel
        origin = kernel.now
        start = wallclock.perf_counter()
        dispatched = 0
        for index in range(segments):
            # (index + 1) / segments is exactly 1.0 on the last slice,
            # so the final boundary equals origin + duration — the same
            # float run() targets — whatever the intermediate cuts were.
            boundary = origin + self.spec.duration * ((index + 1) / segments)
            dispatched += kernel.run(until=boundary)
            if on_segment is not None:
                on_segment(self, index, kernel.now)
        self._wall += wallclock.perf_counter() - start
        self._elapsed += self.spec.duration
        self._dispatched += dispatched
        return build_fleet_report(
            self.fleet, self._elapsed, self._dispatched, self._wall, self.faulty,
            shard_id=self.plan.shard_id,
            profile_mix={
                name: len(group) for name, group in self.profile_groups.items()
            },
        )
