"""Multi-SUO fleet engine: many monitored devices, one kernel, one bus.

The paper's framework (Fig. 1/2) watches a single system under
observation.  The ROADMAP's north star is a production-scale service
monitoring *populations* of devices, so this module multiplexes N
independent SUOs — TVs, media players, printers — with their awareness
monitors onto one :class:`~repro.sim.kernel.Kernel` and one
:class:`~repro.runtime.bus.EventBus`:

* every SUO publishes on its own ``suo.<suo_id>.*`` topic namespace, so
  monitors stay isolated while sharing the transport;
* every member draws from its *own* :class:`RandomStreams` whose master
  seed is derived from ``(fleet_seed, suo_id)`` — adding or reordering
  members never perturbs the others, and the same fleet seed reproduces
  the identical fleet trace byte for byte;
* a wildcard ``suo.*`` subscription hashes the merged fleet event
  stream as it flows; :meth:`MonitorFleet.trace_digest` is the
  determinism witness, and no event is retained after it is hashed.

Campaigns over a fleet are declared as a
:class:`~repro.scenarios.ScenarioSpec` and run through
:mod:`repro.campaign`; :func:`build_fleet_report` folds each run into a
:class:`FleetReport`, the one record a shard sends home.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from ..awareness.monitor import (
    AwarenessMonitor,
    make_player_monitor,
    make_tv_monitor,
)
from ..printer.engine import Printer
from ..printer.model import make_printer_monitor
from ..sim.kernel import Kernel
from ..sim.random import RandomStreams
from ..tv.mediaplayer import MediaPlayer, MediaSource
from ..tv.remote import RandomUser
from ..tv.tvset import TVSet
from .telemetry import FleetTelemetry, SuoTally


def derive_member_seed(fleet_seed: int, suo_id: str) -> int:
    """Stable per-member master seed; independent of creation order."""
    digest = hashlib.sha256(f"fleet:{fleet_seed}:{suo_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class FleetMember:
    """One SUO plus its monitor, identity, and campaign bookkeeping."""

    suo_id: str
    kind: str
    suo: Any
    monitor: Optional[AwarenessMonitor]
    seed: int
    driver: Any = None
    faulty: bool = False
    #: The member's ledger inside the fleet's telemetry hub (set on
    #: admission) — one counter state, shared, instead of a second copy
    #: maintained on the recording hot path.
    tally: Optional[SuoTally] = None

    @property
    def inputs(self) -> int:
        return self.tally.inputs if self.tally is not None else 0

    @property
    def outputs(self) -> int:
        return self.tally.outputs if self.tally is not None else 0

    @property
    def error_count(self) -> int:
        return len(self.monitor.errors) if self.monitor is not None else 0


class MonitorFleet:
    """N monitored SUOs multiplexed on one kernel and one event bus.

    Every ``suo.*`` event is folded into the incremental
    :meth:`trace_digest` and counted, then dropped: observation keeps no
    per-event record, so memory does not grow with the event count.
    :attr:`telemetry` carries the bounded-memory aggregate view.
    """

    def __init__(
        self,
        seed: int = 0,
        kernel: Optional[Kernel] = None,
        telemetry_window: float = 10.0,
        telemetry_reservoir: int = 512,
        stream_seed: Optional[int] = None,
    ) -> None:
        self.seed = seed
        self.kernel = kernel or Kernel()
        self.bus = self.kernel.bus
        #: ``seed`` keys *member* behaviour (per-member streams derive
        #: from ``(seed, suo_id)``); ``stream_seed`` keys the fleet's own
        #: internal streams (fault selection, telemetry reservoir).  They
        #: coincide by default; a shard worker passes the campaign seed
        #: as ``seed`` — so members behave exactly as in the serial run —
        #: and its ``(seed, shard_id)``-derived seed as ``stream_seed``.
        self.stream_seed = seed if stream_seed is None else stream_seed
        self.streams = RandomStreams(derive_member_seed(self.stream_seed, "<fleet>"))
        self.members: Dict[str, FleetMember] = {}
        #: Incremental determinism witness over the merged fleet event
        #: stream, one time-stamped line per SUO input/output/stimulus.
        self._digest = hashlib.sha256()
        self._record_count = 0
        #: topic -> digest-line middle, see :meth:`_record`.
        self._topic_parts: Dict[str, str] = {}
        self.bus.subscribe("suo.*", self._record)
        #: Optional :class:`~repro.obs.spans.SpanRecorder` — attached
        #: via :meth:`attach_span_recorder`, never constructed here:
        #: span recording is opt-in (the paper's overhead budget) and
        #: the fleet must not depend on the obs layer above it.
        self.span_recorder: Optional[Any] = None
        #: Bounded-memory streaming aggregators over the same namespace.
        self.telemetry = FleetTelemetry(
            self.bus,
            clock=lambda: self.kernel.now,
            rng=self.streams.stream("telemetry"),
            window=telemetry_window,
            reservoir=telemetry_reservoir,
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_tv(
        self,
        suo_id: Optional[str] = None,
        monitor: bool = True,
        config: Any = None,
        channel_delay: float = 0.05,
        channel_jitter: float = 0.02,
    ) -> FleetMember:
        """Add one TV (and, by default, its awareness monitor)."""
        suo_id = suo_id or f"tv-{len(self.members)}"
        member_seed = derive_member_seed(self.seed, suo_id)
        tv = TVSet(kernel=self.kernel, seed=member_seed, suo_id=suo_id)
        mon = None
        if monitor:
            mon = make_tv_monitor(
                tv,
                config=config,
                channel_delay=channel_delay,
                channel_jitter=channel_jitter,
                name=f"{suo_id}.awareness",
            )
        return self._admit(FleetMember(suo_id, "tv", tv, mon, member_seed))

    def add_tvs(self, count: int, **kwargs: Any) -> List[FleetMember]:
        return [self.add_tv(**kwargs) for _ in range(count)]

    def add_player(
        self,
        suo_id: Optional[str] = None,
        monitor: bool = True,
        packet_count: int = 500,
        corrupt_indices: Optional[List[int]] = None,
    ) -> FleetMember:
        """Add one media player SUO."""
        suo_id = suo_id or f"player-{len(self.members)}"
        member_seed = derive_member_seed(self.seed, suo_id)
        source = MediaSource(
            packet_count=packet_count, corrupt_indices=corrupt_indices
        )
        player = MediaPlayer(self.kernel, source, suo_id=suo_id)
        mon = None
        if monitor:
            mon = make_player_monitor(player, name=f"{suo_id}.awareness")
        return self._admit(FleetMember(suo_id, "player", player, mon, member_seed))

    def add_printer(
        self,
        suo_id: Optional[str] = None,
        monitor: bool = True,
        config: Any = None,
        channel_delay: float = 0.05,
        channel_jitter: float = 0.02,
    ) -> FleetMember:
        """Add one printer SUO (and, by default, its awareness monitor).

        Until PR 4 printers joined fleets unmonitored, which pinned the
        printer scenarios' detection rates at a structural zero; the
        queue-depth and page-rate observables now give the monitor
        something a silent jam actually moves.
        """
        suo_id = suo_id or f"printer-{len(self.members)}"
        member_seed = derive_member_seed(self.seed, suo_id)
        printer = Printer(kernel=self.kernel, suo_id=suo_id)
        mon = None
        if monitor:
            mon = make_printer_monitor(
                printer,
                config=config,
                channel_delay=channel_delay,
                channel_jitter=channel_jitter,
                name=f"{suo_id}.awareness",
            )
        return self._admit(FleetMember(suo_id, "printer", printer, mon, member_seed))

    def _admit(self, member: FleetMember) -> FleetMember:
        if member.suo_id in self.members:
            raise ValueError(f"duplicate suo_id {member.suo_id!r}")
        self.members[member.suo_id] = member
        member.tally = self.telemetry.tally(member.suo_id)
        monitor = member.monitor
        if monitor is not None:
            # Errors join the suo.<id>.* namespace so the trace, the
            # telemetry tallies, and any future subscriber see them the
            # same way they see inputs and outputs.
            publish = self.bus.publisher(f"suo.{member.suo_id}.error")
            monitor.controller.subscribe_errors(
                lambda report, _publish=publish: _publish(report)
            )
            # Sample process-boundary delivery latency into the bounded
            # reservoir (delivery time minus the observation's send-time
            # stamp, simulated units).
            for channel in (monitor.input_channel, monitor.output_channel):
                channel.connect(
                    lambda observation: self.telemetry.observe_latency(
                        self.kernel.now - observation.time
                    )
                )
        if self.span_recorder is not None:
            self.span_recorder.attach_member(member.suo_id)
        return member

    def attach_span_recorder(self, recorder: Any) -> None:
        """Wire a :class:`~repro.obs.spans.SpanRecorder` into the fleet:
        every current member's exact error topic is subscribed now, and
        future admissions attach themselves.  The recorder must have
        been built on this fleet's bus."""
        self.span_recorder = recorder
        for suo_id in self.members:
            recorder.attach_member(suo_id)

    # ------------------------------------------------------------------
    # fleet event stream
    # ------------------------------------------------------------------
    def _record(self, topic: str, event: Any) -> None:
        # topic == "suo.<suo_id>.<kind>"; per-member counting lives in
        # the telemetry hub's own suo.* subscription (member.tally).
        # Topics recur for the life of the fleet, so the split into the
        # "\t<suo_id>\t<kind>\t" digest-line fragment is cached per topic
        # rather than recomputed per event.
        middle = self._topic_parts.get(topic)
        if middle is None:
            _, suo_id, kind = topic.split(".", 2)
            middle = self._topic_parts[topic] = f"\t{suo_id}\t{kind}\t"
        line = f"{self.kernel.now:.9f}{middle}{event!r}\n"
        self._digest.update(line.encode("utf-8"))
        self._record_count += 1

    def trace_digest(self) -> str:
        """SHA-256 over the merged fleet event stream (determinism
        witness), computed incrementally as events flow."""
        return self._digest.hexdigest()

    def record_count(self) -> int:
        """Events hashed into the merged stream so far."""
        return self._record_count

    # ------------------------------------------------------------------
    # drivers
    # ------------------------------------------------------------------
    def start_random_users(
        self,
        members: List[FleetMember],
        mean_gap: float = 4.0,
        keys: Optional[List[str]] = None,
    ) -> int:
        """Attach a seeded random user to each TV in ``members``; returns
        count.  Scenario user profiles assign different gap/key mixes to
        different groups this way."""
        started = 0
        for member in members:
            if member.kind != "tv" or member.driver is not None:
                continue
            member.driver = RandomUser(
                member.suo.remote, member.suo.streams,
                mean_gap=mean_gap, keys=keys,
            )
            member.driver.start()
            started += 1
        return started

    # ------------------------------------------------------------------
    def run(self, duration: float) -> int:
        """Advance the shared kernel; returns events dispatched."""
        return self.kernel.run(until=self.kernel.now + duration)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class FleetReport:
    """One executed fleet run — a full cell or one shard of it.

    This is the one record a shard produces: :meth:`to_json` is the
    JSON-safe payload a worker sends home, a checkpoint row stores and
    :func:`~repro.campaign.report.merge_shard_results` folds.  Every
    field is a payload key; the rates are derived.
    """

    shard_id: int
    members: int
    duration: float
    dispatched: int
    wall_seconds: float
    trace_digest: str
    trace_records: int
    #: Mergeable telemetry summary (per-SUO ledger and reservoir
    #: samples included; see :func:`~repro.runtime.telemetry.merge_summaries`).
    summary: Dict[str, Any]
    faulty: List[str]
    detected: List[str]
    false_alarms: List[str]
    #: Monitored members that were NOT fault-injected — the population
    #: that could have false-alarmed.
    monitored_clean: int
    errors_by_suo: Dict[str, int]
    #: profile name -> members assigned to it.
    profile_mix: Dict[str, int] = field(default_factory=dict)
    #: Causal-span block (None unless a span recorder was attached):
    #: counters + digest triples merge exactly; see merge_span_blocks.
    spans: Optional[Dict[str, Any]] = None

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.dispatched / self.wall_seconds

    @property
    def detection_rate(self) -> float:
        """Detected / injected.  A zero-fault campaign vacuously detects
        everything, so the guard returns 1.0 rather than dividing by the
        empty fault set."""
        if not self.faulty:
            return 1.0
        return len(self.detected) / len(self.faulty)

    @property
    def false_alarm_rate(self) -> float:
        """False alarms / monitored fault-free members (0.0 when no such
        member exists — nobody *could* have false-alarmed).  Unmonitored
        members (``monitor=False`` admissions) are excluded from the
        denominator, mirroring the detection-rate accounting."""
        if self.monitored_clean <= 0:
            return 0.0
        return len(self.false_alarms) / self.monitored_clean

    def to_json(self) -> Dict[str, Any]:
        """The shard payload: every field, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_fleet_report(
    fleet: MonitorFleet,
    duration: float,
    dispatched: int,
    wall_seconds: float,
    faulty: List["FleetMember"],
    shard_id: int = 0,
    profile_mix: Optional[Dict[str, int]] = None,
) -> FleetReport:
    """Fold a finished campaign segment into a :class:`FleetReport`.

    The telemetry summary is rendered exactly once, here."""
    members = fleet.members.values()
    recorder = fleet.span_recorder
    return FleetReport(
        shard_id=shard_id,
        members=len(fleet),
        duration=duration,
        dispatched=dispatched,
        wall_seconds=wall_seconds,
        trace_digest=fleet.trace_digest(),
        trace_records=fleet.record_count(),
        summary=fleet.telemetry.summary(per_suo=True, samples=True),
        faulty=[m.suo_id for m in faulty],
        detected=[m.suo_id for m in faulty if m.error_count > 0],
        false_alarms=[
            m.suo_id for m in members if not m.faulty and m.error_count > 0
        ],
        monitored_clean=sum(
            1 for m in members if m.monitor is not None and not m.faulty
        ),
        errors_by_suo={m.suo_id: m.error_count for m in members},
        profile_mix=profile_mix or {},
        spans=recorder.mergeable() if recorder is not None else None,
    )
