"""Declarative scenario specifications.

The paper's industry-as-laboratory method (Sect. 3) validates awareness
monitors by driving real systems through realistic usage — which only
works if the workloads are *diverse* and *reproducible*.  This module
makes campaigns **declarative**: a :class:`ScenarioSpec` names a
device mix, per-profile user behaviors, and a phased fault-injection
schedule, and the compiler (:mod:`repro.scenarios.compile`) lowers it
onto a :class:`~repro.runtime.fleet.MonitorFleet`.

Specs are frozen dataclasses: hashable, comparable, and safe to share
between sweep points.  Everything stochastic inside a compiled scenario
draws from streams derived from ``(seed, scenario)`` names, so the same
``(spec, seed)`` pair reproduces the identical campaign byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

#: TV faults toggled through ``control.fault_flags``.
TV_FLAG_FAULTS = ("volume_overshoot", "mute_noop", "menu_opens_epg")

#: Every ``(kind, fault)`` pair the compiler knows how to apply.  Faults
#: in :data:`LOAD_FAULTS` are load/churn disturbances rather than latent
#: defects: they do not mark their targets "faulty" for detection-rate
#: accounting.
KNOWN_FAULTS = frozenset(
    [("tv", name) for name in TV_FLAG_FAULTS]
    + [
        ("tv", "drop_ttx_notify"),
        ("tv", "ttx_stale_render"),
        ("tv", "alert_broadcast"),
        ("tv", "monitor_churn"),
        ("player", "stall_on_corrupt"),
        ("player", "decode_slowdown"),
        ("printer", "silent_jam"),
        ("printer", "cold_fuser"),
        ("printer", "lost_staples"),
        ("printer", "job_burst"),
    ]
)

LOAD_FAULTS = frozenset(
    [("tv", "alert_broadcast"), ("tv", "monitor_churn"), ("printer", "job_burst")]
)


def _opt_tuple(value) -> Optional[Tuple[str, ...]]:
    return None if value is None else tuple(value)


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


def spec_hash(spec: "ScenarioSpec") -> str:
    """Stable SHA-256 identity of a spec's canonical JSON form.

    Two specs hash equal iff they are behaviourally the same scenario:
    the canonical form coerces ints-given-for-floats, restores no
    defaults, and sorts keys, so hand-written, round-tripped, and
    grammar-sampled specs all agree.  This is the corpus key under
    :mod:`repro.fuzz` and the diffable identity of a shrunk repro.
    """
    return hashlib.sha256(spec.canonical_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class UserProfile:
    """One class of TV user: how often they press, and what.

    ``weight`` sets the share of the TV population assigned to this
    profile (normalized across the spec's profiles, drawn from a seeded
    stream so assignment is deterministic per seed).

    With ``script`` the profile is **deterministic** instead of random:
    every assigned member presses exactly these keys, one every
    ``mean_gap`` simulated seconds (offset by its stagger slot), and is
    exempted from the automatic power-on — the script owns the whole
    session.  This is how hand-rolled scripted drivers (the Sect. 4.4
    27-press diagnosis scenario) run through the campaign surface.
    """

    name: str
    mean_gap: float = 4.0
    keys: Optional[Tuple[str, ...]] = None
    weight: float = 1.0
    script: Optional[Tuple[str, ...]] = None

    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON form (see :func:`spec_hash` for the contract)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "mean_gap": float(self.mean_gap),
            "weight": float(self.weight),
        }
        # Optional tuple fields serialize as lists only when present, so
        # the canonical form has no nulls to diff against.
        if self.keys is not None:
            data["keys"] = list(self.keys)
        if self.script is not None:
            data["script"] = list(self.script)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "UserProfile":
        return cls(
            name=data["name"],
            mean_gap=float(data.get("mean_gap", 4.0)),
            # JSON has no tuples: restore them, else a loaded profile
            # would not compare (or hash) equal to the one it came from.
            keys=_opt_tuple(data.get("keys")),
            weight=float(data.get("weight", 1.0)),
            script=_opt_tuple(data.get("script")),
        )

    def validate(self) -> None:
        if self.mean_gap <= 0:
            raise ValueError(f"profile {self.name!r}: mean_gap must be > 0")
        if self.weight <= 0:
            raise ValueError(f"profile {self.name!r}: weight must be > 0")
        if self.keys is not None and not self.keys:
            raise ValueError(f"profile {self.name!r}: keys may not be empty")
        if self.script is not None:
            if not self.script:
                raise ValueError(f"profile {self.name!r}: script may not be empty")
            if self.keys is not None:
                raise ValueError(
                    f"profile {self.name!r}: script and keys are exclusive — "
                    "a scripted profile presses exactly its script"
                )
            from ..tv.remote import KEYS  # deferred: keep spec import-light

            unknown = [key for key in self.script if key not in KEYS]
            if unknown:
                raise ValueError(
                    f"profile {self.name!r}: unknown script keys {unknown!r}"
                )
            if "power" not in self.script:
                # Scripted members skip the automatic power-on (the
                # script owns the session), so a script that never
                # powers the set would run entirely in standby — every
                # press swallowed, every fault unexercised, no error.
                raise ValueError(
                    f"profile {self.name!r}: a script owns its whole "
                    "session and must press 'power' to leave standby"
                )


@dataclass(frozen=True)
class FaultPhase:
    """One entry in the fault-injection schedule.

    At simulated time ``at``, ``fault`` is applied to a seeded
    ``fraction`` of the members of ``kind``.  With ``duration`` the fault
    is cleared again at ``at + duration`` (a scheduled repair); with
    ``pulse_every`` the application repeats on that period until the
    phase window closes (floods and bursts).  With ``recovery`` nothing
    is scheduled at all: the repair comes from the awareness controller
    — each afflicted member's monitor detects the divergence and walks
    the Fig. 1 recovery ladder (local reset → component restart →
    rebind), with per-wave time-to-recover recorded in fleet telemetry.
    """

    fault: str
    at: float
    kind: str = "tv"
    fraction: float = 0.25
    duration: Optional[float] = None
    pulse_every: Optional[float] = None
    recovery: bool = False

    @property
    def marks_faulty(self) -> bool:
        """Whether targets count as fault-injected for detection rates."""
        return (self.kind, self.fault) not in LOAD_FAULTS

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "fault": self.fault,
            "at": float(self.at),
            "kind": self.kind,
            "fraction": float(self.fraction),
        }
        if self.duration is not None:
            data["duration"] = float(self.duration)
        if self.pulse_every is not None:
            data["pulse_every"] = float(self.pulse_every)
        if self.recovery:
            data["recovery"] = True
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FaultPhase":
        return cls(
            fault=data["fault"],
            at=float(data["at"]),
            kind=data.get("kind", "tv"),
            fraction=float(data.get("fraction", 0.25)),
            duration=_opt_float(data.get("duration")),
            pulse_every=_opt_float(data.get("pulse_every")),
            recovery=bool(data.get("recovery", False)),
        )

    def validate(self) -> None:
        if (self.kind, self.fault) not in KNOWN_FAULTS:
            raise ValueError(f"unknown fault {self.fault!r} for kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault {self.fault!r}: at must be >= 0")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fault {self.fault!r}: fraction must be in (0, 1]")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"fault {self.fault!r}: duration must be > 0")
        if self.pulse_every is not None:
            if self.pulse_every <= 0:
                raise ValueError(f"fault {self.fault!r}: pulse_every must be > 0")
            if self.duration is None:
                raise ValueError(
                    f"fault {self.fault!r}: pulse_every needs a duration window"
                )
        if self.recovery:
            if not self.marks_faulty:
                raise ValueError(
                    f"fault {self.fault!r}: load faults are never detected, "
                    "so controller-driven recovery cannot repair them"
                )
            if self.duration is not None or self.pulse_every is not None:
                raise ValueError(
                    f"fault {self.fault!r}: a recovery phase repairs through "
                    "the awareness controller, not the schedule — drop "
                    "duration/pulse_every"
                )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative campaign: who, what, when, for how long."""

    name: str
    description: str
    duration: float
    # device mix ------------------------------------------------------
    tvs: int = 0
    players: int = 0
    printers: int = 0
    # behavior --------------------------------------------------------
    profiles: Tuple[UserProfile, ...] = (UserProfile("default"),)
    phases: Tuple[FaultPhase, ...] = ()
    #: Players issue a seeded seek every this many simulated seconds.
    player_seek_every: Optional[float] = None
    player_packets: int = 500
    corrupt_player_packets: Tuple[int, ...] = ()
    #: Mean gap between background print jobs (None: no background jobs).
    printer_job_gap: Optional[float] = 30.0
    printer_pages: Tuple[int, int] = (1, 4)
    #: Power-on stagger between TVs.
    stagger: float = 0.1
    # telemetry / tracing ---------------------------------------------
    #: None → automatic: retain the full merged trace only for fleets
    #: under :data:`AUTO_STREAM_THRESHOLD` members.
    retain_trace: Optional[bool] = None
    telemetry_window: float = 10.0
    telemetry_reservoir: int = 512
    #: Attach a :class:`~repro.obs.spans.SpanRecorder` so every fault
    #: episode is stitched into a causal span tree (injection →
    #: detection → ranking → rungs → repair).  Off by default — the
    #: paper's overhead budget; when off the harness's ``obs.*`` markers
    #: publish into silence and no digest changes.
    record_spans: bool = False

    AUTO_STREAM_THRESHOLD = 200

    @property
    def members(self) -> int:
        return self.tvs + self.players + self.printers

    def resolve_retain_trace(self) -> bool:
        if self.retain_trace is not None:
            return self.retain_trace
        return self.members < self.AUTO_STREAM_THRESHOLD

    def validate(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"scenario {self.name!r}: duration must be > 0")
        if min(self.tvs, self.players, self.printers) < 0:
            raise ValueError(f"scenario {self.name!r}: negative device count")
        if self.members == 0:
            raise ValueError(f"scenario {self.name!r}: empty device mix")
        if self.tvs and not self.profiles:
            raise ValueError(f"scenario {self.name!r}: TVs need user profiles")
        seen = set()
        for profile in self.profiles:
            profile.validate()
            if profile.name in seen:
                raise ValueError(
                    f"scenario {self.name!r}: duplicate profile {profile.name!r}"
                )
            seen.add(profile.name)
        counts = {"tv": self.tvs, "player": self.players, "printer": self.printers}
        for phase in self.phases:
            phase.validate()
            if phase.at >= self.duration:
                raise ValueError(
                    f"scenario {self.name!r}: fault {phase.fault!r} at "
                    f"{phase.at} starts after the scenario ends"
                )
            if counts.get(phase.kind, 0) == 0:
                raise ValueError(
                    f"scenario {self.name!r}: fault {phase.fault!r} targets "
                    f"kind {phase.kind!r} but the mix has no such devices "
                    "(a silent no-op would read as perfect detection)"
                )
        if self.player_seek_every is not None and self.player_seek_every <= 0:
            raise ValueError(f"scenario {self.name!r}: player_seek_every must be > 0")
        if self.printer_job_gap is not None and self.printer_job_gap <= 0:
            raise ValueError(f"scenario {self.name!r}: printer_job_gap must be > 0")
        if self.printer_pages[0] < 1 or self.printer_pages[1] < self.printer_pages[0]:
            raise ValueError(f"scenario {self.name!r}: bad printer_pages range")

    # ------------------------------------------------------------------
    # canonical serialization (corpus entries, shrunk repros, diffs)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Canonical JSON form: floats are floats, tuples are lists, and
        fields at their dataclass default are omitted — so two equal
        specs always serialize to the same bytes under
        ``json.dumps(..., sort_keys=True)`` and :func:`spec_hash` is a
        stable identity for corpus entries and shrunk repros."""
        data: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "duration": float(self.duration),
            "tvs": int(self.tvs),
            "players": int(self.players),
            "printers": int(self.printers),
            "profiles": [profile.to_json() for profile in self.profiles],
            "phases": [phase.to_json() for phase in self.phases],
            "player_packets": int(self.player_packets),
            "corrupt_player_packets": [
                int(i) for i in self.corrupt_player_packets
            ],
            "printer_pages": [int(p) for p in self.printer_pages],
            "stagger": float(self.stagger),
            "telemetry_window": float(self.telemetry_window),
            "telemetry_reservoir": int(self.telemetry_reservoir),
            "record_spans": bool(self.record_spans),
        }
        if self.player_seek_every is not None:
            data["player_seek_every"] = float(self.player_seek_every)
        if self.printer_job_gap is not None:
            data["printer_job_gap"] = float(self.printer_job_gap)
        if self.retain_trace is not None:
            data["retain_trace"] = bool(self.retain_trace)
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`: ``from_json(spec.to_json())``
        compares equal to ``spec`` (tuples restored from JSON lists —
        the field shapes that used to break round-tripping)."""
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            duration=float(data["duration"]),
            tvs=int(data.get("tvs", 0)),
            players=int(data.get("players", 0)),
            printers=int(data.get("printers", 0)),
            profiles=(
                tuple(
                    UserProfile.from_json(entry)
                    for entry in data["profiles"]
                )
                if "profiles" in data
                else (UserProfile("default"),)
            ),
            phases=tuple(
                FaultPhase.from_json(entry) for entry in data.get("phases", [])
            ),
            player_seek_every=_opt_float(data.get("player_seek_every")),
            player_packets=int(data.get("player_packets", 500)),
            corrupt_player_packets=tuple(
                int(i) for i in data.get("corrupt_player_packets", [])
            ),
            printer_job_gap=_opt_float(data.get("printer_job_gap")),
            printer_pages=tuple(
                int(p) for p in data.get("printer_pages", (1, 4))
            ),
            stagger=float(data.get("stagger", 0.1)),
            retain_trace=(
                None if data.get("retain_trace") is None
                else bool(data["retain_trace"])
            ),
            telemetry_window=float(data.get("telemetry_window", 10.0)),
            telemetry_reservoir=int(data.get("telemetry_reservoir", 512)),
            record_spans=bool(data.get("record_spans", False)),
        )

    def canonical_json(self) -> str:
        """The canonical byte form :func:`spec_hash` hashes."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )

    def scaled(self, factor: float) -> "ScenarioSpec":
        """The same scenario with the device mix scaled by ``factor``
        (at least one device of every kind present in the original)."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")

        def scale(count: int) -> int:
            return max(1, round(count * factor)) if count else 0

        return replace(
            self,
            tvs=scale(self.tvs),
            players=scale(self.players),
            printers=scale(self.printers),
        )
