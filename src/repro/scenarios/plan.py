"""Scenario placement plans: the determinism seam under sharded execution.

A compiled scenario makes three kinds of global stochastic decisions
*before* any event is dispatched: which ``suo_id`` every member gets,
which user profile each TV is assigned, and which members every fault
phase afflicts.  When one kernel runs the whole fleet those decisions can
be drawn lazily; once the fleet is partitioned across worker processes
they must be **planned up front from the campaign seed**, or shard
placement would perturb behaviour and a sharded run could never match
its serial twin.

:func:`build_plan` computes those decisions as a pure function of
``(spec, seed)`` — drawing from exactly the streams the PR 2 compiler
used, so serial campaigns are bit-compatible — and
:func:`partition_plan` splits a plan round-robin per device kind into
per-shard plans, each carrying a partitioned :class:`ScenarioSpec` plus
the global identities, profile assignments, stagger slots, and phase
targets of its members.

Determinism rules (see docs/CAMPAIGNS.md):

* per-member behaviour is keyed to ``(campaign seed, suo_id)`` — a
  member simulates identically whichever shard it lands on;
* fleet-internal streams of a shard (telemetry reservoir sampling) are
  keyed to :func:`derive_shard_seed` ``(seed, shard_id)``;
* everything the plan decides is keyed to the campaign seed alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..runtime.fleet import derive_member_seed
from ..sim.random import RandomStreams
from .spec import ScenarioSpec

KINDS = ("tv", "player", "printer")


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """Stable per-shard seed for shard-local streams."""
    digest = hashlib.sha256(f"shard:{seed}:{shard_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PlannedMember:
    """One member's global identity and placement-independent slots."""

    suo_id: str
    kind: str
    #: Index among members of the same kind across the *whole* campaign
    #: (drives power-on/play stagger, so it must survive partitioning).
    kind_index: int
    #: Assigned user profile name (TVs only).
    profile: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "suo_id": self.suo_id,
            "kind": self.kind,
            "kind_index": self.kind_index,
        }
        if self.profile is not None:
            data["profile"] = self.profile
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "PlannedMember":
        return cls(
            suo_id=str(data["suo_id"]),
            kind=str(data["kind"]),
            kind_index=int(data["kind_index"]),
            profile=(
                None if data.get("profile") is None
                else str(data["profile"])
            ),
        )


@dataclass(frozen=True)
class ScenarioPlan:
    """All pre-run decisions for one (scenario, seed) cell — or for one
    shard's slice of it."""

    spec: ScenarioSpec
    seed: int
    members: Tuple[PlannedMember, ...]
    #: Per fault phase, the suo_ids it afflicts (global decision; a
    #: shard plan keeps only its local members' entries).
    phase_targets: Tuple[Tuple[str, ...], ...]
    shard_id: int = 0
    shards: int = 1

    def members_of(self, kind: str) -> List[PlannedMember]:
        return [member for member in self.members if member.kind == kind]

    @property
    def is_shard(self) -> bool:
        return self.shards > 1

    # ------------------------------------------------------------------
    # wire form: how a remote-dispatch backend ships a shard plan to a
    # worker on another host (see repro.campaign.distributed).  The JSON
    # round-trip is exact — plan_from_json(plan.to_json()) == plan — so
    # a socket worker executes the byte-identical placement decisions.
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_json(),
            "seed": self.seed,
            "members": [member.to_json() for member in self.members],
            "phase_targets": [list(targets) for targets in self.phase_targets],
            "shard_id": self.shard_id,
            "shards": self.shards,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ScenarioPlan":
        return cls(
            spec=ScenarioSpec.from_json(data["spec"]),
            seed=int(data["seed"]),
            members=tuple(
                PlannedMember.from_json(entry)
                for entry in data["members"]
            ),
            phase_targets=tuple(
                tuple(str(suo) for suo in targets)
                for targets in data.get("phase_targets", [])
            ),
            shard_id=int(data.get("shard_id", 0)),
            shards=int(data.get("shards", 1)),
        )


def build_plan(spec: ScenarioSpec, seed: int = 0) -> ScenarioPlan:
    """Plan one full (unsharded) scenario cell.

    Stream discipline mirrors the PR 2 compiler exactly — suo_ids embed
    the global admission slot, profiles draw one ``choices`` per TV from
    the ``scenario.profiles`` stream, phase targets draw one ``random``
    per member of the phase's kind from ``scenario.phase.<i>`` — so a
    serial campaign compiled from this plan reproduces the PR 2 event
    stream byte for byte.
    """
    spec.validate()
    streams = RandomStreams(derive_member_seed(seed, "<fleet>"))
    members: List[PlannedMember] = []
    slot = 0
    for kind, count in (("tv", spec.tvs), ("player", spec.players),
                        ("printer", spec.printers)):
        for kind_index in range(count):
            members.append(PlannedMember(f"{kind}-{slot}", kind, kind_index))
            slot += 1
    if spec.profiles and spec.tvs:
        rng = streams.stream("scenario.profiles")
        profiles = list(spec.profiles)
        weights = [profile.weight for profile in profiles]
        members = [
            replace(member, profile=rng.choices(profiles, weights=weights)[0].name)
            if member.kind == "tv"
            else member
            for member in members
        ]
    phase_targets: List[Tuple[str, ...]] = []
    for index, phase in enumerate(spec.phases):
        rng = streams.stream(f"scenario.phase.{index}")
        phase_targets.append(tuple(
            member.suo_id
            for member in members
            if member.kind == phase.kind and rng.random() < phase.fraction
        ))
    return ScenarioPlan(
        spec=spec,
        seed=seed,
        members=tuple(members),
        phase_targets=tuple(phase_targets),
    )


def partition_plan(plan: ScenarioPlan, shards: int) -> List[ScenarioPlan]:
    """Split a full plan into per-shard plans, round-robin per kind.

    Each shard plan carries a partitioned spec (device counts shrink to
    the shard's slice) while members keep their global suo_ids, kind
    indices, profiles, and phase memberships.  Shards that would be empty are dropped, so asking for
    more shards than members degrades gracefully.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if plan.is_shard:
        raise ValueError("cannot re-partition a shard plan")
    if shards == 1:
        return [plan]
    buckets: List[List[PlannedMember]] = [[] for _ in range(shards)]
    for kind in KINDS:
        for index, member in enumerate(plan.members_of(kind)):
            buckets[index % shards].append(member)
    result: List[ScenarioPlan] = []
    for shard_id, bucket in enumerate(buckets):
        if not bucket:
            continue
        local = {member.suo_id for member in bucket}
        counts: Dict[str, int] = {kind: 0 for kind in KINDS}
        for member in bucket:
            counts[member.kind] += 1
        shard_spec = replace(
            plan.spec,
            tvs=counts["tv"],
            players=counts["player"],
            printers=counts["printer"],
        )
        result.append(ScenarioPlan(
            spec=shard_spec,
            seed=plan.seed,
            members=tuple(bucket),
            phase_targets=tuple(
                tuple(suo_id for suo_id in targets if suo_id in local)
                for targets in plan.phase_targets
            ),
            shard_id=shard_id,
            shards=shards,
        ))
    return result
