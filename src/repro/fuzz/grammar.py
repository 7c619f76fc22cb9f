"""The scenario grammar: sampling and mutating :class:`ScenarioSpec`s.

The 13-scenario library is hand-authored; this module is the generative
complement.  :class:`ScenarioGrammar` draws complete, *valid* specs from
a seeded stream:

* **device mixes** — small fleets (throughput: a fuzz candidate should
  run in well under a second) spanning TVs, players, and printers;
* **user profiles** — key sequences generated as Markov chains over the
  existing profile op vocabulary (the keys the library's zapper /
  couch / reader profiles press), emitted either as a weighted key pool
  for :class:`~repro.tv.remote.RandomUser` or, occasionally, as a
  deterministic ``script``;
* **fault schedules** — :class:`FaultPhase` entries over every
  ``(kind, fault)`` in :data:`repro.faults.FAULTS`,
  including windowed repairs, pulsed floods, recovery-ladder phases,
  and the edge positions (``at=0``, late-horizon) hand authors avoid.

Every draw is a pure function of ``(grammar seed, candidate index)``, so
a fuzz run replays identically — the engine's determinism gate depends
on it.  :meth:`mutate` applies one seeded structural edit to an existing
spec (the corpus-frontier half of coverage-guided search).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..faults import FAULTS
from ..scenarios.spec import FaultPhase, ScenarioSpec, UserProfile
from ..sim.random import RandomStreams

#: The op vocabulary the library's hand-written profiles draw from —
#: the Markov chains walk over exactly this alphabet, so generated
#: behaviour stays inside the remote's real key space.
OP_VOCABULARY: Tuple[str, ...] = (
    "power", "ch_up", "ch_down", "vol_up", "vol_down", "mute",
    "ttx", "menu", "back", "dual", "swap", "epg", "ok", "sleep",
    "digit1", "digit5", "digit9",
)

#: Faults a ``recovery=True`` phase may carry: latent faults only
#: (load faults are never detected, so a ladder could not repair them).
RECOVERABLE_FAULTS: Tuple[Tuple[str, str], ...] = tuple(
    sorted(key for key, fault in FAULTS.items() if fault.component is not None)
)

_ALL_FAULTS: Tuple[Tuple[str, str], ...] = tuple(sorted(FAULTS))


def _markov_matrix(
    rng: random.Random, vocabulary: Sequence[str]
) -> dict:
    """A sparse row-stochastic successor table: each op gets 2-4 likely
    successors with seeded weights (the chain structure that makes a
    generated session look like a user, not white noise)."""
    table = {}
    for op in vocabulary:
        fanout = rng.randint(2, 4)
        successors = rng.sample(list(vocabulary), fanout)
        weights = [rng.uniform(0.5, 2.0) for _ in successors]
        table[op] = (successors, weights)
    return table


def markov_walk(
    rng: random.Random,
    length: int,
    vocabulary: Sequence[str] = OP_VOCABULARY,
    start: Optional[str] = None,
) -> List[str]:
    """One op sequence from a freshly sampled Markov chain."""
    table = _markov_matrix(rng, vocabulary)
    op = start if start is not None else rng.choice(list(vocabulary))
    walk = [op]
    for _ in range(length - 1):
        successors, weights = table[op]
        op = rng.choices(successors, weights=weights)[0]
        walk.append(op)
    return walk


class ScenarioGrammar:
    """Seeded sampler over the scenario space.

    ``sample(index)`` is index-addressed (stream per candidate), so
    candidate N is the same spec whether or not candidates 0..N-1 were
    evaluated — shrinking and corpus replay never perturb the draw.
    """

    #: Candidate horizons stay short: coverage novelty, not soak length,
    #: is the signal, and CI budgets are seconds.
    DURATION_RANGE = (20.0, 60.0)
    MAX_PHASES = 3

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    def _rng(self, role: str, index: int) -> random.Random:
        return self._streams.stream(f"fuzz.{role}.{index}")

    def sample(self, index: int) -> ScenarioSpec:
        """Draw candidate ``index`` (always a valid spec)."""
        rng = self._rng("sample", index)
        duration = rng.uniform(*self.DURATION_RANGE)
        # Device mix: at least one member; bias toward small mixed fleets.
        tvs = rng.choice((0, 1, 2, 3, 4, 6))
        players = rng.choice((0, 0, 1, 2, 3))
        printers = rng.choice((0, 0, 1, 2))
        if tvs + players + printers == 0:
            tvs = rng.randint(1, 4)
        profiles = self._profiles(rng) if tvs else (UserProfile("default"),)
        phases = self._phases(rng, duration, tvs, players, printers)
        spec = ScenarioSpec(
            name=f"fuzz-{self.seed}-{index}",
            description="grammar-sampled scenario (repro.fuzz)",
            duration=round(duration, 1),
            tvs=tvs,
            players=players,
            printers=printers,
            profiles=profiles,
            phases=phases,
            player_seek_every=(
                round(rng.uniform(2.0, 8.0), 1)
                if players and rng.random() < 0.7 else None
            ),
            player_packets=200,
            corrupt_player_packets=self._corrupt_packets(rng, players),
            printer_job_gap=(
                round(rng.uniform(5.0, 25.0), 1)
                if printers and rng.random() < 0.8 else None
            ),
            printer_pages=(1, rng.randint(1, 6)),
            # Some candidates fuzz the causal-span layer too: the span
            # forest digest is a shard-invariance witness just like the
            # telemetry digest, so it deserves adversarial scenarios.
            record_spans=bool(phases) and rng.random() < 0.25,
        )
        spec.validate()
        return spec

    # ------------------------------------------------------------------
    def _profiles(self, rng: random.Random) -> Tuple[UserProfile, ...]:
        count = rng.choice((1, 1, 2))
        profiles = []
        for slot in range(count):
            mean_gap = round(rng.uniform(0.8, 12.0), 2)
            if rng.random() < 0.15:
                # A deterministic scripted session: a true Markov walk,
                # anchored by the mandatory power-on.
                script = ["power"] + markov_walk(
                    rng, rng.randint(6, 16)
                )
                profiles.append(UserProfile(
                    name=f"script-{slot}",
                    mean_gap=max(mean_gap, 1.0),
                    script=tuple(script),
                ))
            else:
                # A weighted key pool: the walk's visit frequencies
                # become press probabilities under RandomUser.
                pool = markov_walk(rng, rng.randint(4, 14))
                profiles.append(UserProfile(
                    name=f"markov-{slot}",
                    mean_gap=mean_gap,
                    keys=tuple(pool),
                    weight=round(rng.uniform(0.5, 2.0), 2),
                ))
        return tuple(profiles)

    def _corrupt_packets(
        self, rng: random.Random, players: int
    ) -> Tuple[int, ...]:
        if not players or rng.random() < 0.4:
            return ()
        clusters = rng.randint(1, 4)
        packets: List[int] = []
        for _ in range(clusters):
            start = rng.randint(0, 180)
            packets.extend(range(start, start + rng.randint(1, 3)))
        return tuple(sorted(set(packets)))

    def _phases(
        self,
        rng: random.Random,
        duration: float,
        tvs: int,
        players: int,
        printers: int,
    ) -> Tuple[FaultPhase, ...]:
        present = {
            kind
            for kind, count in (
                ("tv", tvs), ("player", players), ("printer", printers)
            )
            if count
        }
        eligible = [
            (kind, fault) for kind, fault in _ALL_FAULTS if kind in present
        ]
        if not eligible:
            return ()
        phases = []
        for _ in range(rng.randint(0, self.MAX_PHASES)):
            kind, fault = rng.choice(eligible)
            # Edge positions on purpose: t=0 and the late horizon are
            # exactly where hand-written schedules never put a fault.
            roll = rng.random()
            if roll < 0.1:
                at = 0.0
            elif roll < 0.2:
                at = round(duration * rng.uniform(0.85, 0.99), 1)
            else:
                at = round(rng.uniform(0.0, duration * 0.8), 1)
            if at >= duration:
                at = round(duration * 0.8, 1)
            fraction = round(rng.uniform(0.2, 1.0), 2)
            recovery = (
                (kind, fault) in RECOVERABLE_FAULTS and rng.random() < 0.3
            )
            window: Optional[float] = None
            pulse: Optional[float] = None
            if not recovery and rng.random() < 0.4:
                window = round(rng.uniform(5.0, duration - at + 1.0), 1)
                if rng.random() < 0.3:
                    pulse = round(rng.uniform(2.0, max(2.5, window / 2)), 1)
            phases.append(FaultPhase(
                fault=fault,
                at=at,
                kind=kind,
                fraction=fraction,
                duration=window,
                pulse_every=pulse,
                recovery=recovery,
            ))
        return tuple(phases)

    # ------------------------------------------------------------------
    # mutation (the corpus-frontier half of the search)
    # ------------------------------------------------------------------
    def mutate(self, spec: ScenarioSpec, index: int) -> ScenarioSpec:
        """One seeded structural edit of ``spec`` (always valid; falls
        back to a fresh sample if the edit dead-ends)."""
        rng = self._rng("mutate", index)
        for _ in range(8):  # a few tries: some edits invalidate the spec
            candidate = self._mutate_once(spec, rng, index)
            if candidate is None:
                continue
            try:
                candidate.validate()
            except ValueError:
                continue
            return candidate
        return self.sample(index)

    def _mutate_once(
        self, spec: ScenarioSpec, rng: random.Random, index: int
    ) -> Optional[ScenarioSpec]:
        name = f"fuzz-{self.seed}-{index}m"
        op = rng.choice((
            "add_phase", "drop_phase", "shift_phase", "widen_fraction",
            "device_mix", "reprofile", "duration",
        ))
        if op == "add_phase":
            extra = self._phases(
                rng, spec.duration, spec.tvs, spec.players, spec.printers
            )
            if not extra:
                return None
            return replace(spec, name=name, phases=spec.phases + extra[:1])
        if op == "drop_phase":
            if not spec.phases:
                return None
            victim = rng.randrange(len(spec.phases))
            return replace(spec, name=name, phases=tuple(
                phase for i, phase in enumerate(spec.phases) if i != victim
            ))
        if op == "shift_phase":
            if not spec.phases:
                return None
            slot = rng.randrange(len(spec.phases))
            shifted = replace(
                spec.phases[slot],
                at=round(rng.uniform(0.0, spec.duration * 0.9), 1),
            )
            return replace(spec, name=name, phases=tuple(
                shifted if i == slot else phase
                for i, phase in enumerate(spec.phases)
            ))
        if op == "widen_fraction":
            if not spec.phases:
                return None
            slot = rng.randrange(len(spec.phases))
            widened = replace(
                spec.phases[slot], fraction=round(rng.uniform(0.5, 1.0), 2)
            )
            return replace(spec, name=name, phases=tuple(
                widened if i == slot else phase
                for i, phase in enumerate(spec.phases)
            ))
        if op == "device_mix":
            kind = rng.choice(("tvs", "players", "printers"))
            delta = rng.choice((-2, -1, 1, 2))
            counts = {
                "tvs": spec.tvs, "players": spec.players,
                "printers": spec.printers,
            }
            counts[kind] = max(0, counts[kind] + delta)
            return replace(spec, name=name, **counts)
        if op == "reprofile":
            if not spec.tvs:
                return None
            return replace(spec, name=name, profiles=self._profiles(rng))
        # duration
        factor = rng.choice((0.5, 0.75, 1.5))
        return replace(
            spec, name=name, duration=round(spec.duration * factor, 1)
        )
