"""The fuzzer's coverage signal: what one campaign actually exercised.

A candidate earns its place in the corpus by *novelty*, and novelty
needs a coverage alphabet.  :func:`coverage_keys` extracts one flat
string-key set from the artifacts a finished
:func:`~repro.campaign.core.run_cell_detailed` call hands back, across
three layers:

``model:{kind}:{transition}``
    Spec-model transitions the live awareness monitors fired — read off
    ``Machine.fire_counts`` (maintained by ``Machine._fire`` anyway,
    so the signal costs the hot path nothing).  This is the same
    transition universe :meth:`repro.statemachine.testgen.TestGenerator.
    transition_names` explores, which makes the test generator the
    oracle for what the fuzzer has left uncovered.

``fault:{kind}:{fault}`` / ``component:{component}``
    Which of the :data:`~repro.scenarios.spec.KNOWN_FAULTS` entries the
    schedule injected, and (via
    :data:`~repro.diagnosis.components.FAULT_COMPONENTS`) which model
    components those implicate.

``outcome:...``
    Detection / false-alarm / recovery results from the fleet accounting
    — so a candidate that makes a monitor *miss* is novel even when its
    transition footprint is not.

:class:`CoverageMap` accumulates the global set and answers the only
question the corpus asks: "does this candidate add keys we have never
seen?".
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from ..campaign.report import CampaignReport
from ..diagnosis.components import FAULT_COMPONENTS
from ..scenarios.compile import CompiledScenario
from ..scenarios.spec import ScenarioSpec


def model_coverage(compiled: CompiledScenario) -> Set[str]:
    """``model:{kind}:{transition}`` keys for every monitor transition
    that fired at least once during the run."""
    keys: Set[str] = set()
    for member in compiled.fleet.members.values():
        if member.monitor is None:
            continue
        for transition in member.monitor.executor.machine.fire_counts:
            keys.add(f"model:{member.kind}:{transition.name}")
    return keys


def fault_coverage(spec: ScenarioSpec) -> Set[str]:
    """Fault- and component-space keys from the injection schedule."""
    keys: Set[str] = set()
    for phase in spec.phases:
        keys.add(f"fault:{phase.kind}:{phase.fault}")
        component = FAULT_COMPONENTS.get((phase.kind, phase.fault))
        if component is not None:
            keys.add(f"component:{component}")
        if phase.recovery:
            keys.add(f"fault-mode:recovery:{phase.kind}:{phase.fault}")
        elif phase.pulse_every is not None:
            keys.add(f"fault-mode:pulsed:{phase.kind}:{phase.fault}")
        elif phase.duration is not None:
            keys.add(f"fault-mode:windowed:{phase.kind}:{phase.fault}")
    return keys


def outcome_coverage(
    spec: ScenarioSpec,
    report: CampaignReport,
    compiled: CompiledScenario,
) -> Set[str]:
    """Detection / alarm / recovery outcome keys.

    Detection outcomes resolve per *fault pair*, not per member: the
    interesting novelty is "silent_jam went undetected somewhere", not
    which of forty printers it was.
    """
    keys: Set[str] = set()
    detected = set(report.detected)
    by_pair: Dict[Tuple[str, str], Set[str]] = {}
    for index, phase in enumerate(spec.phases):
        if not phase.marks_faulty:
            continue
        for suo_id in compiled.plan.phase_targets[index]:
            if compiled.fleet.members[suo_id].monitor is not None:
                by_pair.setdefault(
                    (phase.kind, phase.fault), set()
                ).add(suo_id)
    for (kind, fault), suo_ids in sorted(by_pair.items()):
        if suo_ids & detected:
            keys.add(f"outcome:detected:{kind}:{fault}")
        if suo_ids - detected:
            keys.add(f"outcome:missed:{kind}:{fault}")
    if report.false_alarms:
        keys.add("outcome:false_alarm")
    for recovery in compiled.recoveries.values():
        if recovery.completed:
            for wave, _ttr in recovery.completed:
                keys.add(f"outcome:recovered:wave{wave}")
        elif recovery.armed:
            keys.add("outcome:recovery_pending")
    return keys


def coverage_keys(
    spec: ScenarioSpec,
    report: CampaignReport,
    compiled: CompiledScenario,
) -> FrozenSet[str]:
    """The candidate's full coverage footprint (one flat key set)."""
    keys = model_coverage(compiled)
    keys |= fault_coverage(spec)
    keys |= outcome_coverage(spec, report, compiled)
    return frozenset(keys)


class CoverageMap:
    """Accumulated global coverage across a fuzz run (and, loaded from
    the corpus store, across every past run)."""

    def __init__(self, seen: Iterable[str] = ()) -> None:
        self._seen: Set[str] = set(seen)

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, key: str) -> bool:
        return key in self._seen

    @property
    def keys(self) -> FrozenSet[str]:
        return frozenset(self._seen)

    def novel(self, keys: Iterable[str]) -> FrozenSet[str]:
        """The subset of ``keys`` never seen before (empty → boring)."""
        return frozenset(keys) - frozenset(self._seen)

    def admit(self, keys: Iterable[str]) -> FrozenSet[str]:
        """Record ``keys``; returns the novel subset they contributed."""
        fresh = self.novel(keys)
        self._seen.update(fresh)
        return fresh

    def by_layer(self) -> Dict[str, int]:
        """Seen-key counts per layer prefix (the ``corpus stats`` view)."""
        counts: Dict[str, int] = {}
        for key in self._seen:
            layer = key.split(":", 1)[0]
            counts[layer] = counts.get(layer, 0) + 1
        return dict(sorted(counts.items()))
