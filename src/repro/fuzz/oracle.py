"""Pass/fail verdicts for fuzz candidates.

Fuzzing only works with an oracle sharper than "did it crash".  Ours is
the repo's own contract surface, checked in severity order:

``crash``
    Compiling or running the scenario raised — always a bug: the
    grammar only emits specs that pass :meth:`ScenarioSpec.validate`.

``digest_divergence``
    The serial run and a 2-shard inline partition of the *same* (spec,
    seed) disagree on the shard-invariant ``telemetry_digest`` — the
    determinism property CI gates on curated scenarios, here checked on
    scenarios nobody wrote.

``false_alarm``
    A monitored, fault-free member raised errors.  The paper's
    awareness monitors must stay silent on healthy SUOs.

``missed_detection``
    A marking fault afflicted a monitored member that finished the run
    with zero errors, even though the fault had at least
    ``detect_grace`` simulated seconds of exposure before the horizon
    (without the grace window, every late-horizon injection would
    "find" a trivial miss).

``unrecovered``
    A ``recovery=True`` phase armed a ladder that never completed —
    the episode's time-to-recover is non-finite at the horizon despite
    ``recover_grace`` seconds of exposure.

The verdict's :attr:`~Verdict.signature` (class + the fault pairs
involved) is the dedupe key: the corpus shrinks one candidate per
signature, not one per noisy instance.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..campaign.core import run_cell, run_cell_detailed
from ..campaign.distributed import DistributedBackend, InlineExecutor
from ..campaign.report import CampaignReport
from ..scenarios.spec import ScenarioSpec
from .coverage import coverage_keys

#: Verdict classes, most severe first (evaluation stops at the first hit).
VERDICT_ORDER = (
    "crash",
    "digest_divergence",
    "false_alarm",
    "missed_detection",
    "unrecovered",
    "ok",
)

#: Minimum simulated exposure before an undetected fault counts as a
#: miss / an uncompleted ladder counts as unrecovered.
DETECT_GRACE = 15.0
RECOVER_GRACE = 40.0


@dataclass(frozen=True)
class Verdict:
    """One candidate's classification."""

    kind: str
    detail: str = ""
    #: Sorted ``(kind, fault)`` pairs implicated in the failure.
    fault_pairs: Tuple[Tuple[str, str], ...] = ()

    @property
    def failing(self) -> bool:
        return self.kind != "ok"

    @property
    def signature(self) -> Tuple[str, ...]:
        """The dedupe/shrink key: class + implicated fault pairs."""
        return (self.kind,) + tuple(
            f"{kind}:{fault}" for kind, fault in self.fault_pairs
        )

    def describe(self) -> str:
        pairs = ", ".join(f"{k}:{f}" for k, f in self.fault_pairs)
        body = self.detail if self.detail else self.kind
        return f"{self.kind}({pairs}): {body}" if pairs else f"{self.kind}: {body}"


@dataclass
class CandidateResult:
    """Everything the engine needs about one evaluated candidate."""

    spec: ScenarioSpec
    seed: int
    verdict: Verdict
    coverage: FrozenSet[str] = frozenset()
    report: Optional[CampaignReport] = None

    @property
    def failing(self) -> bool:
        return self.verdict.failing


def _exposure(spec: ScenarioSpec, phase) -> float:
    """Simulated seconds the phase's fault is live before the horizon."""
    end = spec.duration
    if phase.duration is not None:
        end = min(end, phase.at + phase.duration)
    return max(0.0, end - phase.at)


def classify(
    spec: ScenarioSpec,
    report: CampaignReport,
    compiled,
    shard_digest: Optional[str] = None,
    shard_span_digest: Optional[str] = None,
    detect_grace: float = DETECT_GRACE,
    recover_grace: float = RECOVER_GRACE,
) -> Verdict:
    """Apply the non-crash oracles in severity order."""
    if shard_digest is not None and shard_digest != report.telemetry_digest:
        return Verdict(
            kind="digest_divergence",
            detail=(
                f"serial {report.telemetry_digest[:12]} != "
                f"sharded {shard_digest[:12]}"
            ),
            fault_pairs=tuple(sorted(
                (p.kind, p.fault) for p in spec.phases
            )),
        )
    if (
        shard_span_digest is not None
        and shard_span_digest != report.span_digest
    ):
        return Verdict(
            kind="digest_divergence",
            detail=(
                f"span forest serial {report.span_digest[:12]} != "
                f"sharded {shard_span_digest[:12]}"
            ),
            fault_pairs=tuple(sorted(
                (p.kind, p.fault) for p in spec.phases
            )),
        )
    if report.false_alarms:
        return Verdict(
            kind="false_alarm",
            detail=f"clean members raised errors: {sorted(report.false_alarms)}",
            fault_pairs=tuple(sorted(
                {(p.kind, p.fault) for p in spec.phases}
            )),
        )
    detected = set(report.detected)
    missed_pairs = set()
    for index, phase in enumerate(spec.phases):
        if not phase.marks_faulty:
            continue
        if _exposure(spec, phase) < detect_grace:
            continue
        # The plan's per-phase target list is the attribution ground
        # truth — misses must not bleed onto other faults of the same
        # kind.  Unmonitored members never enter detection accounting.
        targets = {
            suo_id
            for suo_id in compiled.plan.phase_targets[index]
            if compiled.fleet.members[suo_id].monitor is not None
        }
        if targets - detected:
            missed_pairs.add((phase.kind, phase.fault))
    if missed_pairs:
        return Verdict(
            kind="missed_detection",
            detail="faulty members finished with zero monitor errors",
            fault_pairs=tuple(sorted(missed_pairs)),
        )
    unrecovered_pairs = set()
    for index, phase in enumerate(spec.phases):
        if not phase.recovery:
            continue
        for suo_id in compiled.plan.phase_targets[index]:
            harness = compiled.recoveries.get(suo_id)
            if harness is None or harness.completed:
                continue
            member = compiled.fleet.members[suo_id]
            errors = member.monitor.errors if member.monitor else []
            if not errors:
                continue  # never detected → that's a miss, not a hang
            # The ladder's clock starts at first detection; only call it
            # hung when it had real time to walk the rungs.
            if spec.duration - errors[0].time >= recover_grace:
                unrecovered_pairs.add((phase.kind, phase.fault))
    if unrecovered_pairs:
        return Verdict(
            kind="unrecovered",
            detail="armed recovery ladder never completed (non-finite TTR)",
            fault_pairs=tuple(sorted(unrecovered_pairs)),
        )
    return Verdict(kind="ok")


def evaluate_candidate(
    spec: ScenarioSpec,
    seed: int,
    check_divergence: bool = True,
    detect_grace: float = DETECT_GRACE,
    recover_grace: float = RECOVER_GRACE,
) -> CandidateResult:
    """Run one candidate through the campaign surface and classify it.

    With ``check_divergence`` the candidate also runs under a 2-shard
    inline partition (same processes-free merge path CI gates) and the
    two telemetry digests must agree — this is how the fuzzer hunts
    placement-dependence bugs on scenarios the curated suite never
    tries.
    """
    try:
        cell = run_cell_detailed(spec, seed)
        report, compiled = cell.report, cell.compiled
        shard_digest = None
        shard_span_digest = None
        if check_divergence and spec.members >= 2:
            sharded = run_cell(
                spec, seed,
                backend=DistributedBackend(
                    InlineExecutor(), shards=2, parallelism=1
                ),
            )
            shard_digest = sharded.telemetry_digest
            if spec.record_spans:
                shard_span_digest = sharded.span_digest
    except Exception as exc:  # noqa: BLE001 — any raise is the finding
        return CandidateResult(
            spec=spec,
            seed=seed,
            verdict=Verdict(
                kind="crash",
                detail="".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip(),
                fault_pairs=tuple(sorted(
                    {(p.kind, p.fault) for p in spec.phases}
                )),
            ),
        )
    verdict = classify(
        spec, report, compiled,
        shard_digest=shard_digest,
        shard_span_digest=shard_span_digest,
        detect_grace=detect_grace,
        recover_grace=recover_grace,
    )
    return CandidateResult(
        spec=spec,
        seed=seed,
        verdict=verdict,
        coverage=coverage_keys(spec, report, compiled),
        report=report,
    )
