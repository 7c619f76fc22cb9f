"""Execution backends: the one seam every campaign cell runs through.

Campaign execution has a single protocol:

* **executors** implement ``submit(plan) -> ShardResult`` — run one
  per-shard :class:`~repro.scenarios.plan.ScenarioPlan` wherever the
  backend keeps its workers (in-process, a worker process, another
  host) and hand back the shard's mergeable payload;
* **orchestration** lives in exactly one place,
  :func:`repro.campaign.core.execute_cell` — plan, partition, skip
  checkpointed shards, submit the rest, merge — and every backend
  (serial, or distributed over in-process, per-process or socket
  workers) flows through it.

The sharded contract (verified by ``tests/test_campaign.py`` and gated
in CI) is unchanged:

* merged counter/tally telemetry is **identical** to the serial run's —
  per-member behaviour keys to ``(campaign seed, suo_id)`` so placement
  cannot perturb it;
* per-shard trace digests are reproducible across reruns;
* shard-local randomness (reservoir sampling) keys to
  ``derive_shard_seed(seed, shard_id)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from ..runtime.fleet import FleetReport
from ..scenarios.compile import CompiledScenario
from ..scenarios.plan import ScenarioPlan, derive_shard_seed
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "ExecutionBackend",
    "ExecutorBackend",
    "SerialBackend",
    "ShardResult",
    "derive_shard_seed",
    "execute_plan",
    "execute_plan_detailed",
    "execute_plan_segmented",
    "resolve_shards",
]

#: Fewest members worth a dedicated worker process: below this the
#: fork/merge overhead of another shard outweighs its share of the
#: simulation (measured on bench_e16 scale points).
MIN_MEMBERS_PER_SHARD = 25


def resolve_shards(members: int, cpu_count: Optional[int] = None) -> int:
    """Pick a shard count from the host and the plan size (ROADMAP
    "shard-count autotuning").

    One shard per ``MIN_MEMBERS_PER_SHARD`` members, capped at the CPU
    count — a 1-CPU container degrades to a single in-process shard and
    a thousand-SUO cell on a big host fans out to every core.  Every
    backend's ``resolve()`` routes through here, and the resolved count
    is what a :class:`~repro.campaign.checkpoint.CampaignCheckpoint`
    records — so an autotune decision is visible in the checkpoint row
    instead of vanishing with the process that made it.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    by_size = max(1, members // MIN_MEMBERS_PER_SHARD)
    return max(1, min(cpus, by_size))


# ----------------------------------------------------------------------
# the unit of work and the unit of result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardResult:
    """One executed shard: the durable, mergeable unit of a campaign.

    ``payload`` is the JSON-safe dict :func:`execute_plan` produces
    (mergeable summary, span block, digests, detection accounting);
    ``attempt`` and ``worker`` record how the shard got executed — the
    fault-tolerance provenance a checkpoint row keeps.  The payload is
    exactly what :func:`~repro.campaign.report.merge_shard_results`
    folds, so a result loaded back from a checkpoint merges bit-for-bit
    like a fresh one.
    """

    shard_id: int
    payload: Dict[str, Any] = field(repr=False)
    attempt: int = 0
    worker: str = "local"

    def to_json(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "worker": self.worker,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ShardResult":
        return cls(
            shard_id=int(data["shard_id"]),
            payload=data["payload"],
            attempt=int(data.get("attempt", 0)),
            worker=str(data.get("worker", "local")),
        )


def _shard_payload(
    compiled: CompiledScenario, fleet_report: FleetReport
) -> Dict[str, Any]:
    """Everything a worker sends home: JSON-friendly, mergeable."""
    fleet = compiled.fleet
    return {
        "shard_id": compiled.plan.shard_id,
        "members": len(fleet),
        "duration": fleet_report.duration,
        "dispatched": fleet_report.dispatched,
        "wall_seconds": fleet_report.wall_seconds,
        "trace_digest": fleet.trace_digest(),
        "trace_records": fleet.record_count(),
        # per_suo + samples make the summary mergeable (see telemetry).
        "summary": fleet.telemetry.summary(per_suo=True, samples=True),
        "faulty": fleet_report.faulty,
        "detected": fleet_report.detected,
        "false_alarms": fleet_report.false_alarms,
        "monitored_clean": fleet_report.monitored_clean or 0,
        "errors_by_suo": fleet_report.errors_by_suo,
        "profile_mix": {
            name: len(group)
            for name, group in compiled.profile_groups.items()
        },
        # Causal-span block (None unless the spec set record_spans):
        # counters + digest triples merge exactly; see merge_span_blocks.
        "spans": (
            compiled.span_recorder.mergeable()
            if compiled.span_recorder is not None else None
        ),
    }


def execute_plan(plan: ScenarioPlan) -> Dict[str, Any]:
    """Compile and run one plan (a full cell or one shard of it).

    The executor primitive every backend bottoms out in: worker
    processes and socket workers on another host run the byte-identical
    code path.
    """
    compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
    fleet_report = compiled.run()
    return _shard_payload(compiled, fleet_report)


def execute_plan_segmented(
    plan: ScenarioPlan,
    segments: int,
    on_segment: Optional[Callable[[CompiledScenario, int, float], None]] = None,
) -> Dict[str, Any]:
    """:func:`execute_plan`, sliced into ``segments`` kernel runs.

    The payload is byte-identical to :func:`execute_plan`'s for any
    segment count (see :meth:`CompiledScenario.run_segmented`); the
    difference is purely observational — ``on_segment`` fires between
    slices with live telemetry flushed, which is where the campaign
    service samples :class:`~repro.runtime.telemetry.FleetTelemetry`
    snapshots for its NDJSON stream and checks for cancellation.
    """
    compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
    fleet_report = compiled.run_segmented(segments, on_segment=on_segment)
    return _shard_payload(compiled, fleet_report)


def execute_plan_detailed(
    plan: ScenarioPlan,
) -> Tuple[Dict[str, Any], FleetReport, CompiledScenario]:
    """:func:`execute_plan` plus the live compiled objects.

    Only meaningful in-process; this is what the detailed serial path
    (:func:`repro.campaign.core.run_cell_detailed`) uses so callers can
    still inspect members, span recorders, and fleet internals."""
    compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
    fleet_report = compiled.run()
    return _shard_payload(compiled, fleet_report), fleet_report, compiled


#: Callback invoked with each completed :class:`ShardResult` as it
#: lands (checkpoint writes hook in here).
ResultSink = Callable[[ShardResult], None]


# ----------------------------------------------------------------------
# the unified backend protocol
# ----------------------------------------------------------------------
@runtime_checkable
class ExecutionBackend(Protocol):
    """Anything that can execute per-shard plans for a campaign cell.

    ``resolve`` picks the shard count for a spec, ``submit`` executes
    one plan, ``submit_all`` executes a batch (possibly in parallel) and
    streams results into ``on_result``.
    """

    name: str

    def resolve(self, spec: ScenarioSpec) -> int: ...

    def submit(self, plan: ScenarioPlan) -> ShardResult: ...

    def submit_all(
        self,
        plans: Sequence[ScenarioPlan],
        on_result: Optional[ResultSink] = None,
    ) -> List[ShardResult]: ...


class ExecutorBackend:
    """Base class wiring a ``submit`` seam into the one orchestration
    path (:func:`repro.campaign.core.execute_cell`).

    Subclasses override :meth:`submit` (and optionally
    :meth:`submit_all` for parallel dispatch and :meth:`resolve` for
    their sharding policy); everything above — planning, partitioning,
    checkpoint skip/record, merging — is shared and identical across
    serial and distributed execution.
    """

    name = "executor"

    # -- sharding policy ------------------------------------------------
    def resolve(self, spec: ScenarioSpec) -> int:
        """The shard count this backend will use for one cell."""
        return 1

    # -- the executor seam ----------------------------------------------
    def submit(self, plan: ScenarioPlan) -> ShardResult:
        raise NotImplementedError

    def submit_all(
        self,
        plans: Sequence[ScenarioPlan],
        on_result: Optional[ResultSink] = None,
    ) -> List[ShardResult]:
        """Execute a batch of shard plans; default is sequential."""
        results = []
        for plan in plans:
            result = self.submit(plan)
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results


class SerialBackend(ExecutorBackend):
    """The single-kernel path: one fleet, one telemetry hub, in-process.

    Routes its one shard through the same merge as every other backend,
    so serial and sharded reports are structurally identical and their
    ``telemetry_digest`` fields are directly comparable.
    """

    name = "serial"

    def submit(self, plan: ScenarioPlan) -> ShardResult:
        return ShardResult(
            shard_id=plan.shard_id, payload=execute_plan(plan),
            worker="inline",
        )
