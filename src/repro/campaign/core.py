"""Campaign: the unified entry point for running scenario campaigns.

A :class:`Campaign` is a scenario × seed *plan* — scenarios given as
library names or :class:`~repro.scenarios.ScenarioSpec` objects —
executed by a :class:`~repro.campaign.backends.DistributedBackend` over
a pluggable shard executor (:class:`SerialBackend` by default).

    from repro.campaign import (
        Campaign, DistributedBackend, ProcessWorkerExecutor,
    )

    campaign = Campaign(["zapping-storm", "alert-flood"], seeds=[1, 2])
    reports = campaign.run()                          # serial, in-process
    sharded = campaign.run(
        DistributedBackend(ProcessWorkerExecutor(), shards=4)
    )

Every cell flows through :func:`execute_cell` — THE
orchestration path: build the placement plan, resolve the shard count,
partition, skip shards a checkpoint already holds, submit the rest
through the backend's executor, merge.  Attaching a
:class:`~repro.campaign.checkpoint.CampaignCheckpoint` makes every
completed shard durable, so an interrupted campaign resumes where it
stopped with a byte-identical ``telemetry_digest``.
"""

from __future__ import annotations

import time as wallclock
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..runtime.fleet import FleetReport
from ..scenarios.compile import CompiledScenario
from ..scenarios.library import get_scenario
from ..scenarios.plan import build_plan, partition_plan
from ..scenarios.spec import ScenarioSpec
from .backends import DistributedBackend, SerialBackend, ShardResult
from .report import CampaignReport, merge_shard_results

ScenarioLike = Union[str, ScenarioSpec]


def _resolve_scenario(scenario: ScenarioLike, scale: float = 1.0) -> ScenarioSpec:
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if scale != 1.0:
        spec = spec.scaled(scale)
    spec.validate()
    return spec


def _merge(
    spec: ScenarioSpec,
    seed: int,
    backend: str,
    payloads: List[Dict[str, Any]],
    start: float,
) -> CampaignReport:
    """Fold one cell's shard payloads (in shard order) into its report."""
    return merge_shard_results(
        scenario=spec.name,
        seed=seed,
        backend=backend,
        shards=len(payloads),
        results=payloads,
        wall_seconds=wallclock.perf_counter() - start,
        reservoir=spec.telemetry_reservoir,
    )


# ----------------------------------------------------------------------
# THE orchestration path
# ----------------------------------------------------------------------
def execute_cell(
    spec: ScenarioSpec,
    seed: int,
    backend: Optional[DistributedBackend] = None,
    checkpoint: Optional[Any] = None,
    campaign_id: Optional[str] = None,
) -> CampaignReport:
    """Run one (scenario, seed) cell — the single path every backend
    (serial or distributed) flows through.

    1. resolve the shard count — from the backend's policy, or from the
       checkpoint row when the cell was started before (the partition
       must not drift between a run and its resume);
    2. build the placement plan from the campaign seed and partition it;
    3. skip shards the checkpoint already holds, submit the rest
       through the backend's executor seam, recording each completed
       shard durably as it lands;
    4. merge everything into one :class:`CampaignReport` whose
       ``telemetry_digest`` is byte-identical however (and in however
       many sittings) the cell was executed.

    ``checkpoint`` is a
    :class:`~repro.campaign.checkpoint.CampaignCheckpoint` (or None for
    ephemeral runs); ``campaign_id`` names the campaign in the store.
    """
    engine = backend or SerialBackend()
    spec.validate()
    start = wallclock.perf_counter()
    cell = None
    if checkpoint is not None:
        cell = checkpoint.begin_cell(
            campaign_id=campaign_id, spec=spec, seed=seed, backend=engine,
        )
        shards = cell.resolved_shards
    else:
        shards = engine.resolve(spec)
    plans = partition_plan(build_plan(spec, seed), shards)
    completed = {} if cell is None else checkpoint.completed_shards(cell)
    pending = [plan for plan in plans if plan.shard_id not in completed]

    def record(result: ShardResult) -> None:
        if cell is not None:
            checkpoint.record_shard(cell, result)

    fresh = engine.submit_all(pending, on_result=record)
    results = sorted(
        list(completed.values()) + list(fresh),
        key=lambda result: result.shard_id,
    )
    report = _merge(
        spec, seed, engine.name, [result.payload for result in results], start,
    )
    if cell is not None:
        checkpoint.finish_cell(cell, report)
    return report


def run_cell(
    scenario: ScenarioLike,
    seed: int = 0,
    backend: Optional[DistributedBackend] = None,
    checkpoint: Optional[Any] = None,
    campaign_id: Optional[str] = None,
) -> CampaignReport:
    """Run a single cell by spec or library name (the one-off surface)."""
    return execute_cell(
        _resolve_scenario(scenario), seed, backend=backend,
        checkpoint=checkpoint, campaign_id=campaign_id,
    )


@dataclass
class CellExecution:
    """A serial cell run with its live in-process objects.

    The merged report plus the :class:`FleetReport` and the live
    :class:`CompiledScenario` (members, span recorder, fleet) for
    callers that inspect the simulation — the fuzz oracle, the trace
    exporter, tests.
    """

    report: CampaignReport
    fleet_report: FleetReport
    compiled: CompiledScenario

    @property
    def span_recorder(self):
        return self.compiled.span_recorder


def run_cell_detailed(scenario: ScenarioLike, seed: int = 0) -> CellExecution:
    """Run one cell serially, keeping the live compiled objects.

    Necessarily in-process and single-shard (live fleets cannot cross a
    process boundary); the report still flows through the same merge as
    every other backend, so its digests are directly comparable.
    """
    spec = _resolve_scenario(scenario)
    start = wallclock.perf_counter()
    plan = build_plan(spec, seed)
    compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
    fleet_report = compiled.run()
    report = _merge(
        spec, seed, SerialBackend.name, [fleet_report.to_json()], start,
    )
    return CellExecution(
        report=report, fleet_report=fleet_report, compiled=compiled,
    )


class Campaign:
    """A scenario × seed plan plus the backend that executes it."""

    def __init__(
        self,
        scenarios: Union[ScenarioLike, Iterable[ScenarioLike]],
        seeds: Iterable[int] = (0,),
        scale: float = 1.0,
        backend: Optional[DistributedBackend] = None,
    ) -> None:
        if isinstance(scenarios, (str, ScenarioSpec)):
            scenarios = [scenarios]
        if scale <= 0:
            raise ValueError("scale must be > 0")
        self.scale = scale
        self.backend: DistributedBackend = backend or SerialBackend()
        specs = [self._resolve(scenario) for scenario in scenarios]
        seeds = [int(seed) for seed in seeds]
        if not specs:
            raise ValueError("a campaign needs at least one scenario")
        if not seeds:
            raise ValueError("a campaign needs at least one seed")
        #: The grid, row-major (scenario outer, seed inner).
        self.cells: List[Tuple[ScenarioSpec, int]] = [
            (spec, seed) for spec in specs for seed in seeds
        ]

    # ------------------------------------------------------------------
    def _resolve(self, scenario: ScenarioLike) -> ScenarioSpec:
        return _resolve_scenario(scenario, self.scale)

    # ------------------------------------------------------------------
    def run_cell(
        self,
        scenario: ScenarioLike,
        seed: int = 0,
        backend: Optional[DistributedBackend] = None,
        checkpoint: Optional[Any] = None,
        campaign_id: Optional[str] = None,
    ) -> CampaignReport:
        """Run a single (scenario, seed) cell through a backend.

        A spec taken from :attr:`cells` is already resolved — it runs
        as-is, so feeding a grid cell back in never double-applies the
        campaign scale.  Anything else (a name or a fresh spec) resolves
        the same way the constructor did.
        """
        engine = backend or self.backend
        if not (
            isinstance(scenario, ScenarioSpec)
            and any(spec is scenario for spec, _seed in self.cells)
        ):
            scenario = self._resolve(scenario)
        return execute_cell(
            scenario, seed, backend=engine,
            checkpoint=checkpoint, campaign_id=campaign_id,
        )

    def run(
        self,
        backend: Optional[DistributedBackend] = None,
        checkpoint: Optional[Any] = None,
        campaign_id: Optional[str] = None,
    ) -> List[CampaignReport]:
        """Run every cell of the plan; one report per cell, grid order.

        With ``checkpoint`` + ``campaign_id`` each completed shard is
        persisted as it lands, and a re-run (or
        :func:`~repro.campaign.checkpoint.resume_campaign`) skips
        everything already durable.
        """
        engine = backend or self.backend
        return [
            execute_cell(
                spec, seed, backend=engine,
                checkpoint=checkpoint, campaign_id=campaign_id,
            )
            for spec, seed in self.cells
        ]
