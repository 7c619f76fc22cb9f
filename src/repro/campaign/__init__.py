"""Campaign layer: one public API over every way to run a campaign.

The paper's industry-as-laboratory premise (Sect. 3) is that runtime
awareness must hold up under production-scale workloads.  This package
is the API seam that makes scale pluggable:

* :mod:`repro.campaign.core`        — :class:`Campaign` (the scenario ×
  seed plan) and :func:`execute_cell`, THE orchestration path every
  backend flows through (plus :func:`run_cell` /
  :func:`run_cell_detailed`, the blessed one-off surfaces);
* :mod:`repro.campaign.backends`    — the executor protocol
  (``submit(plan) -> ShardResult``) and :class:`SerialBackend` (one
  kernel, in-process);
* :mod:`repro.campaign.distributed` — :class:`DistributedBackend`
  partitioning the device mix into per-shard plans and dispatching
  them to workers (in-process, per-process with heartbeat loss
  detection, or remote over sockets) with bounded retry, merged
  telemetry;
* :mod:`repro.campaign.checkpoint`  — shard-durable progress in the
  :mod:`repro.obs.history` store and :func:`resume_campaign`;
* :mod:`repro.campaign.report`      — :class:`CampaignReport`, the
  merged result schema with the backend-invariant
  ``telemetry_digest``.

``python -m repro.campaign`` is the CLI (run / resume / status / list /
worker); see docs/CAMPAIGNS.md and docs/DISTRIBUTED.md.
"""

from .backends import (
    ExecutionBackend,
    ExecutorBackend,
    SerialBackend,
    ShardResult,
    derive_shard_seed,
    execute_plan,
    execute_plan_detailed,
    resolve_shards,
)
from .checkpoint import (
    CampaignCheckpoint,
    CellHandle,
    new_campaign_id,
    resume_campaign,
)
from .core import (
    Campaign,
    CellExecution,
    ScenarioLike,
    execute_cell,
    run_cell,
    run_cell_detailed,
)
from .distributed import (
    DistributedBackend,
    InlineExecutor,
    ProcessWorkerExecutor,
    ShardExhaustedError,
    ShardWorkerServer,
    SocketWorkerExecutor,
    WorkerFaultInjector,
    WorkerLostError,
)
from .report import (
    CAMPAIGN_TABLE_HEADER,
    CampaignReport,
    format_campaign_table,
    merge_shard_results,
)

__all__ = [
    "CAMPAIGN_TABLE_HEADER",
    "Campaign",
    "CampaignCheckpoint",
    "CampaignReport",
    "CellExecution",
    "CellHandle",
    "DistributedBackend",
    "ExecutionBackend",
    "ExecutorBackend",
    "InlineExecutor",
    "ProcessWorkerExecutor",
    "ScenarioLike",
    "SerialBackend",
    "ShardExhaustedError",
    "ShardResult",
    "ShardWorkerServer",
    "SocketWorkerExecutor",
    "WorkerFaultInjector",
    "WorkerLostError",
    "derive_shard_seed",
    "execute_cell",
    "execute_plan",
    "execute_plan_detailed",
    "format_campaign_table",
    "merge_shard_results",
    "new_campaign_id",
    "resolve_shards",
    "resume_campaign",
    "run_cell",
    "run_cell_detailed",
]
