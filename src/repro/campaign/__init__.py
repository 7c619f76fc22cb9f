"""Campaign layer: one public API over every way to run a campaign.

The paper's industry-as-laboratory premise (Sect. 3) is that runtime
awareness must hold up under production-scale workloads.  This package
is the API seam that makes scale pluggable:

* :mod:`repro.campaign.core`        — :class:`Campaign` (the scenario ×
  seed plan) and :func:`execute_cell`, THE orchestration path every
  backend flows through (plus :func:`run_cell` /
  :func:`run_cell_detailed`, the blessed one-off surfaces);
* :mod:`repro.campaign.backends`    — :class:`DistributedBackend`, the
  one backend class: it runs a cell's per-shard plans through a shard
  executor (``run_attempt(plan, attempt) -> ShardResult``) with bounded
  retry; :class:`SerialBackend` is its one-shard, in-process preset
  over :class:`InlineExecutor`;
* :mod:`repro.campaign.distributed` — the out-of-process executors:
  one worker process per shard attempt with heartbeat loss detection,
  or remote workers over sockets (the fourth executor, the service's
  streaming one, lives in :mod:`repro.service.jobs`);
* :mod:`repro.campaign.checkpoint`  — shard-durable progress in the
  :mod:`repro.obs.history` store and :func:`resume_campaign`;
* :mod:`repro.campaign.report`      — :class:`CampaignReport`, the
  merged result schema with the backend-invariant
  ``telemetry_digest``.

``python -m repro.campaign`` is the CLI (run / resume / status / list /
worker); see docs/CAMPAIGNS.md and docs/DISTRIBUTED.md.
"""

from .backends import (
    DistributedBackend,
    InlineExecutor,
    SerialBackend,
    ShardExhaustedError,
    ShardResult,
    WorkerFaultInjector,
    WorkerLostError,
    derive_shard_seed,
    execute_plan,
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
    ProcessWorkerExecutor,
    ShardWorkerServer,
    SocketWorkerExecutor,
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
    "format_campaign_table",
    "merge_shard_results",
    "new_campaign_id",
    "resolve_shards",
    "resume_campaign",
    "run_cell",
    "run_cell_detailed",
]
