"""Durable shard-level campaign checkpointing (PR 9).

A :class:`CampaignCheckpoint` wraps the :class:`~repro.obs.history.
RunHistory` store and persists every completed shard of every
(scenario, seed) cell — its mergeable telemetry summary, span block,
and trace digest — under ``(campaign_id, spec_hash, seed, shard_id)``.
When :func:`~repro.campaign.core.execute_cell` runs with a checkpoint
attached it skips shards the store already holds, so an interrupted
campaign resumes exactly where it stopped and the resumed
``telemetry_digest`` is byte-identical to an uninterrupted run (the
merge is a fold over per-shard payloads in shard order; where each
payload was computed, and in how many sittings, cannot perturb it).

Resume is self-contained: the cell row stores the spec's canonical
JSON, so :func:`resume_campaign` needs only the campaign id and the
store — not the script that launched the original run.
"""

from __future__ import annotations

import json
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..obs.history import RunHistory
from ..scenarios.spec import ScenarioSpec, spec_hash
from .backends import DistributedBackend, ShardResult
from .report import CampaignReport

__all__ = [
    "CampaignCheckpoint",
    "CellHandle",
    "new_campaign_id",
    "resume_campaign",
]


def new_campaign_id(prefix: str = "campaign") -> str:
    """A fresh collision-safe campaign name for unnamed runs."""
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


@dataclass(frozen=True)
class CellHandle:
    """One registered (campaign, scenario, seed) cell in the store."""

    cell_id: int
    campaign_id: str
    spec_hash: str
    seed: int
    #: The shard count recorded when the cell was first started.  On
    #: resume this wins over the resuming backend's own policy, so the
    #: partition — and therefore which shards are "already done" —
    #: cannot drift between a run and its resume (including an
    #: autotuned count picked on the original host).
    resolved_shards: int
    status: str


class CampaignCheckpoint:
    """Shard-durable progress for campaigns, backed by RunHistory.

    Accepts an open :class:`RunHistory` (caller keeps ownership) or a
    database path (owned; close via :meth:`close` or ``with``).
    """

    def __init__(self, store: Union[RunHistory, str]) -> None:
        if isinstance(store, RunHistory):
            self.history = store
            self._owned = False
        else:
            self.history = RunHistory(store)
            self._owned = True

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owned:
            self.history.close()

    def __enter__(self) -> "CampaignCheckpoint":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the seam execute_cell drives
    # ------------------------------------------------------------------
    def begin_cell(
        self,
        campaign_id: Optional[str],
        spec: ScenarioSpec,
        seed: int,
        backend: DistributedBackend,
    ) -> CellHandle:
        """Register (or re-open) one cell and pin its shard resolution.

        ``requested_shards`` records the backend's *policy* ("auto" for
        an autotuning ``DistributedBackend(shards=None)``, the number
        otherwise); ``resolved_shards`` records the *decision*, which
        every later sitting reuses.
        """
        requested = backend.shards
        row = self.history.begin_campaign_cell(
            campaign_id=campaign_id or new_campaign_id(),
            spec_hash=spec_hash(spec),
            scenario=spec.name,
            seed=seed,
            backend=backend.name,
            requested_shards="auto" if requested is None else str(requested),
            resolved_shards=backend.resolve(spec),
            spec_json=spec.canonical_json(),
        )
        return CellHandle(
            cell_id=int(row["id"]),
            campaign_id=str(row["campaign_id"]),
            spec_hash=str(row["spec_hash"]),
            seed=int(row["seed"]),
            resolved_shards=int(row["resolved_shards"]),
            status=str(row["status"]),
        )

    def completed_shards(self, cell: CellHandle) -> Dict[int, ShardResult]:
        """Shards of the cell already durable (newest attempt each)."""
        results: Dict[int, ShardResult] = {}
        for row in self.history.campaign_shard_rows(cell.cell_id):
            result = ShardResult.from_json(json.loads(row["result"]))
            results[result.shard_id] = result
        return results

    def record_shard(self, cell: CellHandle, result: ShardResult) -> None:
        """Persist one completed shard the moment it lands."""
        self.history.record_campaign_shard(
            cell_id=cell.cell_id,
            campaign_id=cell.campaign_id,
            spec_hash=cell.spec_hash,
            seed=cell.seed,
            shard_id=result.shard_id,
            attempt=result.attempt,
            worker=result.worker,
            trace_digest=result.payload.get("trace_digest"),
            result_json=json.dumps(result.to_json(), sort_keys=True),
        )

    def finish_cell(self, cell: CellHandle, report: CampaignReport) -> None:
        """Mark the cell complete with its merged determinism digests."""
        self.history.finish_campaign_cell(
            cell_id=cell.cell_id,
            telemetry_digest=report.telemetry_digest,
            span_digest=report.span_digest or None,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def cells(self, campaign_id: Optional[str] = None) -> List[Dict[str, Any]]:
        return self.history.campaign_cells(campaign_id)

    def status(self, campaign_id: str) -> Dict[str, Any]:
        """Progress of one campaign: per-cell AND per-shard state.

        Each cell carries a ``shards`` list with one entry per planned
        shard — ``state`` (``"complete"`` / ``"missing"``), the number
        of recorded ``attempts`` (retries after worker loss count), and
        the worker/timestamp of the newest durable attempt — so a
        partially checkpointed campaign reads as *which* shards remain,
        not just how many.  This is the one status-assembly helper; the
        ``repro.campaign status`` CLI and the service's
        ``GET /campaigns/{id}`` endpoint both render exactly this dict.
        """
        cells: List[Dict[str, Any]] = []
        for row in self.history.campaign_cells(campaign_id):
            log = self.history.campaign_shard_log(int(row["id"]))
            per_shard: Dict[int, Dict[str, Any]] = {}
            for entry in log:
                shard = per_shard.setdefault(int(entry["shard_id"]), {
                    "attempts": 0,
                })
                # ``attempt`` is the 0-based try the durable result
                # came from (a shard retried after worker loss lands
                # with attempt > 0), so attempt+1 is how many tries the
                # shard took — lost attempts included.
                shard["attempts"] = max(
                    shard["attempts"], int(entry["attempt"]) + 1
                )
                shard["worker"] = entry["worker"]
                shard["recorded_at"] = entry["recorded_at"]
            resolved = int(row["resolved_shards"])
            shards = []
            for shard_id in range(resolved):
                done = per_shard.get(shard_id)
                shards.append({
                    "shard_id": shard_id,
                    "state": "complete" if done else "missing",
                    "attempts": done["attempts"] if done else 0,
                    "worker": done["worker"] if done else None,
                    "recorded_at": done["recorded_at"] if done else None,
                })
            cells.append({
                "scenario": row["scenario"],
                "seed": row["seed"],
                "spec_hash": row["spec_hash"],
                "backend": row["backend"],
                "requested_shards": row["requested_shards"],
                "resolved_shards": resolved,
                "completed_shards": len(per_shard),
                "shards": shards,
                "status": row["status"],
                "telemetry_digest": row["telemetry_digest"],
                "span_digest": row["span_digest"],
            })
        done = sum(1 for cell in cells if cell["status"] == "complete")
        return {
            "campaign_id": campaign_id,
            "cells": cells,
            "cells_total": len(cells),
            "cells_complete": done,
            "complete": bool(cells) and done == len(cells),
        }

    def campaigns(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Known campaigns, newest first, with aggregate progress."""
        seen: Dict[str, Dict[str, Any]] = {}
        for row in self.history.campaign_cells(limit=limit):
            entry = seen.setdefault(str(row["campaign_id"]), {
                "campaign_id": row["campaign_id"],
                "created_at": row["created_at"],
                "cells_total": 0,
                "cells_complete": 0,
            })
            entry["cells_total"] += 1
            if row["status"] == "complete":
                entry["cells_complete"] += 1
            entry["created_at"] = min(entry["created_at"], row["created_at"])
        return list(seen.values())


def resume_campaign(
    campaign_id: str,
    store: Union[RunHistory, str, CampaignCheckpoint],
    backend: Optional[DistributedBackend] = None,
) -> List[CampaignReport]:
    """Re-drive every cell of a checkpointed campaign to completion.

    Cells are reconstructed from the canonical spec JSON stored at
    ``begin_cell`` time and re-executed through THE orchestration path
    with the checkpoint attached: durable shards are skipped, missing
    ones run on ``backend`` (serial by default), and already-complete
    cells merge purely from the store.  Returns one report per cell in
    grid order — with digests byte-identical to an uninterrupted run.
    """
    from .core import execute_cell  # cycle: core drives the checkpoint

    checkpoint = (
        store if isinstance(store, CampaignCheckpoint)
        else CampaignCheckpoint(store)
    )
    owned = checkpoint is not store
    try:
        rows = checkpoint.cells(campaign_id)
        if not rows:
            raise KeyError(f"unknown campaign: {campaign_id!r}")
        reports: List[CampaignReport] = []
        for row in rows:
            spec = ScenarioSpec.from_json(json.loads(row["spec"]))
            reports.append(execute_cell(
                spec,
                int(row["seed"]),
                backend=backend,
                checkpoint=checkpoint,
                campaign_id=campaign_id,
            ))
        return reports
    finally:
        if owned:
            checkpoint.close()
