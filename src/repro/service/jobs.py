"""Job engine for the campaign service (PR 10).

A :class:`JobManager` owns a bounded worker pool and a SQLite-backed
:class:`~repro.obs.history.RunHistory` path.  Each submitted job is a
scenario × seed grid; every cell executes through THE orchestration
path — :func:`repro.campaign.core.execute_cell` with a
:class:`~repro.campaign.backends.DistributedBackend` whose
:class:`ShardExecutor` is the :class:`StreamingExecutor` below — so a
job run over HTTP is checkpointed shard-by-shard exactly like a CLI
campaign, and its merged ``telemetry_digest`` / ``span_digest`` are
byte-identical to a serial :func:`~repro.campaign.core.run_cell` of the
same spec × seed.

Live streaming rides on the segmented-execution seam
(:func:`repro.campaign.backends.execute_plan_segmented`): each shard
runs as N kernel slices, and after every slice the executor emits a
flushed :class:`~repro.runtime.telemetry.FleetTelemetry` summary to the
job's subscribers and checks for cancellation — which is why a
mid-stream ``POST /campaigns/{id}/cancel`` lands between segments
without perturbing anything a finished shard already recorded.

Threading model: every job runs on one pool thread, which opens its own
:class:`RunHistory` connection (SQLite connections are thread-affine).
Status reads open short-lived per-call connections.  Subscriber fan-out
is queue-based with full replay, so a late subscriber sees the whole
record history before going live.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from ..campaign.checkpoint import CampaignCheckpoint
from ..campaign.core import execute_cell
from ..campaign.backends import (
    DistributedBackend,
    ShardResult,
    execute_plan_segmented,
)
from ..campaign.report import CampaignReport
from ..obs.history import RunHistory
from ..scenarios.library import get_scenario
from ..scenarios.plan import ScenarioPlan
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "Job",
    "JobCancelled",
    "JobManager",
    "StreamingExecutor",
    "SubmissionError",
    "parse_submission",
]

#: Stored stream records per job; beyond this telemetry records are
#: dropped from the replay buffer (live subscribers still get them) so
#: an enormous campaign cannot grow a job's memory without bound.
MAX_REPLAY_RECORDS = 4096

#: Terminal job states.
TERMINAL_STATES = frozenset({"complete", "failed", "cancelled"})


class JobCancelled(RuntimeError):
    """Raised inside a job thread when its cancel flag is set.

    Deliberately NOT a :class:`~repro.campaign.backends.
    WorkerLostError`: the distributed backend retries lost workers, but
    a cancellation must propagate straight out of ``submit_all``.
    """


class SubmissionError(ValueError):
    """A malformed campaign submission (maps to HTTP 400)."""


def _resolve_scenario(entry: Any) -> ScenarioSpec:
    """A submission scenario: a library name or an inline spec dict."""
    if isinstance(entry, str):
        try:
            return get_scenario(entry)
        except KeyError as exc:
            raise SubmissionError(str(exc.args[0])) from exc
    if isinstance(entry, dict):
        try:
            spec = ScenarioSpec.from_json(entry)
            spec.validate()
            return spec
        except SubmissionError:
            raise
        except Exception as exc:
            raise SubmissionError(f"invalid scenario spec: {exc}") from exc
    raise SubmissionError(
        f"scenario entries must be library names or spec objects,"
        f" got {type(entry).__name__}"
    )


_ALLOWED_KEYS = frozenset({"scenarios", "seeds", "shards", "segments", "campaign_id"})


def parse_submission(
    data: Any,
) -> Tuple[List[Tuple[ScenarioSpec, int]], Dict[str, Any]]:
    """Validate a ``POST /campaigns`` body into (cells, options).

    Strict on purpose — unknown keys are rejected rather than ignored,
    so a typo'd ``"seed"`` cannot silently run the default grid.
    Raises :class:`SubmissionError` (HTTP 400) on anything malformed.
    """
    if not isinstance(data, dict):
        raise SubmissionError("submission body must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise SubmissionError(
            f"unknown submission keys: {sorted(unknown)}"
            f" (allowed: {sorted(_ALLOWED_KEYS)})"
        )
    scenarios = data.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise SubmissionError(
            "'scenarios' must be a non-empty list of names or spec objects"
        )
    specs = [_resolve_scenario(entry) for entry in scenarios]
    seeds = data.get("seeds", [0])
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(
            isinstance(seed, int) and not isinstance(seed, bool) for seed in seeds
        )
    ):
        raise SubmissionError("'seeds' must be a non-empty list of integers")
    options: Dict[str, Any] = {}
    for key, floor in (("shards", 1), ("segments", 1)):
        if key in data:
            value = data[key]
            if not isinstance(value, int) or isinstance(value, bool) or value < floor:
                raise SubmissionError(f"'{key}' must be an integer >= {floor}")
            options[key] = value
    if "campaign_id" in data:
        campaign_id = data["campaign_id"]
        if not isinstance(campaign_id, str) or not campaign_id:
            raise SubmissionError("'campaign_id' must be a non-empty string")
        options["campaign_id"] = campaign_id
    cells = [(spec, int(seed)) for spec in specs for seed in seeds]
    return cells, options


# ----------------------------------------------------------------------
class Job:
    """One submitted campaign: cells, live state, and stream fan-out."""

    def __init__(
        self,
        job_id: str,
        cells: List[Tuple[ScenarioSpec, int]],
        campaign_id: str,
        shards: int,
        segments: int,
    ) -> None:
        self.job_id = job_id
        self.cells = cells
        self.campaign_id = campaign_id
        self.shards = shards
        self.segments = segments
        self.state = "queued"
        self.error: Optional[str] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.reports: List[CampaignReport] = []
        self.cancel_event = threading.Event()
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._subscribers: List["queue.Queue[Dict[str, Any]]"] = []

    # -- stream fan-out -------------------------------------------------
    def emit(self, record: Dict[str, Any]) -> None:
        """Append one stream record and fan it out to subscribers."""
        with self._lock:
            if (
                len(self._records) < MAX_REPLAY_RECORDS
                or record.get("type") != "telemetry"
            ):
                self._records.append(record)
            targets = list(self._subscribers)
        for target in targets:
            target.put(record)

    def subscribe(self) -> "queue.Queue[Dict[str, Any]]":
        """A queue pre-loaded with the full replay, then live records.

        Taken under the emit lock so the replay/live handoff cannot
        drop or duplicate a record.
        """
        subscriber: "queue.Queue[Dict[str, Any]]" = queue.Queue()
        with self._lock:
            for record in self._records:
                subscriber.put(record)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue[Dict[str, Any]]") -> None:
        with self._lock:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

    # -- views ----------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def cell_summaries(self) -> List[Dict[str, Any]]:
        return [
            {
                "scenario": report.scenario,
                "seed": report.seed,
                "telemetry_digest": report.telemetry_digest,
                "span_digest": report.span_digest,
                "members": report.members,
                "dispatched": report.dispatched,
                "detection_rate": report.detection_rate,
                "false_alarm_rate": report.false_alarm_rate,
            }
            for report in self.reports
        ]

    def snapshot(self) -> Dict[str, Any]:
        """The job's own view (checkpoint state is merged in by the
        manager, which owns the store)."""
        with self._lock:
            records = len(self._records)
        done = self.cell_summaries()
        data: Dict[str, Any] = {
            "job_id": self.job_id,
            "campaign_id": self.campaign_id,
            "state": self.state,
            "error": self.error,
            "cells_total": len(self.cells),
            "cells_complete": len(done),
            "cells": [
                {"scenario": spec.name, "seed": seed} for spec, seed in self.cells
            ],
            "completed": done,
            "shards": self.shards,
            "segments": self.segments,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "records": records,
        }
        if len(self.reports) == len(self.cells) and len(self.cells) == 1:
            data["telemetry_digest"] = self.reports[0].telemetry_digest
            data["span_digest"] = self.reports[0].span_digest
        return data


# ----------------------------------------------------------------------
class StreamingExecutor:
    """A :class:`ShardExecutor` that narrates one job's shards.

    ``run_attempt`` drives the plan through
    :func:`execute_plan_segmented`; after every kernel slice it emits a
    flushed telemetry summary for the job's NDJSON stream and raises
    :class:`JobCancelled` if the job was cancelled — the only two
    behaviours layered on top of plain inline execution, neither of
    which can perturb the payload (segmentation is digest-invariant by
    construction).
    """

    name = "service"

    def __init__(self, job: Job, cell_index: int, segments: int) -> None:
        self.job = job
        self.cell_index = cell_index
        self.segments = segments

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        job = self.job
        if job.cancel_event.is_set():
            raise JobCancelled(job.job_id)
        spec, seed = job.cells[self.cell_index]

        def on_segment(compiled: Any, index: int, now: float) -> None:
            record = {
                "type": "telemetry",
                "cell": self.cell_index,
                "scenario": spec.name,
                "seed": seed,
                "shard": plan.shard_id,
                "segment": index,
                "segments": self.segments,
                "sim_time": now,
                "summary": compiled.fleet.telemetry.summary(),
            }
            job.emit(record)
            if job.cancel_event.is_set():
                raise JobCancelled(job.job_id)

        payload = execute_plan_segmented(plan, self.segments, on_segment=on_segment)
        record = {
            "type": "shard",
            "cell": self.cell_index,
            "scenario": spec.name,
            "seed": seed,
            "shard": plan.shard_id,
            "attempt": attempt,
            "worker": self.name,
        }
        job.emit(record)
        return ShardResult(
            shard_id=plan.shard_id,
            payload=payload,
            attempt=attempt,
            worker=self.name,
        )


# ----------------------------------------------------------------------
class JobManager:
    """Bounded-pool campaign execution over a shared history store."""

    def __init__(
        self,
        db_path: str,
        workers: int = 2,
        segments: int = 8,
        shards: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.db_path = db_path
        self.default_segments = segments
        self.default_shards = shards
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="campaign-job"
        )

    # ------------------------------------------------------------------
    def submit(self, data: Any) -> Job:
        """Validate one submission and queue it on the pool."""
        cells, options = parse_submission(data)
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        job = Job(
            job_id=job_id,
            cells=cells,
            campaign_id=options.get("campaign_id", job_id),
            shards=options.get("shards", self.default_shards),
            segments=options.get("segments", self.default_segments),
        )
        with self._lock:
            self._jobs[job_id] = job
        self._pool.submit(self._run, job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            ordered = sorted(self._jobs.values(), key=lambda job: job.created_at)
        return ordered

    def cancel(self, job_id: str) -> Optional[Job]:
        job = self.get(job_id)
        if job is None:
            return None
        job.cancel_event.set()
        return job

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Job snapshot + durable per-shard checkpoint state.

        The ``checkpoint`` block is exactly
        :meth:`CampaignCheckpoint.status` — the same helper the
        ``repro.campaign status`` CLI renders — read over a fresh
        short-lived connection (handler threads must not share the job
        thread's SQLite handle).
        """
        job = self.get(job_id)
        if job is None:
            return None
        data = job.snapshot()
        with CampaignCheckpoint(self.db_path) as checkpoint:
            data["checkpoint"] = checkpoint.status(job.campaign_id)
        return data

    def shutdown(self, wait: bool = False) -> None:
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.cancel_event.set()
        self._pool.shutdown(wait=wait, cancel_futures=True)

    # ------------------------------------------------------------------
    # job thread
    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        job.started_at = time.time()
        job.state = "running"
        opening = {
            "type": "job",
            "job_id": job.job_id,
            "campaign_id": job.campaign_id,
            "state": "running",
            "cells": len(job.cells),
            "shards": job.shards,
            "segments": job.segments,
        }
        job.emit(opening)
        history = RunHistory(self.db_path)
        try:
            checkpoint = CampaignCheckpoint(history)
            for index, (spec, seed) in enumerate(job.cells):
                if job.cancel_event.is_set():
                    raise JobCancelled(job.job_id)
                backend = DistributedBackend(
                    StreamingExecutor(job, index, job.segments),
                    shards=job.shards,
                    max_attempts=1,
                    parallelism=1,
                )
                report = execute_cell(
                    spec,
                    seed,
                    backend=backend,
                    checkpoint=checkpoint,
                    campaign_id=job.campaign_id,
                )
                job.reports.append(report)
                history.record_campaign(report)
                record = {
                    "type": "cell",
                    "cell": index,
                    "scenario": report.scenario,
                    "seed": report.seed,
                    "telemetry_digest": report.telemetry_digest,
                    "span_digest": report.span_digest,
                    "members": report.members,
                    "dispatched": report.dispatched,
                    "detection_rate": report.detection_rate,
                    "events_per_sec": report.events_per_sec,
                }
                job.emit(record)
            job.state = "complete"
        except JobCancelled:
            job.state = "cancelled"
        except Exception as exc:  # surfaced via status/stream, not lost
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        finally:
            history.close()
            job.finished_at = time.time()
            end: Dict[str, Any] = {
                "type": "end",
                "job_id": job.job_id,
                "campaign_id": job.campaign_id,
                "state": job.state,
                "error": job.error,
                "cells": job.cell_summaries(),
            }
            if job.state == "complete" and len(job.reports) == 1:
                end["telemetry_digest"] = job.reports[0].telemetry_digest
                end["span_digest"] = job.reports[0].span_digest
            job.emit(end)


def encode_record(record: Dict[str, Any]) -> bytes:
    """One NDJSON stream line (sorted keys: byte-stable for tests)."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
