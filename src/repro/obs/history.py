"""Append-only run history: every campaign and bench run, queryable.

``BENCH_runtime.json`` is a snapshot — each run overwrites the last, so
"did detection drift over the last five PRs?" was unanswerable from the
repo.  :class:`RunHistory` is the durable complement: an append-only
SQLite store recording

* ``runs``      — one row per ``benchmarks/run_all.py`` report (full
  JSON, plus git rev / bench mode / recorded-at for provenance);
* ``campaigns`` — one row per :class:`~repro.campaign.CampaignReport`
  (headline rates and both determinism digests indexed as columns, full
  JSON alongside);
* ``episodes``  — span-derived per-episode rows (one per completed
  fault episode the campaign's :class:`~repro.obs.spans.SpanRecorder`
  sampled): injection/detection/repair times, TTR, rung count,
  rebind mode, suspect, hit, and the episode digest.

Writes only ever INSERT; trend analysis (:mod:`repro.obs.trend`) and
the ``python -m repro.obs`` CLI read newest-first.  SQLite is stdlib,
single-file, and concurrent-reader-safe — exactly enough for a
per-checkout history that CI persists as a cached artifact.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Dict, List, Optional

#: The store every CLI and the service open unless told otherwise.
DEFAULT_DB = "BENCH_history.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at TEXT NOT NULL,
    git_rev     TEXT,
    label       TEXT,
    mode        TEXT,
    report      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id           INTEGER REFERENCES runs(id),
    recorded_at      TEXT NOT NULL,
    git_rev          TEXT,
    scenario         TEXT NOT NULL,
    seed             INTEGER,
    backend          TEXT,
    members          INTEGER,
    detection_rate   REAL,
    false_alarms     INTEGER,
    recovered        INTEGER,
    events_per_sec   REAL,
    telemetry_digest TEXT,
    span_digest      TEXT,
    report           TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS episodes (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id),
    suo_id      TEXT,
    wave        TEXT,
    fault       TEXT,
    component   TEXT,
    injected_at REAL,
    detected_at REAL,
    repaired_at REAL,
    ttr         REAL,
    rungs       INTEGER,
    mode        TEXT,
    suspect     TEXT,
    hit         INTEGER,
    digest      TEXT
);
CREATE TABLE IF NOT EXISTS fuzz_corpus (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    recorded_at TEXT NOT NULL,
    git_rev     TEXT,
    spec_hash   TEXT NOT NULL UNIQUE,
    name        TEXT,
    seed        INTEGER,
    origin      TEXT,
    verdict     TEXT,
    signature   TEXT,
    novel_keys  TEXT,
    coverage    TEXT,
    spec        TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_cells (
    id               INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id      TEXT NOT NULL,
    spec_hash        TEXT NOT NULL,
    scenario         TEXT,
    seed             INTEGER NOT NULL,
    backend          TEXT,
    requested_shards TEXT,
    resolved_shards  INTEGER NOT NULL,
    status           TEXT NOT NULL DEFAULT 'running',
    created_at       TEXT NOT NULL,
    finished_at      TEXT,
    git_rev          TEXT,
    telemetry_digest TEXT,
    span_digest      TEXT,
    spec             TEXT NOT NULL,
    UNIQUE (campaign_id, spec_hash, seed)
);
CREATE TABLE IF NOT EXISTS campaign_shards (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    cell_id      INTEGER NOT NULL REFERENCES campaign_cells(id),
    campaign_id  TEXT NOT NULL,
    spec_hash    TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    shard_id     INTEGER NOT NULL,
    attempt      INTEGER NOT NULL DEFAULT 0,
    worker       TEXT,
    recorded_at  TEXT NOT NULL,
    trace_digest TEXT,
    result       TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_campaigns_scenario
    ON campaigns (scenario, id);
CREATE INDEX IF NOT EXISTS idx_episodes_campaign
    ON episodes (campaign_id);
CREATE INDEX IF NOT EXISTS idx_fuzz_verdict
    ON fuzz_corpus (verdict, id);
CREATE INDEX IF NOT EXISTS idx_campaign_cells_campaign
    ON campaign_cells (campaign_id, id);
CREATE INDEX IF NOT EXISTS idx_campaign_shards_cell
    ON campaign_shards (cell_id, shard_id, id);
"""


@lru_cache(maxsize=8)
def current_git_rev(cwd: Optional[str] = None) -> Optional[str]:
    """The checkout's HEAD commit, or None outside a repo / without git.

    Resolved once per process for each ``cwd``: a process runs the code
    it imported, so the revision at its first record is the one every
    later record (one per checkpointed cell, one per service campaign)
    should carry, without a ``git`` subprocess each time.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class RunHistory:
    """One append-only SQLite history file (created on first use)."""

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        if directory and not os.path.isdir(directory):
            os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunHistory":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # writes (INSERT only)
    # ------------------------------------------------------------------
    def record_run(
        self,
        report: Dict[str, Any],
        label: Optional[str] = None,
        git_rev: Optional[str] = None,
    ) -> int:
        """Append one run_all report; returns its run id."""
        cursor = self._conn.execute(
            "INSERT INTO runs (recorded_at, git_rev, label, mode, report)"
            " VALUES (?, ?, ?, ?, ?)",
            (
                _utcnow(),
                git_rev if git_rev is not None else current_git_rev(),
                label,
                report.get("mode"),
                json.dumps(report, sort_keys=True),
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def record_campaign(
        self,
        report: Any,
        run_id: Optional[int] = None,
        git_rev: Optional[str] = None,
    ) -> int:
        """Append one campaign report (a
        :class:`~repro.campaign.CampaignReport` or its ``as_dict()``),
        plus one episode row per span sample it carries; returns the
        campaign id."""
        data = report.as_dict() if hasattr(report, "as_dict") else dict(report)
        spans = data.get("spans") or {}
        recovery = data.get("telemetry_summary", {}).get("recovery", {})
        cursor = self._conn.execute(
            "INSERT INTO campaigns (run_id, recorded_at, git_rev, scenario,"
            " seed, backend, members, detection_rate, false_alarms,"
            " recovered, events_per_sec, telemetry_digest, span_digest,"
            " report) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run_id,
                _utcnow(),
                git_rev if git_rev is not None else current_git_rev(),
                data.get("scenario"),
                data.get("seed"),
                data.get("backend"),
                data.get("members"),
                data.get("detection_rate"),
                len(data.get("false_alarms", [])),
                recovery.get("recovered", 0),
                data.get("events_per_sec"),
                data.get("telemetry_digest"),
                spans.get("forest_digest"),
                json.dumps(data, sort_keys=True),
            ),
        )
        campaign_id = int(cursor.lastrowid)
        digest_by_key = {
            (str(suo), str(wave)): digest
            for suo, wave, digest in spans.get("digests", [])
        }
        for episode in spans.get("samples", []):
            closing = episode.get("rungs", [])[-1:] or [{}]
            self._conn.execute(
                "INSERT INTO episodes (campaign_id, suo_id, wave, fault,"
                " component, injected_at, detected_at, repaired_at, ttr,"
                " rungs, mode, suspect, hit, digest)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    episode.get("suo"),
                    str(episode.get("wave")),
                    episode.get("fault"),
                    episode.get("component"),
                    episode.get("injected_at"),
                    episode.get("detected_at"),
                    episode.get("repaired_at"),
                    episode.get("ttr"),
                    len(episode.get("rungs", [])),
                    episode.get("repair_mode"),
                    (episode.get("ranks", [{}]) or [{}])[-1].get("suspect"),
                    closing[0].get("hit"),
                    digest_by_key.get(
                        (str(episode.get("suo")), str(episode.get("wave")))
                    ),
                ),
            )
        self._conn.commit()
        return campaign_id

    def record_fuzz_entry(
        self,
        spec_hash: str,
        spec_json: str,
        name: Optional[str] = None,
        seed: Optional[int] = None,
        origin: Optional[str] = None,
        verdict: Optional[str] = None,
        signature: Optional[str] = None,
        novel_keys: Optional[List[str]] = None,
        coverage: Optional[List[str]] = None,
        git_rev: Optional[str] = None,
    ) -> Optional[int]:
        """Append one fuzz-corpus entry (:mod:`repro.fuzz`): the spec's
        canonical JSON keyed by its :func:`~repro.scenarios.spec_hash`.
        A hash already in the store is left untouched (the corpus is a
        set); returns the row id, or None for such a duplicate."""
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO fuzz_corpus (recorded_at, git_rev,"
            " spec_hash, name, seed, origin, verdict, signature,"
            " novel_keys, coverage, spec)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                _utcnow(),
                git_rev if git_rev is not None else current_git_rev(),
                spec_hash,
                name,
                seed,
                origin,
                verdict,
                signature,
                json.dumps(sorted(novel_keys or [])),
                json.dumps(sorted(coverage or [])),
                spec_json,
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid) if cursor.rowcount else None

    # ------------------------------------------------------------------
    # campaign checkpoint rows (PR 9: distributed execution + resume)
    # ------------------------------------------------------------------
    def begin_campaign_cell(
        self,
        campaign_id: str,
        spec_hash: str,
        scenario: str,
        seed: int,
        backend: Optional[str],
        requested_shards: Optional[str],
        resolved_shards: int,
        spec_json: str,
        git_rev: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Register one (campaign, cell) in the checkpoint registry.

        A row keyed ``(campaign_id, spec_hash, seed)`` that already
        exists wins: the *recorded* shard resolution is returned, so a
        resumed cell partitions exactly like the interrupted original —
        including an autotuned count the original host picked.
        """
        existing = self._conn.execute(
            "SELECT * FROM campaign_cells WHERE campaign_id = ?"
            " AND spec_hash = ? AND seed = ?",
            (campaign_id, spec_hash, seed),
        ).fetchone()
        if existing is not None:
            return dict(existing)
        self._conn.execute(
            "INSERT INTO campaign_cells (campaign_id, spec_hash, scenario,"
            " seed, backend, requested_shards, resolved_shards, status,"
            " created_at, git_rev, spec)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, 'running', ?, ?, ?)",
            (
                campaign_id,
                spec_hash,
                scenario,
                seed,
                backend,
                requested_shards,
                resolved_shards,
                _utcnow(),
                git_rev if git_rev is not None else current_git_rev(),
                spec_json,
            ),
        )
        self._conn.commit()
        row = self._conn.execute(
            "SELECT * FROM campaign_cells WHERE campaign_id = ?"
            " AND spec_hash = ? AND seed = ?",
            (campaign_id, spec_hash, seed),
        ).fetchone()
        return dict(row)

    def record_campaign_shard(
        self,
        cell_id: int,
        campaign_id: str,
        spec_hash: str,
        seed: int,
        shard_id: int,
        attempt: int,
        worker: str,
        trace_digest: Optional[str],
        result_json: str,
    ) -> int:
        """Append one completed shard's mergeable result (INSERT only:
        a retried shard appends a higher attempt, never overwrites)."""
        cursor = self._conn.execute(
            "INSERT INTO campaign_shards (cell_id, campaign_id, spec_hash,"
            " seed, shard_id, attempt, worker, recorded_at, trace_digest,"
            " result) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                cell_id, campaign_id, spec_hash, seed, shard_id, attempt,
                worker, _utcnow(), trace_digest, result_json,
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def campaign_shard_rows(self, cell_id: int) -> List[Dict[str, Any]]:
        """The newest recorded result per shard of one cell."""
        rows = self._conn.execute(
            "SELECT * FROM campaign_shards WHERE cell_id = ?"
            " ORDER BY shard_id, id",
            (cell_id,),
        ).fetchall()
        latest: Dict[int, Dict[str, Any]] = {}
        for row in rows:
            latest[row["shard_id"]] = dict(row)
        return [latest[shard_id] for shard_id in sorted(latest)]

    def campaign_shard_log(self, cell_id: int) -> List[Dict[str, Any]]:
        """Every recorded shard attempt of one cell, oldest first.

        Unlike :meth:`campaign_shard_rows` nothing is deduplicated: a
        shard retried after worker loss appears once per attempt, which
        is what per-shard progress reporting counts.  The ``result``
        payload column is omitted — status views never need it.
        """
        rows = self._conn.execute(
            "SELECT id, cell_id, campaign_id, spec_hash, seed, shard_id,"
            " attempt, worker, recorded_at, trace_digest"
            " FROM campaign_shards WHERE cell_id = ? ORDER BY id",
            (cell_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def finish_campaign_cell(
        self,
        cell_id: int,
        telemetry_digest: str,
        span_digest: Optional[str],
    ) -> None:
        """Mark a cell complete with its merged determinism witnesses.

        The one sanctioned UPDATE in the store: the cells table is a job
        registry (what is running / resumable / done), not history — the
        durable per-shard results in ``campaign_shards`` stay
        append-only.
        """
        self._conn.execute(
            "UPDATE campaign_cells SET status = 'complete',"
            " finished_at = ?, telemetry_digest = ?, span_digest = ?"
            " WHERE id = ?",
            (_utcnow(), telemetry_digest, span_digest, cell_id),
        )
        self._conn.commit()

    def campaign_cells(
        self, campaign_id: Optional[str] = None, limit: int = 50
    ) -> List[Dict[str, Any]]:
        """Checkpoint cell rows — all of one campaign (oldest first, the
        grid order), or the newest rows across campaigns."""
        if campaign_id is not None:
            rows = self._conn.execute(
                "SELECT * FROM campaign_cells WHERE campaign_id = ?"
                " ORDER BY id",
                (campaign_id,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM campaign_cells ORDER BY id DESC LIMIT ?",
                (limit,),
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # reads (newest first)
    # ------------------------------------------------------------------
    def runs(self, limit: int = 20) -> List[Dict[str, Any]]:
        """Recent runs, newest first, without the report payload."""
        rows = self._conn.execute(
            "SELECT id, recorded_at, git_rev, label, mode FROM runs"
            " ORDER BY id DESC LIMIT ?",
            (limit,),
        ).fetchall()
        return [dict(row) for row in rows]

    def run_report(self, run_id: int) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT report FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        return json.loads(row["report"]) if row else None

    def run_reports(
        self, limit: int = 5, before_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Recent run reports, newest first — the trend window.

        ``before_id`` excludes the given run and everything after it
        (pass the just-recorded run's id to trend against its priors).
        """
        if before_id is None:
            rows = self._conn.execute(
                "SELECT report FROM runs ORDER BY id DESC LIMIT ?",
                (limit,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT report FROM runs WHERE id < ?"
                " ORDER BY id DESC LIMIT ?",
                (before_id, limit),
            ).fetchall()
        return [json.loads(row["report"]) for row in rows]

    def campaigns(
        self, scenario: Optional[str] = None, limit: int = 20
    ) -> List[Dict[str, Any]]:
        """Recent campaign rows, newest first (headline columns only)."""
        query = (
            "SELECT id, run_id, recorded_at, git_rev, scenario, seed,"
            " backend, members, detection_rate, false_alarms, recovered,"
            " events_per_sec, telemetry_digest, span_digest FROM campaigns"
        )
        params: tuple = ()
        if scenario is not None:
            query += " WHERE scenario = ?"
            params = (scenario,)
        query += " ORDER BY id DESC LIMIT ?"
        rows = self._conn.execute(query, params + (limit,)).fetchall()
        return [dict(row) for row in rows]

    def campaign_report(self, campaign_id: int) -> Optional[Dict[str, Any]]:
        row = self._conn.execute(
            "SELECT report FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        return json.loads(row["report"]) if row else None

    def episodes(self, campaign_id: int) -> List[Dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT * FROM episodes WHERE campaign_id = ? ORDER BY id",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def fuzz_entries(
        self, verdict: Optional[str] = None, limit: int = 100
    ) -> List[Dict[str, Any]]:
        """Fuzz-corpus rows, newest first, coverage/novel keys decoded."""
        query = (
            "SELECT id, recorded_at, git_rev, spec_hash, name, seed,"
            " origin, verdict, signature, novel_keys, coverage, spec"
            " FROM fuzz_corpus"
        )
        params: tuple = ()
        if verdict is not None:
            query += " WHERE verdict = ?"
            params = (verdict,)
        query += " ORDER BY id DESC LIMIT ?"
        rows = self._conn.execute(query, params + (limit,)).fetchall()
        entries = []
        for row in rows:
            entry = dict(row)
            entry["novel_keys"] = json.loads(entry["novel_keys"] or "[]")
            entry["coverage"] = json.loads(entry["coverage"] or "[]")
            entries.append(entry)
        return entries

    def fuzz_coverage(self) -> List[str]:
        """The union of coverage keys over every stored corpus entry —
        what a resumed fuzz run counts as "already seen"."""
        seen: set = set()
        for row in self._conn.execute(
            "SELECT coverage FROM fuzz_corpus"
        ).fetchall():
            seen.update(json.loads(row["coverage"] or "[]"))
        return sorted(seen)

    def counts(self) -> Dict[str, int]:
        """Row counts per table (used by the CLI's query summary)."""
        return {
            table: self._conn.execute(
                f"SELECT COUNT(*) AS n FROM {table}"
            ).fetchone()["n"]
            for table in ("runs", "campaigns", "episodes", "fuzz_corpus")
        }
