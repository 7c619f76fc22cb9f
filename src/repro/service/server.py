"""The campaign service HTTP surface (stdlib only).

``CampaignServer`` is a :class:`ThreadingHTTPServer` over one
:class:`~repro.service.jobs.JobManager`:

* ``POST /campaigns``                — submit a scenario × seed grid (202)
* ``GET  /campaigns``                — all jobs this server knows
* ``GET  /campaigns/{id}``           — job + per-shard checkpoint status
* ``GET  /campaigns/{id}/report``    — full merged CampaignReports (200
  once complete, 409 with the live state before that)
* ``POST /campaigns/{id}/cancel``    — cooperative cancel (lands at the
  next segment boundary)
* ``GET  /campaigns/{id}/stream``    — chunked NDJSON: replayed + live
  telemetry/shard/cell records, heartbeats while idle, one terminal
  ``end`` record carrying both digests
* ``GET  /history``                  — recent finished campaigns from
  the SQLite run-history store
* ``GET  /trend``                    — rolling trend-gate evaluation
  over recorded run_all reports
* ``GET  /healthz``                  — liveness + job counts

Every response body is JSON (the stream is JSON per line).  Handler
threads open their own short-lived :class:`RunHistory` connections;
nothing here shares SQLite handles across threads.
"""

from __future__ import annotations

import json
import queue
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, urlparse

from ..obs.history import DEFAULT_DB, RunHistory
from ..obs.gates import TREND_WINDOW, evaluate, failures
from .jobs import JobManager, SubmissionError, encode_record

__all__ = ["CampaignServer", "serve"]

#: Seconds between heartbeat records when a stream has nothing to say.
STREAM_HEARTBEAT_SECONDS = 2.0

#: Submission bodies larger than this are rejected outright.
MAX_BODY_BYTES = 4 * 1024 * 1024


class CampaignServer(ThreadingHTTPServer):
    """The service: a threading HTTP server owning one JobManager."""

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        db_path: str = DEFAULT_DB,
        workers: int = 2,
        segments: int = 8,
    ) -> None:
        self.manager = JobManager(db_path, workers=workers, segments=segments)
        self.db_path = db_path
        super().__init__((host, port), _CampaignRequestHandler)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server_address[:2]
        return str(host), int(port)

    def shutdown(self) -> None:  # also stop the pool, not just the listener
        self.manager.shutdown()
        super().shutdown()


class _CampaignRequestHandler(BaseHTTPRequestHandler):
    # HTTP/1.1 so chunked transfer encoding is legal on the stream.
    protocol_version = "HTTP/1.1"
    server: CampaignServer

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        # One access-log line per request on stderr; the CI smoke lane
        # captures it as the server-log artifact.
        super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise SubmissionError(f"request body too large ({length} bytes)")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SubmissionError("request body must be JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SubmissionError(f"request body is not valid JSON: {exc}")

    def _query(self) -> Dict[str, str]:
        parsed = parse_qs(urlparse(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _route(self) -> Tuple[str, ...]:
        path = urlparse(self.path).path.strip("/")
        return tuple(part for part in path.split("/") if part)

    # -- dispatch -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        try:
            self._do_get()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._do_post()
        except SubmissionError as exc:
            self._error(400, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _do_get(self) -> None:
        route = self._route()
        if route == ("healthz",):
            jobs = self.server.manager.jobs()
            self._send_json(
                200,
                {
                    "ok": True,
                    "jobs": len(jobs),
                    "running": sum(1 for job in jobs if job.state == "running"),
                    "db": self.server.db_path,
                },
            )
        elif route == ("campaigns",):
            self._send_json(
                200,
                {
                    "jobs": [job.snapshot() for job in self.server.manager.jobs()],
                },
            )
        elif len(route) == 2 and route[0] == "campaigns":
            status = self.server.manager.status(route[1])
            if status is None:
                self._error(404, f"unknown job {route[1]!r}")
            else:
                self._send_json(200, status)
        elif len(route) == 3 and route[0] == "campaigns":
            job_id, leaf = route[1], route[2]
            job = self.server.manager.get(job_id)
            if job is None:
                self._error(404, f"unknown job {job_id!r}")
            elif leaf == "report":
                if job.state != "complete":
                    self._send_json(
                        409,
                        {
                            "error": f"job is {job.state}, not complete",
                            "state": job.state,
                        },
                    )
                else:
                    self._send_json(
                        200,
                        {
                            "job_id": job.job_id,
                            "campaign_id": job.campaign_id,
                            "reports": [report.as_dict() for report in job.reports],
                        },
                    )
            elif leaf == "stream":
                self._stream(job)
            else:
                self._error(404, f"unknown resource {leaf!r}")
        elif route == ("history",):
            query = self._query()
            limit = int(query.get("limit", "20"))
            scenario = query.get("scenario")
            with RunHistory(self.server.db_path) as history:
                rows = history.campaigns(scenario=scenario, limit=limit)
            self._send_json(200, {"campaigns": rows})
        elif route == ("trend",):
            self._trend()
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _do_post(self) -> None:
        route = self._route()
        if route == ("campaigns",):
            data = self._read_body()
            try:
                job = self.server.manager.submit(data)
            except SubmissionError:
                raise
            self._send_json(
                202,
                {
                    "job_id": job.job_id,
                    "campaign_id": job.campaign_id,
                    "state": job.state,
                    "cells": len(job.cells),
                    "shards": job.shards,
                    "segments": job.segments,
                },
            )
        elif len(route) == 3 and route[0] == "campaigns" and route[2] == "cancel":
            job = self.server.manager.cancel(route[1])
            if job is None:
                self._error(404, f"unknown job {route[1]!r}")
            else:
                self._send_json(
                    200,
                    {
                        "job_id": job.job_id,
                        "state": job.state,
                        "cancel_requested": True,
                    },
                )
        else:
            self._error(404, f"unknown path {self.path!r}")

    # -- the stream -----------------------------------------------------
    def _stream(self, job: Any) -> None:
        """Chunked NDJSON: full replay, then live records, heartbeats
        while idle, ending with the job's terminal ``end`` record."""
        subscriber = job.subscribe()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            while True:
                try:
                    record = subscriber.get(timeout=STREAM_HEARTBEAT_SECONDS)
                except queue.Empty:
                    if job.finished:
                        # Terminal record was consumed by an earlier
                        # subscriber generation or emitted before we
                        # subscribed-yet-after-replay; replay covers it,
                        # so an empty queue on a finished job means done.
                        break
                    self._write_chunk(encode_record({"type": "heartbeat"}))
                    continue
                self._write_chunk(encode_record(record))
                if record.get("type") == "end":
                    break
            self._write_chunk(b"")  # terminating 0-length chunk
        except (BrokenPipeError, ConnectionResetError, socket.timeout):
            pass  # subscriber disconnected mid-stream
        finally:
            job.unsubscribe(subscriber)

    def _write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        if data:
            self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # -- trend ----------------------------------------------------------
    def _trend(self) -> None:
        with RunHistory(self.server.db_path) as history:
            reports = history.run_reports(limit=TREND_WINDOW + 1)
        records = evaluate(reports[0], reports[1:]) if reports else []
        records = [record for record in records if record.trend]
        self._send_json(
            200,
            {
                "ok": not failures(records),
                "runs": len(reports),
                "window": TREND_WINDOW,
                "failures": failures(records),
                "gates": [record._asdict() for record in records],
            },
        )


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    db_path: str = DEFAULT_DB,
    workers: int = 2,
    segments: int = 8,
) -> CampaignServer:
    """Construct a ready-to-run server (caller drives serve_forever)."""
    return CampaignServer(
        host=host,
        port=port,
        db_path=db_path,
        workers=workers,
        segments=segments,
    )
