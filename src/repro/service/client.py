"""Typed stdlib client for the campaign service.

One :class:`ServiceClient` per server address; every call opens a fresh
:class:`http.client.HTTPConnection` (the service is same-host /
CI-local, so connection reuse buys nothing and per-call connections
keep the client trivially thread-safe).  Non-2xx responses raise
:class:`ServiceError` carrying the decoded JSON error payload.

    client = ServiceClient("127.0.0.1", 8750)
    job = client.submit(scenarios=["recovery-ladder-drill"], seeds=[7])
    for record in client.stream(job["job_id"]):
        ...                       # telemetry / shard / cell / end
    report = client.report(job["job_id"])
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, List, Optional, Union
from urllib.parse import urlencode

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx service response."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(message or f"service returned HTTP {status}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Minimal typed wrapper over the service's JSON endpoints."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8750,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        query: Optional[Dict[str, Any]] = None,
    ) -> Any:
        if query:
            path = f"{path}?{urlencode(query)}"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            data = json.loads(raw) if raw else None
            if response.status >= 400:
                raise ServiceError(response.status, data)
            return data
        finally:
            conn.close()

    # -- endpoints ------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def submit(
        self,
        scenarios: List[Union[str, Dict[str, Any]]],
        seeds: Optional[List[int]] = None,
        shards: Optional[int] = None,
        segments: Optional[int] = None,
        campaign_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {"scenarios": scenarios}
        if seeds is not None:
            body["seeds"] = seeds
        if shards is not None:
            body["shards"] = shards
        if segments is not None:
            body["segments"] = segments
        if campaign_id is not None:
            body["campaign_id"] = campaign_id
        return self._request("POST", "/campaigns", body=body)

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/campaigns")["jobs"]

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{job_id}")

    def report(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/campaigns/{job_id}/report")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/campaigns/{job_id}/cancel")

    def history(
        self, limit: int = 20, scenario: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        query: Dict[str, Any] = {"limit": limit}
        if scenario is not None:
            query["scenario"] = scenario
        return self._request("GET", "/history", query=query)["campaigns"]

    def trend(self) -> Dict[str, Any]:
        return self._request("GET", "/trend")

    # -- streaming ------------------------------------------------------
    def stream(self, job_id: str, heartbeats: bool = False) -> Iterator[Dict[str, Any]]:
        """Yield parsed NDJSON records until the terminal ``end``.

        ``http.client`` decodes the chunked transfer encoding
        transparently, so each iteration is one ``readline`` on the
        response.  Heartbeat records are filtered out unless asked for.
        The underlying connection stays open for the stream's lifetime
        (abandoning the iterator closes it).
        """
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request("GET", f"/campaigns/{job_id}/stream")
            response = conn.getresponse()
            if response.status >= 400:
                raise ServiceError(
                    response.status, json.loads(response.read() or b"{}")
                )
            while True:
                line = response.readline()
                if not line:
                    break
                record = json.loads(line)
                if record.get("type") == "heartbeat" and not heartbeats:
                    continue
                yield record
                if record.get("type") == "end":
                    break
        finally:
            conn.close()

    # -- conveniences ---------------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 120.0, poll: float = 0.25
    ) -> Dict[str, Any]:
        """Poll ``status`` until the job reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in ("complete", "failed", "cancelled"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']!r} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(poll)

    def run(
        self,
        scenarios: List[Union[str, Dict[str, Any]]],
        seeds: Optional[List[int]] = None,
        timeout: float = 120.0,
        **options: Any,
    ) -> Dict[str, Any]:
        """Submit, wait, and return the full report in one call."""
        job = self.submit(scenarios, seeds=seeds, **options)
        self.wait(job["job_id"], timeout=timeout)
        return self.report(job["job_id"])
