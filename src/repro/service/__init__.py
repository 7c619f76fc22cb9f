"""repro.service — the campaign-as-a-service HTTP surface (PR 10).

``python -m repro.service`` boots a long-lived stdlib-only HTTP/JSON
server that accepts scenario × seed campaign submissions, executes them
through THE :func:`~repro.campaign.core.execute_cell` orchestration
path on a bounded pool of job threads whose kernels run in simulation
worker processes (checkpointed shard-by-shard into the run-history
store), and streams live
:class:`~repro.runtime.telemetry.FleetTelemetry` snapshots to
subscribers over chunked NDJSON while shards run.  Determinism contract
unchanged: a campaign submitted over HTTP produces ``telemetry_digest``
and ``span_digest`` byte-identical to a serial
:func:`~repro.campaign.core.run_cell` of the same spec × seed.

See docs/SERVICE.md for the API reference and a curl walkthrough.
"""

from .client import ServiceClient, ServiceError
from .jobs import (
    Job,
    JobCancelled,
    JobManager,
    StreamingExecutor,
    SubmissionError,
    parse_submission,
)
from .server import CampaignServer, serve

__all__ = [
    "CampaignServer",
    "Job",
    "JobCancelled",
    "JobManager",
    "ServiceClient",
    "ServiceError",
    "StreamingExecutor",
    "SubmissionError",
    "parse_submission",
    "serve",
]
