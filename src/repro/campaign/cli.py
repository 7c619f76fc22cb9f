"""``python -m repro.campaign`` — run, resume, status, list, worker.

The campaign layer's human/CI surface, mirroring ``repro.obs`` and
``repro.fuzz`` conventions: every command takes ``--db`` (the same
SQLite store ``repro.obs`` uses; default ``BENCH_history.sqlite``) and
``--json`` for machine-readable output.

    python -m repro.campaign run --scenario zapping-storm --seeds 1 2 \\
        --backend distributed --campaign-id nightly
    python -m repro.campaign resume nightly        # skip durable shards
    python -m repro.campaign status nightly        # cells, shards, digests
    python -m repro.campaign list                  # known campaigns
    python -m repro.campaign worker --port 7077    # serve remote shards

``run`` checkpoints every completed shard under ``--campaign-id`` (one
is generated when omitted), so an interrupted invocation resumes with
``resume`` — producing digests byte-identical to an uninterrupted run
(docs/DISTRIBUTED.md walks through the guarantees).  ``--ephemeral``
skips the store entirely.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..obs.history import DEFAULT_DB
from .backends import DistributedBackend, InlineExecutor, SerialBackend
from .checkpoint import CampaignCheckpoint, new_campaign_id, resume_campaign
from .core import Campaign
from .distributed import (
    ProcessWorkerExecutor,
    ShardWorkerServer,
    SocketWorkerExecutor,
)
from .report import CampaignReport, format_campaign_table

BACKENDS = ("serial", "inline", "distributed", "socket")


def _parse_address(value: str):
    host, _sep, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"worker address must be host:port, got {value!r}"
        )
    return (host, int(port))


def _make_backend(args: argparse.Namespace):
    shards: Optional[int] = args.shards
    if args.backend == "serial":
        return SerialBackend()
    if args.backend == "inline":
        return DistributedBackend(InlineExecutor(), shards=shards)
    if args.backend == "distributed":
        return DistributedBackend(ProcessWorkerExecutor(), shards=shards)
    if args.backend == "socket":
        if not args.workers:
            raise SystemExit(
                "--backend socket needs at least one --worker host:port"
            )
        return DistributedBackend(
            SocketWorkerExecutor(args.workers), shards=shards,
        )
    raise SystemExit(f"unknown backend {args.backend!r}")


def _shards_arg(value: str) -> Optional[int]:
    if value == "auto":
        return None
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError("shards must be >= 1 or 'auto'")
    return count


def _emit_reports(reports: List[CampaignReport], as_json: bool) -> None:
    if as_json:
        print(json.dumps(
            [json.loads(report.to_json()) for report in reports],
            indent=2, sort_keys=True,
        ))
    else:
        print(format_campaign_table(reports))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    backend = _make_backend(args)
    campaign = Campaign(args.scenario, seeds=args.seeds, scale=args.scale)
    if args.ephemeral:
        reports = campaign.run(backend)
        _emit_reports(reports, args.json)
        return 0
    campaign_id = args.campaign_id or new_campaign_id()
    with CampaignCheckpoint(args.db) as checkpoint:
        reports = campaign.run(
            backend, checkpoint=checkpoint, campaign_id=campaign_id,
        )
    _emit_reports(reports, args.json)
    if not args.json:
        print(f"campaign {campaign_id!r}: {len(reports)} cell(s) durable "
              f"in {args.db}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    backend = _make_backend(args)
    with CampaignCheckpoint(args.db) as checkpoint:
        try:
            reports = resume_campaign(
                args.campaign_id, checkpoint, backend=backend,
            )
        except KeyError:
            print(f"no campaign {args.campaign_id!r} in {args.db}")
            return 1
    _emit_reports(reports, args.json)
    if not args.json:
        print(f"campaign {args.campaign_id!r}: {len(reports)} cell(s) "
              f"complete")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with CampaignCheckpoint(args.db) as checkpoint:
        status = checkpoint.status(args.campaign_id)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0 if status["cells"] else 1
    if not status["cells"]:
        print(f"no campaign {args.campaign_id!r} in {args.db}")
        return 1
    print(
        f"campaign {args.campaign_id!r}: {status['cells_complete']}/"
        f"{status['cells_total']} cells complete"
    )
    for cell in status["cells"]:
        print(
            f"  {cell['scenario']:<24} seed={cell['seed']:<4} "
            f"{cell['completed_shards']}/{cell['resolved_shards']} shards "
            f"(requested {cell['requested_shards']}) {cell['status']:<9} "
            f"telemetry={(cell['telemetry_digest'] or '-')[:12]}"
        )
        if cell["status"] == "complete":
            continue
        # A partial cell is a resume target: show exactly which shards
        # remain and how many attempts the durable ones took.
        for shard in cell["shards"]:
            if shard["state"] == "complete":
                detail = (
                    f"complete  attempts={shard['attempts']} "
                    f"worker={shard['worker']}"
                )
            else:
                detail = "missing"
            print(f"    shard {shard['shard_id']:>3}: {detail}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    with CampaignCheckpoint(args.db) as checkpoint:
        campaigns = checkpoint.campaigns(limit=args.limit)
    if args.json:
        print(json.dumps(campaigns, indent=2, sort_keys=True))
        return 0
    if not campaigns:
        print(f"no campaigns recorded in {args.db}")
        return 0
    print(f"{args.db}: {len(campaigns)} campaign(s)")
    for entry in campaigns:
        print(
            f"  {entry['campaign_id']:<28} {entry['created_at']}  "
            f"{entry['cells_complete']}/{entry['cells_total']} cells"
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    server = ShardWorkerServer(host=args.host, port=args.port)
    host, port = server.address
    print(f"shard worker listening on {host}:{port}", flush=True)
    try:
        served = server.serve(max_requests=args.max_requests)
    except KeyboardInterrupt:
        served = 0
    finally:
        server.close()
    print(f"served {served} shard(s)")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", default=DEFAULT_DB,
            help=f"checkpoint/history SQLite file (default: {DEFAULT_DB})",
        )
        sub.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of tables",
        )

    def add_backend(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend", choices=BACKENDS, default="serial",
            help="execution backend (default: serial)",
        )
        sub.add_argument(
            "--shards", type=_shards_arg, default=None, metavar="N|auto",
            help="shard count for sharded backends ('auto' = autotune; "
            "default: the backend's own default)",
        )
        sub.add_argument(
            "--worker", dest="workers", action="append",
            type=_parse_address, metavar="HOST:PORT",
            help="remote shard worker (repeatable; socket backend only)",
        )

    run = commands.add_parser(
        "run", help="run a campaign, checkpointing every completed shard"
    )
    add_common(run)
    add_backend(run)
    run.add_argument(
        "--scenario", action="append", required=True,
        help="library scenario name (repeatable)",
    )
    run.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="campaign seeds (default: 0)",
    )
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument(
        "--campaign-id",
        help="name for the checkpoint rows (default: generated)",
    )
    run.add_argument(
        "--ephemeral", action="store_true",
        help="skip the checkpoint store entirely",
    )
    run.set_defaults(func=_cmd_run)

    resume = commands.add_parser(
        "resume", help="finish an interrupted campaign from its checkpoint"
    )
    add_common(resume)
    add_backend(resume)
    resume.add_argument("campaign_id")
    resume.set_defaults(func=_cmd_resume)

    status = commands.add_parser(
        "status", help="per-cell shard progress and digests of a campaign"
    )
    add_common(status)
    status.add_argument("campaign_id")
    status.set_defaults(func=_cmd_status)

    listing = commands.add_parser("list", help="known campaigns in the store")
    add_common(listing)
    listing.add_argument("--limit", type=int, default=50)
    listing.set_defaults(func=_cmd_list)

    worker = commands.add_parser(
        "worker", help="serve shard plans to socket-backend campaigns"
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = ephemeral, printed at startup)",
    )
    worker.add_argument(
        "--max-requests", type=int, default=None,
        help="exit after serving this many shards (default: forever)",
    )
    worker.set_defaults(func=_cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
