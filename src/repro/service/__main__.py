"""``python -m repro.service`` — boot the campaign service.

    python -m repro.service --port 8750 --db BENCH_history.sqlite

``--port 0`` binds an ephemeral port; ``--port-file`` writes the bound
port to a file once listening, which is how the CI smoke lane (and any
other supervisor) discovers the address race-free.  SIGINT and SIGTERM
both stop the server cleanly, even when the process was started with
SIGINT ignored (as a shell's background job is).
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Any, List, Optional

from ..obs.history import DEFAULT_DB
from .server import CampaignServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="long-lived HTTP/JSON campaign service",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8750,
        help="TCP port (0 = ephemeral; see --port-file)",
    )
    parser.add_argument(
        "--db",
        default=DEFAULT_DB,
        help="run-history SQLite store (campaign checkpoints + /history)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="bounded job pool size (concurrent campaigns)",
    )
    parser.add_argument(
        "--segments",
        type=int,
        default=8,
        help="default kernel slices per shard (stream granularity)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening",
    )
    return parser


class _Stop(Exception):
    """Raised in the main thread by the SIGINT/SIGTERM handler."""


def _raise_stop(signum: int, frame: Any) -> None:
    raise _Stop(signal.Signals(signum).name)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    server = CampaignServer(
        host=args.host,
        port=args.port,
        db_path=args.db,
        workers=args.workers,
        segments=args.segments,
    )
    # Handlers go in before the port file appears, so a supervisor that
    # signals as soon as it reads the port is never lost.
    previous = {
        signum: signal.signal(signum, _raise_stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        host, port = server.address
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(str(port))
        print(
            f"campaign service listening on http://{host}:{port} "
            f"(db={args.db}, workers={args.workers})",
            flush=True,
        )
        server.serve_forever()
    except _Stop:
        print("shutting down", flush=True)
    finally:
        # The serve loop ran on this thread and has returned, so only the
        # job pool and the socket are left to stop (server.shutdown()
        # would wait forever for a loop that never started).
        server.manager.shutdown()
        server.server_close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
