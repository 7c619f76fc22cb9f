"""Start the campaign service with the benchmark's layer spans or profiler.

    python3 bench/serve.py --spans OUT.json -- --port 0 --port-file F ...
    python3 bench/serve.py --profile OUT.prof -- --port 0 --port-file F ...

Everything after ``--`` goes to ``repro.service.__main__.main``, so the
traced server has the same process layout as ``python -m
repro.service``.  The server stops on SIGINT; the spans (JSON) or the
profile (``pstats`` dump) are written when it has shut down.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import sys
from pathlib import Path
from typing import Any, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402


def _profile_cells(path: str) -> Any:
    """Wrap the job thread's ``execute_cell`` in one shared profiler.

    The server's first cell is the warm-up job that ``ServiceRunner.boot``
    runs before any pass; it runs unprofiled and uncounted.  The cells
    after it must come one at a time (a single client), since one
    profiler cannot follow two job threads.
    """
    import repro.service.jobs as jobs

    profiler = cProfile.Profile()
    original = jobs.execute_cell
    seen = {"cells": 0}

    @functools.wraps(original)
    def execute_cell(*args: Any, **kwargs: Any) -> Any:
        seen["cells"] += 1
        if seen["cells"] == 1:
            return original(*args, **kwargs)
        profiler.enable()
        try:
            return original(*args, **kwargs)
        finally:
            profiler.disable()

    jobs.execute_cell = execute_cell

    def dump() -> None:
        profiler.dump_stats(path)
        Path(path + ".cells").write_text(str(max(seen["cells"] - 1, 0)))

    return dump


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/serve.py")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--spans", help="write the server's spans here at exit")
    mode.add_argument("--profile", help="write a pstats dump here at exit")
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    service_args = args.service_args
    if service_args[:1] == ["--"]:
        service_args = service_args[1:]

    from repro.service.__main__ import main as service_main

    if args.spans:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS + tracing.SERVER_TARGETS)
        try:
            return service_main(service_args)
        finally:
            tracer.uninstall()
            Path(args.spans).write_text(json.dumps({
                "spans": tracer.finish(), "missing": tracer.missing,
            }))
    dump = _profile_cells(args.profile)
    try:
        return service_main(service_args)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
