"""Run the repository benchmark and print every metric with its unit.

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out DIR] [--smoke]
    python3 bench/run.py --write-golden

The run length is ``run_seconds`` in ``BENCHMARK.json``, the same on
every commit.  ``--seconds`` is part of the contract's calling convention
(``<command> --workload W --seed N --seconds S --trace T``); any value
other than ``run_seconds`` is refused, so two results never differ in
run length.

Each workload runs in fresh processes started from this one (see
``bench/workloads.py``): ``setup_s`` is the median of five set-ups, each
timed here from process start to its ``ready`` line, and the last of the
five goes on to the timed run.  With ``--trace 1`` one set-up is
timed and the workload process measures the per-layer metrics instead.

Output: one ``workload metric value unit`` line per metric, a results
JSON (metrics, provenance, cell digests) in ``--out`` — ``.bench_out/``
at the repository root by default — and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The metrics
named in ``BENCHMARK.json`` are the contract: ``end_to_end`` without
``--trace``, ``per_layer`` with it.  The exit code is 1 when a cell
failed or its digest differs from ``bench/golden.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed per workload in an untraced run; the median is setup_s.
SETUP_SAMPLES = 5

#: A workload's processes (and the servers they start) still running this
#: long after its first set-up began are killed.
DEADLINE_S = 170


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _child(
    args: argparse.Namespace, workload: str, setup_only: bool, deadline: float,
) -> Tuple[float, Dict[str, Any]]:
    """Run one workload process; (seconds to its ``ready`` line, result)."""
    command = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out), "--golden", args.golden,
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    start = perf_counter()
    # A session of its own, so the watchdog also reaches a service the
    # workload process started.
    process = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    watchdog = threading.Timer(max(1.0, deadline - start), _kill_group, (process,))
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup = perf_counter() - start
        rest = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            _kill_group(process)
            process.wait()
    if ready.strip() != "ready" or code != 0:
        raise SystemExit(f"{workload}: workload process failed (exit {code})")
    return setup, {} if setup_only else json.loads(rest[-1])


def run_workload(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    samples = 1 if args.trace or args.smoke else SETUP_SAMPLES
    deadline = perf_counter() + DEADLINE_S
    setups = [_child(args, workload, True, deadline)[0] for _ in range(samples - 1)]
    setup, result = _child(args, workload, False, deadline)
    setups.append(setup)
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_s"] = len(setups)
    return result


def provenance(args: argparse.Namespace, started: str) -> Dict[str, Any]:
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "--no-optional-locks", *command], cwd=str(ROOT),
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_rev": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "hostname": socket.gethostname(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "started_utc": started,
    }


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="results directory")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed-size cells, for the tests")
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds != contract["run_seconds"]:
        parser.error(f"--seconds must be {contract['run_seconds']}, "
                     "run_seconds in BENCHMARK.json")
    args.out = Path(args.out or ROOT / ".bench_out").resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or names
    if args.write_golden:
        command = [sys.executable, str(HERE / "workloads.py"), "--write-golden",
                   "--golden", args.golden]
        for name in workloads:
            command += ["--workload", name]
        return subprocess.run(command, cwd=str(ROOT)).returncode

    # The program looks up its git revision when it checkpoints; the
    # ceiling keeps that lookup, and ours, inside this checkout.
    ceiling = os.environ.get("GIT_CEILING_DIRECTORIES")
    os.environ["GIT_CEILING_DIRECTORIES"] = os.pathsep.join(
        filter(None, (ceiling, str(ROOT.parent)))
    )
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    results = {name: run_workload(args, name) for name in workloads}
    report = {"provenance": provenance(args, started), "workloads": results}
    stamp = started.replace(":", "").replace("-", "")[:15]
    path = args.out / f"results-{stamp}-seed{args.seed}-{os.getpid()}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))

    section = "per_layer" if args.trace else "end_to_end"
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        print(f"# {name}: {result['cells']} timed cells, samples {result['samples']}, "
              f"digest {result['digest'][:16]}")
        for failure in result["failures"]:
            print(f"FAILED {name} {failure}", file=sys.stderr)
        for kind in ("end_to_end", "per_layer"):
            for metric in contract[kind] if kind in result else ():
                value = result[kind][metric["name"]]
                print(f"{name} {metric['name']} {value} {metric['unit']}")
        for metric in contract[section]:
            key = metric["name"] if len(results) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": result[section][metric["name"]], "unit": metric["unit"]}
    print(f"# results: {path}")
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
