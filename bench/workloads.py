"""The benchmark's four workloads and the process that runs one of them.

``bench/run.py`` starts this file once per workload, in a fresh process:

    python3 bench/workloads.py --workload tv-fleet --seed 0 --seconds 20 \\
        --trace 0 --out .bench_out [--smoke] [--golden PATH] [--setup-only]

The process sets up (imports, spec build, server boot for the service
workload, one untimed warm-up cell), prints ``ready`` — the parent times
set-up up to that line — then runs the timed pass: whole rounds of cells
until ``--seconds`` have passed.  With ``--trace 1`` it instead runs a
fixed number of rounds twice, untraced and under the span wrappers in
turn, then profiles the first fifth of them.  The last line of its
output is one JSON object with the measured values.

``--write-golden`` recomputes ``bench/golden.json`` instead: the
telemetry digest (and span digest where spans are on) of every cell in
every workload's pool, through serial ``run_cell``.

Inputs: each workload has a fixed pool of cells — ``rounds`` simulation
seeds, each run once per scenario of the workload.  ``--seed`` shuffles
the order of the rounds, so every seed is a different cell sequence, and
every cell it can reach has a golden digest to be checked against.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import itertools
import json
import math
import os
import pstats
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from repro.campaign import CampaignCheckpoint, run_cell  # noqa: E402
from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile, get_scenario  # noqa: E402
from repro.scenarios.library import COUCH_KEYS  # noqa: E402
from repro.scenarios.spec import spec_hash  # noqa: E402
from repro.service import ServiceClient, ServiceError  # noqa: E402

GOLDEN = HERE / "golden.json"

#: Seed of the untimed warm-up cell: outside every pool, so warming up
#: never pre-runs a timed cell.
WARMUP_SEED = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    #: Pool size: simulation seeds 0..rounds-1, each a round of one cell
    #: per scenario.
    rounds: int
    #: Rounds in each traced pass.
    trace_rounds: int
    smoke_rounds: int
    #: Device-mix scale of the --smoke specs (None: the same specs).
    smoke_scale: Optional[float] = None
    service: bool = False
    checkpoint: bool = False
    #: Medians over round means (the mean of a round's cells) instead of
    #: over cells.  The four drills differ tenfold in cost, so a per-cell
    #: median sits in the gap between the short and the long drills and
    #: jumps with the mix.
    median_of_rounds: bool = False

    def specs(self, smoke: bool) -> Tuple[ScenarioSpec, ...]:
        if smoke and self.smoke_scale is not None:
            return tuple(spec.scaled(self.smoke_scale) for spec in self.scenarios)
        return self.scenarios

    def pool(self, smoke: bool) -> List[List[Tuple[ScenarioSpec, int]]]:
        count = self.smoke_rounds if smoke else self.rounds
        return [[(spec, seed) for spec in self.specs(smoke)] for seed in range(count)]

    def rounds_for(self, seed: int, smoke: bool) -> List[List[Tuple[ScenarioSpec, int]]]:
        rounds = self.pool(smoke)
        random.Random(seed).shuffle(rounds)
        return rounds


def _drill(name: str) -> ScenarioSpec:
    return replace(get_scenario(name), record_spans=True)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tv-fleet",
            scenarios=(ScenarioSpec(
                name="bench-tv-fleet",
                description="100 TVs, couch users, volume fault on 20%",
                duration=30.0,
                tvs=100,
                profiles=(UserProfile("couch", mean_gap=3.0, keys=COUCH_KEYS),),
                phases=(FaultPhase("volume_overshoot", at=10.0, fraction=0.2),),
            ),),
            rounds=100,
            trace_rounds=30,
            smoke_rounds=2,
            smoke_scale=0.1,
        ),
        Workload(
            name="thousand-mixed",
            scenarios=(ScenarioSpec(
                name="bench-thousand-mixed",
                description="700 TVs, 150 players, 150 printers",
                duration=20.0,
                tvs=700,
                players=150,
                printers=150,
                profiles=(UserProfile("couch", mean_gap=15.0, keys=COUCH_KEYS),),
                player_seek_every=5.0,
                printer_job_gap=10.0,
                phases=(FaultPhase("volume_overshoot", at=10.0, fraction=0.1),),
            ),),
            rounds=10,
            trace_rounds=4,
            smoke_rounds=2,
            smoke_scale=0.02,
        ),
        Workload(
            name="recovery-drills",
            scenarios=tuple(_drill(name) for name in (
                "recovery-ladder-drill", "player-decoder-drill",
                "printer-jam-drill", "targeted-rebind-storm",
            )),
            rounds=25,
            trace_rounds=8,
            smoke_rounds=1,
            smoke_scale=0.25,
            checkpoint=True,
            median_of_rounds=True,
        ),
        Workload(
            name="service-loop",
            scenarios=tuple(get_scenario(name) for name in (
                "recovery-ladder-drill", "printer-burst",
                "teletext-heavy", "alert-flood",
            )),
            rounds=50,
            trace_rounds=20,
            smoke_rounds=1,
            service=True,
        ),
    )
}


def golden_key(spec: ScenarioSpec, seed: int) -> str:
    """Golden-file key: a spec whose definition changes gets new keys."""
    return f"{spec.name}#{spec_hash(spec)[:12]}/{seed}"


def _rounds_from(rounds: Sequence[Any], offset: int) -> Iterator[Tuple[int, Any]]:
    """(index, round) from ``offset`` on, wrapping around the pool."""
    return ((index, rounds[index % len(rounds)]) for index in itertools.count(offset))


def _cell(key: str, round_index: int, seconds: float, **fields: Any) -> Dict[str, Any]:
    cell = {
        "key": key, "round": round_index, "seconds": seconds,
        "first_record_s": seconds, "dispatched": 0, "telemetry": "",
        "spans": "", "error": None,
    }
    cell.update(fields)
    return cell


Rounds = Sequence[Sequence[Tuple[ScenarioSpec, int]]]


# ----------------------------------------------------------------------
# batch workloads: serial run_cell in this process
# ----------------------------------------------------------------------
class BatchRunner:
    def __init__(self, workload: Workload, scratch: Path) -> None:
        self.checkpoint = None
        if workload.checkpoint:
            self.checkpoint = CampaignCheckpoint(str(scratch / "checkpoint.sqlite"))
        self._campaigns = itertools.count()

    def setup(self, specs: Sequence[ScenarioSpec]) -> None:
        self.run_one(specs[0], WARMUP_SEED, "warmup", 0, None, None)

    def close(self) -> None:
        checkpoint, self.checkpoint = self.checkpoint, None
        if checkpoint is not None:
            checkpoint.close()

    def run_one(
        self, spec: ScenarioSpec, seed: int, tag: str, round_index: int,
        tracer: Optional[tracing.Tracer], profiler: Optional[cProfile.Profile],
    ) -> Dict[str, Any]:
        # A campaign id per cell: a repeated (spec, seed) in one campaign
        # would be merged from the store instead of simulated.
        campaign_id = f"{tag}-{next(self._campaigns)}" if self.checkpoint else None
        scope = tracer.span("bench.cell", cell=tag) if tracer else nullcontext({"args": {}})
        start = perf_counter()
        try:
            with scope as span:
                if profiler is not None:
                    profiler.enable()
                try:
                    report = run_cell(
                        spec, seed, checkpoint=self.checkpoint, campaign_id=campaign_id,
                    )
                finally:
                    if profiler is not None:
                        profiler.disable()
                span["args"]["dispatched"] = report.dispatched
        except Exception as exc:  # counted as a failed cell, the run goes on
            return _cell(golden_key(spec, seed), round_index, perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        error = None
        if self.checkpoint is not None:
            states = [row["status"] for row in self.checkpoint.cells(campaign_id)]
            if states != ["complete"]:
                error = f"checkpoint cell state {states}"
        return _cell(
            golden_key(spec, seed), round_index, seconds,
            dispatched=report.dispatched, telemetry=report.telemetry_digest,
            spans=report.span_digest, error=error,
        )

    def run_pass(
        self, rounds: Rounds, label: str, seconds: Optional[float] = None,
        count: Optional[int] = None, offset: int = 0,
        tracer: Optional[tracing.Tracer] = None,
        profiler: Optional[cProfile.Profile] = None,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """Run whole rounds from ``offset`` until ``seconds`` have passed
        or ``count`` rounds ran; with ``tracer``, under its wrappers."""
        cells: List[Dict[str, Any]] = []
        if tracer is not None:
            tracer.install()
        start = perf_counter()
        try:
            for index, cells_of_round in _rounds_from(rounds, offset):
                if count is not None and index >= offset + count:
                    break
                if seconds is not None and index > offset and perf_counter() - start >= seconds:
                    break
                for position, (spec, seed) in enumerate(cells_of_round):
                    tag = f"{label}{index}.{position}:{spec.name}/{seed}"
                    cells.append(self.run_one(spec, seed, tag, index, tracer, profiler))
            wall = perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        return cells, wall


# ----------------------------------------------------------------------
# service workload: a real `python -m repro.service` and two clients
# ----------------------------------------------------------------------
class ServiceRunner:
    CLIENTS = 2

    def __init__(self, workload: Workload, scratch: Path, log_prefix: Path) -> None:
        self.jobs_per_round = len(workload.scenarios)
        self.scratch = scratch
        self.log_prefix = log_prefix
        self.client: Optional[ServiceClient] = None
        self.servers: List[subprocess.Popen] = []

    def boot(
        self, specs: Sequence[ScenarioSpec], launcher: Sequence[str] = (),
    ) -> Tuple[ServiceClient, subprocess.Popen]:
        """Start a server, wait for its port and /healthz, warm it up."""
        boot = len(self.servers)
        port_file = self.scratch / f"port-{boot}"
        command = [sys.executable]
        command += list(launcher) + ["--"] if launcher else ["-m", "repro.service"]
        command += [
            "--port", "0", "--port-file", str(port_file), "--workers", "2",
            "--db", str(self.scratch / f"service-{boot}.sqlite"),
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log_name = f"{self.log_prefix}-{boot}.log"
        with open(log_name, "wb") as log:
            process = subprocess.Popen(
                command, cwd=str(ROOT), env=env, stdout=log, stderr=log,
            )
        self.servers.append(process)
        deadline = perf_counter() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if process.poll() is not None or perf_counter() > deadline:
                raise RuntimeError(f"service did not start (see {log_name})")
            time.sleep(0.005)
        client = ServiceClient("127.0.0.1", int(port_file.read_text()), timeout=60)
        client.health()
        warm = self.run_job(client, specs[0], WARMUP_SEED, 0, None)
        if warm["error"]:
            raise RuntimeError(f"warm-up job failed: {warm['error']}")
        return client, process

    def setup(self, specs: Sequence[ScenarioSpec]) -> None:
        self.client, _ = self.boot(specs)

    @staticmethod
    def stop(process: subprocess.Popen) -> None:
        """SIGINT is the service's shutdown signal."""
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def close(self) -> None:
        for process in self.servers:
            self.stop(process)

    def run_job(
        self, client: ServiceClient, spec: ScenarioSpec, seed: int,
        round_index: int, tracer: Optional[tracing.Tracer],
    ) -> Dict[str, Any]:
        key = golden_key(spec, seed)
        first = end = None
        records = size = 0
        start = perf_counter()
        try:
            job = client.submit([spec.name], seeds=[seed])
            submitted = perf_counter()
            for record in client.stream(job["job_id"]):
                if first is None and record["type"] == "telemetry":
                    first = perf_counter()
                if tracer is not None:
                    records += 1
                    size += len(json.dumps(record, sort_keys=True)) + 1
                if record["type"] == "end":
                    end = record
        except (ServiceError, OSError, ValueError, KeyError) as exc:
            return _cell(key, round_index, perf_counter() - start,
                         error=f"{type(exc).__name__}: {exc}")
        finished = perf_counter()
        if end is None or end.get("state") != "complete" or first is None:
            state = end and (end.get("state"), end.get("error"))
            return _cell(key, round_index, finished - start,
                         error=f"job {job['job_id']} ended as {state}, first record {first}")
        cell = end["cells"][0]
        if tracer is not None:
            job_span = tracer.add(
                "client.job", start, finished, job["job_id"],
                dispatched=cell["dispatched"], records=records, bytes=size,
            )
            tracer.add("client.submit", start, submitted, job["job_id"], job_span)
            tracer.add("client.stream", submitted, finished, job["job_id"], job_span)
        return _cell(
            key, round_index, finished - start, first_record_s=first - start,
            dispatched=cell["dispatched"], telemetry=end.get("telemetry_digest", ""),
            spans=end.get("span_digest") or "",
        )

    def run_pass(
        self, rounds: Rounds, label: str, seconds: Optional[float] = None,
        count: Optional[int] = None, offset: int = 0,
        tracer: Optional[tracing.Tracer] = None,
        client: Optional[ServiceClient] = None, clients: int = CLIENTS,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """Closed loop: each client submits its next job when one ends.

        Jobs are the cells of whole rounds from ``offset``, until
        ``seconds`` have passed or ``count`` rounds were taken; ``tracer``
        records the client-side spans only (the server traces itself).
        """
        client = client or self.client
        jobs = (
            (index, spec, seed)
            for index, cells_of_round in _rounds_from(rounds, offset)
            for spec, seed in cells_of_round
        )
        limit = None if count is None else count * self.jobs_per_round
        lock = threading.Lock()
        cells: List[Dict[str, Any]] = []
        taken = itertools.count()

        def next_job() -> Optional[Tuple[int, ScenarioSpec, int]]:
            with lock:
                number = next(taken)
                if limit is not None and number >= limit:
                    return None
                at_boundary = number and number % self.jobs_per_round == 0
                if seconds is not None and at_boundary and perf_counter() - start >= seconds:
                    return None
                return next(jobs)

        def loop() -> None:
            while (job := next_job()) is not None:
                index, spec, seed = job
                cells.append(self.run_job(client, spec, seed, index, tracer))

        start = perf_counter()
        threads = [threading.Thread(target=loop) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a service client did not finish")
        return cells, perf_counter() - start


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median_samples(
    cells: Sequence[Dict[str, Any]], field: str, of_rounds: bool,
) -> List[float]:
    if not of_rounds:
        return [cell[field] for cell in cells]
    rounds: Dict[int, List[float]] = {}
    for cell in cells:
        rounds.setdefault(cell["round"], []).append(cell[field])
    return [sum(values) / len(values) for values in rounds.values()]


def end_to_end(
    cells: Sequence[Dict[str, Any]], wall: float, median_of_rounds: bool, peak_rss_kb: int,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    ok = [cell for cell in cells if cell["error"] is None]
    timed = ok or cells
    latency = _median_samples(timed, "seconds", median_of_rounds)
    first = _median_samples(timed, "first_record_s", median_of_rounds)
    metrics = {
        "cell_s_p50": statistics.median(latency),
        "cell_s_p90": _p90([cell["seconds"] for cell in timed]),
        "cells_per_s": len(ok) / wall,
        "events_per_s": sum(cell["dispatched"] for cell in ok) / wall,
        "first_record_s_p50": statistics.median(first),
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_ratio": len(ok) / len(cells),
    }
    return metrics, {"cell_s_p50": len(latency), "cell_s_p90": len(timed)}


def check_golden(cells: Sequence[Dict[str, Any]], golden: Dict[str, Any]) -> None:
    """Fail every cell whose digests differ from the golden file."""
    for cell in cells:
        if cell["error"] is not None:
            continue
        expected = golden.get(cell["key"])
        if expected is None:
            cell["error"] = "no golden digest for this cell"
        elif expected["telemetry"] != cell["telemetry"]:
            cell["error"] = f"telemetry digest {cell['telemetry'][:12]} != golden"
        elif expected.get("spans", "") != cell["spans"]:
            cell["error"] = f"span digest {cell['spans'][:12]} != golden"


def _digest(cell: Dict[str, Any]) -> str:
    return cell["telemetry"] + (f":{cell['spans']}" if cell["spans"] else "")


# ----------------------------------------------------------------------
# the measuring process
# ----------------------------------------------------------------------
def measure(args: argparse.Namespace) -> Dict[str, Any]:
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    stem = f"{workload.name}-seed{args.seed}-{os.getpid()}"
    scratch = out / f"tmp-{stem}"
    scratch.mkdir(parents=True, exist_ok=True)
    golden = json.loads(Path(args.golden).read_text())
    specs = workload.specs(args.smoke)
    rounds = workload.rounds_for(args.seed, args.smoke)
    if workload.service:
        runner: Any = ServiceRunner(workload, scratch, out / f"service-{stem}")
    else:
        runner = BatchRunner(workload, scratch)
    result: Dict[str, Any] = {}
    try:
        runner.setup(specs)
        print("ready", flush=True)
        if args.setup_only:
            return result
        if args.smoke:
            count: Optional[int] = workload.smoke_rounds
        elif args.trace:
            count = workload.trace_rounds
        else:
            count = None
        if args.trace:
            timed, wall, traced, layers, exact = trace(
                runner, workload, specs, rounds, count, out, stem,
            )
            result.update(per_layer=layers, exact=exact)
            result["trace_file"] = str(out / f"trace-{stem}.json")
        else:
            timed, wall = runner.run_pass(
                rounds, "t", seconds=None if count else args.seconds, count=count,
            )
            traced = []
    finally:
        runner.close()
        shutil.rmtree(scratch, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if workload.service else resource.RUSAGE_SELF
    check_golden(timed, golden)
    check_golden(traced, golden)
    result["end_to_end"], result["samples"] = end_to_end(
        timed, wall, workload.median_of_rounds, resource.getrusage(who).ru_maxrss,
    )
    if not workload.service:
        # A batch cell's one record is its report: the metric is emitted,
        # as the contract asks, but compare.py does not judge it twice.
        result["aliases"] = {"first_record_s_p50": "cell_s_p50"}
    cells = list(timed) + list(traced)
    good = {cell["key"]: _digest(cell) for cell in cells if cell["error"] is None}
    result.update(
        timed_wall_s=wall,
        timed_cells=[
            [cell["round"], cell["seconds"], cell["first_record_s"], cell["dispatched"]]
            for cell in timed
        ],
        cells=len(timed),
        attempted=len(cells),
        failed=len(cells) - sum(1 for cell in cells if cell["error"] is None),
        failures=[f"{cell['key']}: {cell['error']}" for cell in cells if cell["error"]],
        cell_digests=good,
        digest=hashlib.sha256(
            "\n".join(f"{key}={good[key]}" for key in sorted(good)).encode()
        ).hexdigest(),
    )
    return result


def trace(
    runner: Any, workload: Workload, specs: Sequence[ScenarioSpec],
    rounds: Rounds, count: int, out: Path, stem: str,
) -> Tuple[List[Dict[str, Any]], float, List[Dict[str, Any]], Dict[str, float], List[str]]:
    """Untraced and span-traced rounds, then a profile of 20% of them.

    The untraced and traced runs of each round alternate in ABBA order,
    so a drift in heap size or host load falls on both sides alike.  The
    tracing overhead is the median over rounds of the traced wall time
    over the untraced one: a host stall in one run moves a single ratio,
    not the estimate.
    """
    tracer = tracing.Tracer()
    labels = {os.getpid(): f"bench {workload.name}"}
    plain: Dict[str, Any] = {}
    traced: Dict[str, Any] = {"tracer": tracer}
    if workload.service:
        spans_file = runner.scratch / "server-spans.json"
        traced["client"], span_server = runner.boot(
            specs, [str(HERE / "serve.py"), "--spans", str(spans_file)],
        )
    timed: List[Dict[str, Any]] = []
    spanned: List[Dict[str, Any]] = []
    walls: Dict[str, List[float]] = {"t": [], "s": []}
    for index in range(count):
        for label in ("t", "s") if index % 4 in (0, 3) else ("s", "t"):
            cells, wall = runner.run_pass(
                rounds, label, count=1, offset=index,
                **(traced if label == "s" else plain),
            )
            (spanned if label == "s" else timed).extend(cells)
            walls[label].append(wall)
    spans = tracer.finish()
    missing = list(tracer.missing)
    profiled = max(1, math.ceil(count / 5))
    if workload.service:
        runner.stop(span_server)
        server = json.loads(spans_file.read_text())
        tracing.link_processes(spans, server["spans"])
        if server["spans"]:
            labels[server["spans"][0]["pid"]] = "repro.service"
        spans += server["spans"]
        missing += server["missing"]
        profile_file = runner.scratch / "server.prof"
        client, profile_server = runner.boot(
            specs, [str(HERE / "serve.py"), "--profile", str(profile_file)],
        )
        # One client, so the server profiles every cell of the pass.
        profile_cells, _ = runner.run_pass(
            rounds, "p", count=profiled, client=client, clients=1,
        )
        runner.stop(profile_server)
        stats = pstats.Stats(str(profile_file))
        cells_profiled = int(Path(f"{profile_file}.cells").read_text())
    else:
        profiler = cProfile.Profile()
        profile_cells, _ = runner.run_pass(rounds, "p", count=profiled, profiler=profiler)
        stats = pstats.Stats(profiler)
        cells_profiled = len(profile_cells)
    for name in missing:
        print(f"trace: span target missing: {name}", file=sys.stderr)
    (out / f"trace-{stem}.json").write_text(json.dumps(tracing.to_chrome(spans, labels)))
    layers = tracing.layer_metrics(spans)
    layers.update(tracing.profile_metrics(stats, cells_profiled))
    layers["trace_overhead"] = statistics.median(
        s / t for s, t in zip(walls["s"], walls["t"])
    ) - 1
    layers["trace.missing_targets"] = len(missing)
    # Counts that repeat exactly for a seed.  Not calls.stdlib: the
    # checkpoint waits on a git subprocess by polling.  Not the server's
    # calls: it finalizes earlier cells' simulation generators in
    # whichever thread triggers a collection, profiled or not.
    exact = ["sim.events"]
    if not workload.service:
        exact += [f"calls.{name}" for name in tracing.PACKAGES if name != "stdlib"]
    return timed, sum(walls["t"]), spanned + profile_cells, layers, exact


def write_golden(names: Sequence[str], path: Path) -> None:
    """Recompute the golden digests of every pool cell of ``names``."""
    golden = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        for smoke in (False, True):
            for cells_of_round in WORKLOADS[name].pool(smoke):
                for spec, seed in cells_of_round:
                    report = run_cell(spec, seed)
                    entry = {"telemetry": report.telemetry_digest}
                    if report.span_digest:
                        entry["spans"] = report.span_digest
                    golden[golden_key(spec, seed)] = entry
        print(f"golden: {name} done", file=sys.stderr, flush=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/workloads.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out"))
    parser.add_argument("--golden", default=str(GOLDEN))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden(args.workload or sorted(WORKLOADS), Path(args.golden))
        return 0
    if not args.workload or len(args.workload) != 1:
        parser.error("exactly one --workload")
    if args.seconds is None:
        parser.error("--seconds is required")
    args.workload = args.workload[0]
    result = measure(args)
    if not args.setup_only:
        print(json.dumps(result), flush=True)
    # The servers are stopped and the result is out; skip interpreter
    # teardown, which frees the cells' heap and takes about a second on
    # thousand-mixed, in each of a run's five processes.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
