#!/usr/bin/env python
"""Benchmark smoke runner: execute every bench in quick mode and record
the runtime performance trajectory in ``BENCH_runtime.json``.

Usage::

    python benchmarks/run_all.py              # throughput probes + all benches
    python benchmarks/run_all.py --quick      # down-scaled workloads (CI smoke)
    python benchmarks/run_all.py --no-benches # throughput probes only (fast)
    python benchmarks/run_all.py --out /tmp/bench.json

``--quick`` exports ``REPRO_BENCH_QUICK=1`` to every bench process; each
bench routes its dominant size knob through ``conftest.qscale`` so the
whole suite smoke-runs in a fraction of the full-mode time (full mode is
what ``BENCH_runtime.json`` trajectories are compared on).

Every bench_e*.py runs once under ``pytest --benchmark-disable`` (the
simulations are deterministic, so a single round is a faithful
measurement) and the file is timed.  Independently of the benches, the
probes measure the runtime itself:

* ``kernel`` / ``single_suo`` — bare dispatch loop, and one TV through
  the E13 workload (events/sec);
* ``fleet``      — the 100-SUO E14 fleet workload through
  ``run_cell_detailed`` (events/sec, byte-identical-trace witness);
* ``scenarios``  — a 1000-SUO streaming-telemetry scenario (the E15
  workload) with its trace and telemetry digests;
* ``sharded``    — the same scenario serial vs ``DistributedBackend``
  over worker processes (quick mode: 300 SUOs on 2 shards);
* ``detection`` / ``diagnosis`` — the gated library scenarios and
  drills, each serial and 2-shard;
* ``fuzz``       — a bounded :mod:`repro.fuzz` campaign run twice;
* ``resume``     — a checkpointed cell interrupted and resumed;
* ``service``    — a campaign submitted to the HTTP service.

Exit status is computed by :func:`repro.obs.gates.evaluate`: every rule
the report must meet (each bench passed, digests agree, detection and
localization are nonzero, TTR is finite, the kernel beats its seed
baseline, the probes clear ``PERF_FLOOR``) is one row of that table.
The run prints ``gates: N passed, M skipped, K failed`` and every
skipped or failed gate with its measured value and threshold, writes
the records into the report's ``gates`` block, and exits 1 on any
failure.  A skip says why (the floor, for instance, is skipped in
``--quick`` mode on 1-CPU hosts, where wall-clock throughput measures
the container rather than the runtime), so a CI log never reads as a
pass for a check that did not run.

``BENCH_runtime.json`` carries the numbers plus the seed-kernel baseline
measured before the runtime refactor, so future PRs can see the
trajectory at a glance.  Independently, every run is appended to the
run-history store (``BENCH_history.sqlite`` by default, ``--history`` to
point elsewhere, ``--no-history`` to opt out): :mod:`repro.obs.history`
keeps the full report per run, gate records included, and the table's
trend rows hold this run against the prior window.  Inspect or trend
the store with ``python -m repro.obs``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.obs.gates import (  # noqa: E402
    DETECTION_SCENARIOS,
    DIAGNOSIS_SCENARIOS,
    SEED_BASELINE,
    TREND_WINDOW,
    evaluate,
    failures,
    render,
)
from repro.obs.history import RunHistory  # noqa: E402

#: Default run-history store (append-only SQLite; see repro.obs.history).
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.sqlite")

#: Throughput floor for the fleet and scenario probes, recorded after the
#: dispatch hot-path overhaul (compiled bus tables, event freelists,
#: telemetry burst folding).  The ``perf floor`` gates fail the run when a
#: probe drops more than ``max_regression`` below these full-mode
#: numbers.  Quick-mode runs on 1-CPU hosts skip the floor, same as the
#: bench_e16 speedup guard: there the wall-clock numbers measure the
#: container, not the runtime.  The fleet floor was re-set when the probe
#: moved onto ``FLEET_SPEC`` through ``run_cell_detailed``: 0.855 x the
#: best of 3 full-mode probes (144.5k events/sec, shared 2-CPU host), the
#: ratio the first floor used (122k over 142.65k).
PERF_FLOOR = {
    "fleet_events_per_sec": 123_600,
    "scenarios_events_per_sec": 137_000,
    "fuzz_candidates_per_sec": 2.0,
    "max_regression": 0.30,
    "note": "full-mode probes after the dispatch overhaul, same host, best of 3; "
            "fuzz floor recorded with the PR 8 probe config (8 candidates)",
}

TV_WORKLOAD = [
    "power", "ch_up", "vol_up", "ttx", "ttx", "menu", "back",
    "dual", "swap", "epg", "epg", "mute", "mute", "power",
] * 5


def probe_kernel(events: int = 200_000) -> float:
    """Bare kernel dispatch throughput (events/sec), best of 3."""
    from repro.sim import Kernel

    best = 0.0
    for _ in range(3):
        kernel = Kernel()

        def reschedule() -> None:
            kernel.schedule(1.0, reschedule)

        for i in range(100):
            kernel.schedule(float(i % 7) * 0.1, reschedule)
        start = time.perf_counter()
        kernel.run(max_events=events)
        best = max(best, events / (time.perf_counter() - start))
    return best


def probe_single_suo() -> float:
    """One TV through the E13 workload (events/sec), best of 3."""
    from repro.tv import TVSet

    best = 0.0
    for _ in range(3):
        start = time.perf_counter()
        tv = TVSet(seed=55)
        for key in TV_WORKLOAD:
            tv.press(key)
            tv.run(3.0)
        tv.run(5.0)
        best = max(best, tv.kernel.dispatched_count / (time.perf_counter() - start))
    return best


def probe_fleet() -> dict:
    """100-SUO campaign throughput + determinism witness.

    Runs the E14 workload (:data:`bench_e14_fleet.FLEET_SPEC`) through
    ``run_cell_detailed``, the path campaigns use.
    """
    from bench_e14_fleet import FLEET_SEED, FLEET_SPEC

    from repro.campaign import run_cell_detailed

    first = run_cell_detailed(FLEET_SPEC, FLEET_SEED).fleet_report
    second = run_cell_detailed(FLEET_SPEC, FLEET_SEED).fleet_report
    return {
        "members": first.members,
        "sim_duration": first.duration,
        "dispatched": first.dispatched,
        "events_per_sec": round(first.events_per_sec),
        "deterministic": first.trace_digest == second.trace_digest,
        "trace_digest": first.trace_digest,
    }


def probe_scenarios(members: int = 1000, duration: float = 20.0) -> dict:
    """One 1000-SUO streaming scenario campaign (the E15 workload)."""
    from repro.campaign import run_cell_detailed
    from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

    spec = ScenarioSpec(
        name="probe-thousand-suo",
        description="run_all probe: streaming-telemetry scale point",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )
    cell = run_cell_detailed(spec, 15)
    report, fleet_report = cell.report, cell.fleet_report
    return {
        "members": report.members,
        "sim_duration": duration,
        "dispatched": report.dispatched,
        "events_per_sec": round(fleet_report.events_per_sec),
        "streaming": not fleet_report.retained_trace,
        "suo_events": report.telemetry_summary["events_total"],
        "telemetry_digest": report.telemetry_digest,
        "trace_digest": report.shard_trace_digests[0],
    }


def probe_sharded(quick: bool = False) -> dict:
    """Serial vs sharded execution of the E15-scale scenario.

    Full mode: 1000 SUOs, 4 shards.  Quick mode: 300 SUOs, 2 shards —
    the CI smoke that gates shard determinism.  ``digests_match`` is the
    gate: the merged counter/tally telemetry of the sharded run must be
    byte-identical to the serial run's.
    """
    from repro.campaign import run_cell
    from repro.scenarios import FaultPhase, ScenarioSpec, UserProfile

    members = 300 if quick else 1000
    duration = 10.0 if quick else 20.0
    shards = 2 if quick else 4
    spec = ScenarioSpec(
        name="probe-sharded",
        description="run_all probe: sharded vs serial execution",
        duration=duration,
        tvs=members,
        profiles=(UserProfile("probe", mean_gap=15.0,
                              keys=("power", "ch_up", "vol_up", "mute")),),
        phases=(FaultPhase("volume_overshoot", at=duration / 2, fraction=0.1),),
    )
    # Sharded first: fork from a lean parent (a prior serial run would
    # leave a big heap whose pages the workers' refcount writes unshare).
    sharded = run_cell(spec, 16, backend=_process_backend(shards))
    serial = run_cell(spec, 16)
    speedup = (
        serial.wall_seconds / sharded.wall_seconds
        if sharded.wall_seconds > 0 else 0.0
    )
    return {
        "members": members,
        "sim_duration": duration,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "sharded_wall_seconds": round(sharded.wall_seconds, 3),
        "speedup": round(speedup, 3),
        "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
        "telemetry_digest": serial.telemetry_digest,
        "shard_trace_digests": sharded.shard_trace_digests,
    }


#: Memo of probe campaign cells: (scenario, seed, shards-or-None) ->
#: CampaignReport.  ``recovery-ladder-drill`` sits in both the detection
#: and the diagnosis probe; the runs are deterministic, so recomputing
#: the identical cell would only burn CI wall-clock.
_PROBE_CELLS: dict = {}


def _process_backend(shards: int):
    """Sharded execution, one worker process per shard."""
    from repro.campaign import DistributedBackend, ProcessWorkerExecutor

    return DistributedBackend(ProcessWorkerExecutor(), shards=shards)


def _probe_cell(name: str, seed: int, shards=None):
    from repro.campaign import run_cell

    key = (name, seed, shards)
    if key not in _PROBE_CELLS:
        backend = None if shards is None else _process_backend(shards)
        _PROBE_CELLS[key] = run_cell(name, seed, backend=backend)
    return _PROBE_CELLS[key]


def probe_detection(seed: int = 7) -> dict:
    """Detection-depth probe (the PR 4 gate): the detection and
    recovery scenarios, each serial and 2-shard.

    Gated facts per scenario: faults were injected, the detection rate
    is nonzero, nobody false-alarmed, the recovery drill recorded a
    finite time-to-recover for every wave, and the sharded run agrees
    with the serial run on the telemetry digest AND the detection
    accounting (faulty/detected/false-alarm sets).
    """
    result = {}
    for name in DETECTION_SCENARIOS:
        # Sharded first: fork from the leanest parent heap available.
        sharded = _probe_cell(name, seed, shards=2)
        serial = _probe_cell(name, seed)
        recovery = serial.telemetry_summary.get("recovery", {})
        result[name] = {
            "members": serial.members,
            "seed": seed,
            "faulty": len(serial.faulty),
            "detected": len(serial.detected),
            "detection_rate": round(serial.detection_rate, 4),
            "false_alarms": len(serial.false_alarms),
            "recovered": recovery.get("recovered", 0),
            "ttr_waves": recovery.get("waves", {}),
            "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
            "detection_invariant": (
                sharded.faulty == serial.faulty
                and sharded.detected == serial.detected
                and sharded.false_alarms == serial.false_alarms
            ),
        }
    return result


def probe_diagnosis(seed: int = 7) -> dict:
    """Diagnosis-guided recovery probe (the PR 5 gate).

    Each drill runs serial and 2-shard.  Gated facts per drill:
    episodes reached the rebind rung with an SFL ranking recorded, the
    localization accuracy (true faulty component ranked first) is
    nonzero, every recorded time-to-recover is finite and positive, and
    the sharded run agrees with the serial run on the telemetry digest
    AND the shard-invariant diagnosis block.
    """
    from repro.runtime.telemetry import mergeable_summary

    result = {}
    for name in DIAGNOSIS_SCENARIOS:
        sharded = _probe_cell(name, seed, shards=2)
        serial = _probe_cell(name, seed)
        diagnosis = serial.telemetry_summary.get("diagnosis", {})
        rebinds = diagnosis.get("rebinds", {})
        ranks = diagnosis.get("rank_of_true", {})
        ranked = sum(ranks.values())
        ttr = diagnosis.get("ttr", {})
        result[name] = {
            "members": serial.members,
            "seed": seed,
            "episodes_ranked": ranked,
            "rank_first": ranks.get("1", 0),
            "localization_accuracy": (
                round(ranks.get("1", 0) / ranked, 4) if ranked else 0.0
            ),
            "targeted_rebinds": rebinds.get("targeted", 0),
            "full_rebinds": rebinds.get("full", 0),
            "targeted_rebind_rate": diagnosis.get("targeted_rebind_rate", 0.0),
            "recovered": serial.telemetry_summary.get("recovery", {}).get(
                "recovered", 0
            ),
            "ttr": {
                mode: {
                    key: ttr.get(mode, {}).get(key, 0.0)
                    for key in ("count", "min", "max")
                }
                for mode in ("targeted", "full")
            },
            "digests_match": sharded.telemetry_digest == serial.telemetry_digest,
            "diagnosis_invariant": (
                mergeable_summary(sharded.telemetry_summary).get("diagnosis")
                == mergeable_summary(serial.telemetry_summary).get("diagnosis")
            ),
        }
    return result


def probe_fuzz(quick: bool = False) -> dict:
    """Bounded fuzz campaign probe (the PR 8 gate).

    Runs the same small grammar-sampled candidate budget twice with a
    fresh in-memory corpus each time and compares the determinism
    witnesses: byte-identical candidates, admissions, findings, and
    coverage, or the gate fails.  Also records candidates/sec for the
    perf-floor trajectory.  Divergence checking stays off here — the
    sharded probes own that gate, and the fuzz probe's job is the fuzz
    loop itself.
    """
    from repro.fuzz import Corpus, FuzzConfig, Fuzzer

    config = FuzzConfig(
        seed=7,
        candidates=4 if quick else 8,
        campaign_seed=0,
        check_divergence=False,
        shrink_attempts=60,
    )
    first = Fuzzer(config, corpus=Corpus()).run()
    second = Fuzzer(config, corpus=Corpus()).run()
    crashes = [
        finding.as_dict() for finding in first.findings
        if finding.original.verdict.kind == "crash"
    ]
    return {
        "seed": config.seed,
        "candidates": config.candidates,
        "evaluated": first.evaluated,
        "stopped_by": first.stopped_by,
        "admitted": len(first.admitted),
        "findings": len(first.findings),
        "crash_findings": crashes,
        "coverage_keys": first.coverage_keys,
        "coverage_by_layer": first.coverage_by_layer,
        "wall_seconds": round(first.wall_seconds, 3),
        "candidates_per_sec": round(first.candidates_per_sec, 3),
        "deterministic": (
            first.determinism_witness() == second.determinism_witness()
        ),
    }


def probe_resume() -> dict:
    """Checkpoint/resume determinism probe (the PR 9 gate).

    Interrupt a checkpointed campaign cell for real — a worker-fault
    injector kills one shard's worker and the backend is allowed no
    retry, so the cell dies with exactly one shard durable — then
    resume it with a healthy backend against the same store and compare
    the merged telemetry AND span digests against an uninterrupted
    serial run of the same cell.  Inline executors only: deterministic,
    no processes, so the gate applies identically on a 1-CPU container
    (no skip guard needed, unlike the wall-clock speedup gates).
    """
    import tempfile
    from dataclasses import replace as dc_replace

    from repro.campaign import (
        CampaignCheckpoint,
        DistributedBackend,
        InlineExecutor,
        ShardExhaustedError,
        WorkerFaultInjector,
        run_cell,
    )
    from repro.scenarios import get_scenario

    name = "recovery-ladder-drill"
    seed, shards, kill_shard = 7, 3, 1
    spec = dc_replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, seed)
    result = {
        "scenario": name,
        "seed": seed,
        "shards": shards,
        "killed_shard": kill_shard,
        "interrupt_observed": False,
        "shards_durable_at_interrupt": 0,
        "lost_shards": shards,
        "telemetry_match": False,
        "span_match": False,
    }
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "resume_probe.sqlite")
        # Phase 1: the interrupted sitting.  Shard 0 lands durably;
        # shard `kill_shard` loses its (only allowed) worker and the
        # campaign dies mid-cell.
        faulty_backend = DistributedBackend(
            InlineExecutor(WorkerFaultInjector(kill_shards=(kill_shard,))),
            shards=shards, max_attempts=1,
        )
        with CampaignCheckpoint(db) as checkpoint:
            try:
                run_cell(
                    spec, seed, backend=faulty_backend,
                    checkpoint=checkpoint, campaign_id="resume-probe",
                )
            except ShardExhaustedError:
                result["interrupt_observed"] = True
            status = checkpoint.status("resume-probe")
            result["shards_durable_at_interrupt"] = (
                status["cells"][0]["completed_shards"] if status["cells"]
                else 0
            )
        # Phase 2: resume with a healthy backend against the same store.
        healthy = DistributedBackend(InlineExecutor(), shards=shards)
        with CampaignCheckpoint(db) as checkpoint:
            resumed = run_cell(
                spec, seed, backend=healthy,
                checkpoint=checkpoint, campaign_id="resume-probe",
            )
            status = checkpoint.status("resume-probe")
        cell_status = status["cells"][0] if status["cells"] else {}
        result["lost_shards"] = shards - cell_status.get("completed_shards", 0)
        result["telemetry_match"] = (
            resumed.telemetry_digest == serial.telemetry_digest
        )
        result["span_match"] = resumed.span_digest == serial.span_digest
        result["telemetry_digest"] = serial.telemetry_digest
        result["span_digest"] = serial.span_digest
    return result


def probe_service() -> dict:
    """Campaign-service determinism probe (the PR 10 gate).

    Boot the real HTTP service on an ephemeral port against a temp
    history store, submit ``recovery-ladder-drill`` over the wire,
    consume the chunked NDJSON stream to its terminal record, and
    compare both digests against a serial ``run_cell`` of the same
    spec × seed.  In-process threads only — deterministic and identical
    on a 1-CPU container, like the resume probe.
    """
    import tempfile
    import threading
    from dataclasses import replace as dc_replace

    from repro.campaign import run_cell
    from repro.scenarios import get_scenario
    from repro.service import CampaignServer, ServiceClient

    name = "recovery-ladder-drill"
    seed, segments = 7, 4
    spec = dc_replace(get_scenario(name), record_spans=True)
    serial = run_cell(spec, seed)
    result = {
        "scenario": name,
        "seed": seed,
        "segments": segments,
        "state": "unsubmitted",
        "telemetry_records": 0,
        "stream_ordered": False,
        "telemetry_match": False,
        "span_match": False,
        "history_recorded": False,
        "telemetry_digest": serial.telemetry_digest,
        "span_digest": serial.span_digest,
    }
    with tempfile.TemporaryDirectory() as tmp:
        server = CampaignServer(
            host="127.0.0.1", port=0,
            db_path=os.path.join(tmp, "service_probe.sqlite"),
            workers=1, segments=segments,
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(*server.address)
            start = time.perf_counter()
            job = client.submit(
                [json.loads(spec.canonical_json())], seeds=[seed],
            )
            records = list(client.stream(job["job_id"]))
            result["wall_seconds"] = round(time.perf_counter() - start, 3)
            kinds = [record["type"] for record in records]
            end = records[-1] if records else {}
            result["state"] = end.get("state", "no-end-record")
            result["telemetry_records"] = kinds.count("telemetry")
            result["stream_ordered"] = (
                bool(kinds) and kinds[0] == "job" and kinds[-1] == "end"
            )
            result["telemetry_match"] = (
                end.get("telemetry_digest") == serial.telemetry_digest
            )
            result["span_match"] = (
                end.get("span_digest") == serial.span_digest
            )
            result["history_recorded"] = bool(client.history(limit=5))
        finally:
            server.shutdown()
            server.server_close()
    return result


def run_benches(quick: bool = False) -> dict:
    """Each bench_e*.py once; returns per-file status."""
    results = {}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    else:
        # A stale exported REPRO_BENCH_QUICK must not silently down-scale
        # a run recorded as full mode.
        env.pop("REPRO_BENCH_QUICK", None)
    for path in sorted(glob.glob(os.path.join(REPO_ROOT, "benchmarks", "bench_e*.py"))):
        name = os.path.basename(path)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", path, "-q", "--benchmark-disable",
             "-p", "no:cacheprovider"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        seconds = round(time.perf_counter() - start, 2)
        results[name] = {
            "ok": proc.returncode == 0,
            "seconds": seconds,
        }
        status = "ok" if proc.returncode == 0 else "FAIL"
        print(f"  {name:<28} {status:>4}  {seconds:7.2f}s", flush=True)
        if proc.returncode != 0:
            tail = "\n".join(proc.stdout.splitlines()[-15:])
            print(tail)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--no-benches", action="store_true",
        help="skip the bench_e*.py smoke pass; only run throughput probes",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="down-scale every bench (REPRO_BENCH_QUICK=1): CI smoke mode",
    )
    parser.add_argument(
        "--out", default=os.path.join(REPO_ROOT, "BENCH_runtime.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY,
        help="append the run to this SQLite run-history store "
             "(see repro.obs.history)",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not record the run (also disables the trend rules, "
             "which need the prior-run window)",
    )
    parser.add_argument(
        "--label", default=None,
        help="free-form label stored with the run (e.g. the CI run id)",
    )
    args = parser.parse_args()
    default_out = parser.get_default("out")
    if args.quick and os.path.abspath(args.out) == os.path.abspath(default_out):
        parser.error(
            "--quick requires an explicit --out: quick-mode timings must "
            "not overwrite the tracked full-mode trajectory in "
            "BENCH_runtime.json"
        )

    print("probing kernel dispatch throughput ...", flush=True)
    kernel_eps = probe_kernel()
    print(f"  kernel: {kernel_eps:,.0f} events/sec")
    print("probing single-SUO throughput ...", flush=True)
    single_eps = probe_single_suo()
    print(f"  single-SUO TV: {single_eps:,.0f} events/sec")
    print("probing 100-SUO fleet campaign ...", flush=True)
    fleet = probe_fleet()
    print(
        f"  fleet: {fleet['events_per_sec']:,} events/sec over "
        f"{fleet['members']} SUOs, deterministic={fleet['deterministic']}"
    )
    # The sharded probe runs before the big serial scenario probe: its
    # workers fork from a still-lean parent, so the recorded speedup
    # measures the backend rather than copy-on-write page duplication.
    print("probing sharded vs serial campaign execution ...", flush=True)
    sharded = probe_sharded(quick=args.quick)
    print(
        f"  sharded: {sharded['members']} SUOs on {sharded['shards']} shards "
        f"({sharded['cpu_count']} cores): {sharded['speedup']}x speedup, "
        f"digests_match={sharded['digests_match']}"
    )
    print("probing detection/recovery scenarios (serial vs 2-shard) ...", flush=True)
    detection = probe_detection()
    for name, cell in detection.items():
        print(
            f"  {name}: detected {cell['detected']}/{cell['faulty']} "
            f"(rate {cell['detection_rate']}), "
            f"false_alarms={cell['false_alarms']}, "
            f"recovered={cell['recovered']}, "
            f"digests_match={cell['digests_match']}, "
            f"detection_invariant={cell['detection_invariant']}"
        )
    print("probing diagnosis-guided recovery drills (serial vs 2-shard) ...", flush=True)
    diagnosis = probe_diagnosis()
    for name, cell in diagnosis.items():
        print(
            f"  {name}: accuracy {cell['localization_accuracy']} "
            f"({cell['rank_first']}/{cell['episodes_ranked']} ranked first), "
            f"targeted={cell['targeted_rebinds']}, full={cell['full_rebinds']}, "
            f"digests_match={cell['digests_match']}, "
            f"diagnosis_invariant={cell['diagnosis_invariant']}"
        )
    print("probing bounded fuzz campaign (twice, for determinism) ...", flush=True)
    fuzz = probe_fuzz(quick=args.quick)
    print(
        f"  fuzz: {fuzz['evaluated']} candidates at "
        f"{fuzz['candidates_per_sec']} candidates/sec, "
        f"{fuzz['findings']} findings, {fuzz['coverage_keys']} coverage keys, "
        f"deterministic={fuzz['deterministic']}"
    )
    print("probing checkpoint interrupt/resume determinism ...", flush=True)
    resume = probe_resume()
    print(
        f"  resume: {resume['scenario']} x{resume['shards']} shards, "
        f"killed shard {resume['killed_shard']}, "
        f"{resume['shards_durable_at_interrupt']} durable at interrupt, "
        f"telemetry_match={resume['telemetry_match']}, "
        f"span_match={resume['span_match']}, "
        f"lost_shards={resume['lost_shards']}"
    )
    print("probing the campaign service over HTTP ...", flush=True)
    service = probe_service()
    print(
        f"  service: {service['scenario']} seed {service['seed']} -> "
        f"{service['state']}, {service['telemetry_records']} telemetry "
        f"records, telemetry_match={service['telemetry_match']}, "
        f"span_match={service['span_match']}, "
        f"history_recorded={service['history_recorded']}"
    )
    print("probing 1000-SUO streaming scenario ...", flush=True)
    scenarios = probe_scenarios()
    print(
        f"  scenario: {scenarios['events_per_sec']:,} events/sec over "
        f"{scenarios['members']} SUOs, streaming={scenarios['streaming']}"
    )

    benches = {}
    if not args.no_benches:
        mode = "quick" if args.quick else "full"
        print(f"running benches ({mode} mode) ...", flush=True)
        benches = run_benches(quick=args.quick)

    report = {
        "mode": "quick" if args.quick else "full",
        "kernel_events_per_sec": round(kernel_eps),
        "single_suo_events_per_sec": round(single_eps),
        "fleet": fleet,
        "scenarios": scenarios,
        "sharded": sharded,
        "detection": detection,
        "diagnosis": diagnosis,
        "fuzz": fuzz,
        "resume": resume,
        "service": service,
        "seed_baseline": SEED_BASELINE,
        "perf_floor": PERF_FLOOR,
        "benches": benches,
    }
    # The trend window is the history as it stood BEFORE this run; the
    # run itself is recorded unconditionally (failed runs are history
    # too — a later fix should show up as recovery, not as a gap).
    priors = []
    if not args.no_history:
        with RunHistory(args.history) as history:
            priors = history.run_reports(limit=TREND_WINDOW)
    records = evaluate(report, priors)
    report["gates"] = [record._asdict() for record in records]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if not args.no_history:
        with RunHistory(args.history) as history:
            run_id = history.record_run(report, label=args.label)
        print(
            f"recorded run {run_id} in {args.history} "
            f"({len(priors)} prior run{'s' if len(priors) != 1 else ''} "
            "in the trend window)"
        )

    for line in render(records):
        print(line)
    return 1 if failures(records) else 0


if __name__ == "__main__":
    sys.exit(main())
