"""Endpoint-level tests for the campaign service (PR 10).

The acceptance bar: a campaign submitted over HTTP produces
``telemetry_digest`` and ``span_digest`` byte-identical to a serial
``run_cell`` of the same spec × seed — asserted here against the
terminal NDJSON stream record AND the report endpoint.  Everything runs
against a real server on an ephemeral port with a temp history store.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    DistributedBackend,
    InlineExecutor,
    ShardResult,
    WorkerFaultInjector,
    execute_plan,
    run_cell,
)
from repro.campaign.backends import execute_plan_segmented
from repro.campaign.cli import main as campaign_cli_main
from repro.campaign.core import execute_cell
from repro.campaign.report import merge_shard_results
from repro.scenarios import build_plan, get_scenario, partition_plan
from repro.service import (
    CampaignServer,
    JobManager,
    ServiceClient,
    ServiceError,
    SubmissionError,
    parse_submission,
)
from repro.service.workers import STOP_GRACE_SECONDS, WorkerPool


def small_spec():
    return get_scenario("zapping-storm").scaled(0.25)


def span_spec():
    return replace(get_scenario("recovery-ladder-drill"), record_spans=True)


# ----------------------------------------------------------------------
# the segmented-execution seam the stream rides on
# ----------------------------------------------------------------------
class TestSegmentedExecution:
    def test_digest_identical_for_any_segment_count(self):
        spec = small_spec()
        serial = run_cell(spec, seed=3)
        plan = partition_plan(build_plan(spec, seed=3), 1)[0]
        for segments in (1, 2, 7):
            payload = execute_plan_segmented(plan, segments)
            merged = merge_shard_results(
                spec.name, 3, "segmented", 1, [payload], 0.0,
            )
            assert merged.telemetry_digest == serial.telemetry_digest
            assert merged.span_digest == serial.span_digest

    def test_segment_callback_sees_monotonic_boundaries(self):
        spec = small_spec()
        plan = partition_plan(build_plan(spec, seed=1), 1)[0]
        seen = []
        execute_plan_segmented(
            plan, 4, on_segment=lambda _c, i, now: seen.append((i, now)),
        )
        assert [index for index, _now in seen] == [0, 1, 2, 3]
        times = [now for _index, now in seen]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(spec.duration)

    def test_segments_must_be_positive(self):
        plan = partition_plan(build_plan(small_spec(), seed=0), 1)[0]
        with pytest.raises(ValueError):
            execute_plan_segmented(plan, 0)

    def test_matches_unsegmented_payload_exactly(self):
        plan = partition_plan(build_plan(small_spec(), seed=5), 1)[0]
        flat = execute_plan(plan)
        sliced = execute_plan_segmented(plan, 3)
        flat.pop("wall_seconds"), sliced.pop("wall_seconds")
        assert json.dumps(flat, sort_keys=True) == \
            json.dumps(sliced, sort_keys=True)


# ----------------------------------------------------------------------
# submission validation (the HTTP 400 surface, unit level)
# ----------------------------------------------------------------------
class TestParseSubmission:
    def test_rejects_non_object(self):
        with pytest.raises(SubmissionError):
            parse_submission(["zapping-storm"])

    def test_rejects_unknown_keys(self):
        with pytest.raises(SubmissionError, match="unknown submission keys"):
            parse_submission({"scenarios": ["zapping-storm"], "seed": 1})

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SubmissionError, match="unknown scenario"):
            parse_submission({"scenarios": ["no-such-scenario"]})

    def test_rejects_bool_seeds(self):
        with pytest.raises(SubmissionError, match="seeds"):
            parse_submission({"scenarios": ["zapping-storm"],
                              "seeds": [True]})

    def test_rejects_bad_inline_spec(self):
        with pytest.raises(SubmissionError, match="invalid scenario spec"):
            parse_submission({"scenarios": [{"name": "x"}]})

    def test_accepts_inline_spec_and_grid(self):
        spec = small_spec()
        cells, options = parse_submission({
            "scenarios": [json.loads(spec.canonical_json()), "zapping-storm"],
            "seeds": [1, 2],
            "shards": 2,
            "segments": 6,
            "campaign_id": "grid-a",
        })
        assert len(cells) == 4
        assert options == {"shards": 2, "segments": 6,
                           "campaign_id": "grid-a"}


# ----------------------------------------------------------------------
# live server fixture
# ----------------------------------------------------------------------
@pytest.fixture()
def service(tmp_path):
    server = CampaignServer(
        host="127.0.0.1", port=0,
        db_path=str(tmp_path / "history.sqlite"),
        workers=2, segments=4,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.address
    try:
        yield ServiceClient(host, port, timeout=30.0)
    finally:
        server.shutdown()
        server.server_close()


class TestEndpoints:
    def test_healthz(self, service):
        health = service.health()
        assert health["ok"] is True
        assert health["jobs"] == 0

    def test_submit_stream_and_digest_identity(self, service):
        spec = span_spec()
        serial = run_cell(spec, seed=7)
        assert serial.span_digest  # the drill records real spans
        job = service.submit(
            [json.loads(spec.canonical_json())], seeds=[7], segments=5,
        )
        assert job["state"] in ("queued", "running")
        records = list(service.stream(job["job_id"]))
        assert records[0]["type"] == "job"
        end = records[-1]
        assert end["type"] == "end"
        assert end["state"] == "complete"
        assert end["telemetry_digest"] == serial.telemetry_digest
        assert end["span_digest"] == serial.span_digest
        telemetry = [r for r in records if r["type"] == "telemetry"]
        assert len(telemetry) == 5
        assert [r["segment"] for r in telemetry] == list(range(5))
        assert all("events_total" in r["summary"] for r in telemetry)
        # report endpoint agrees with the stream's terminal record
        report = service.report(job["job_id"])
        assert report["reports"][0]["telemetry_digest"] == \
            serial.telemetry_digest

    def test_stream_replays_for_late_subscriber(self, service):
        job = service.submit(["zapping-storm"], seeds=[2], segments=3)
        service.wait(job["job_id"])
        # job long finished: the stream must still deliver every record
        records = list(service.stream(job["job_id"]))
        kinds = [r["type"] for r in records]
        assert kinds[0] == "job"
        assert kinds[-1] == "end"
        assert kinds.count("telemetry") == 3

    def test_status_reports_per_shard_checkpoint(self, service):
        job = service.submit(["zapping-storm"], seeds=[4])
        status = service.wait(job["job_id"])
        assert status["state"] == "complete"
        cell = status["checkpoint"]["cells"][0]
        assert cell["status"] == "complete"
        assert [s["state"] for s in cell["shards"]] == ["complete"]
        assert cell["shards"][0]["attempts"] == 1
        assert cell["shards"][0]["worker"] == "service"

    def test_unknown_job_404(self, service):
        for call in (
            lambda: service.status("job-missing"),
            lambda: service.report("job-missing"),
            lambda: service.cancel("job-missing"),
            lambda: list(service.stream("job-missing")),
        ):
            with pytest.raises(ServiceError) as err:
                call()
            assert err.value.status == 404

    def test_malformed_submission_400(self, service):
        for bad in (
            {"scenarios": []},
            {"scenarios": ["no-such-scenario"]},
            {"scenarios": ["zapping-storm"], "typo": 1},
            {"scenarios": [{"name": "broken"}]},
            {"scenarios": ["zapping-storm"], "shards": 0},
        ):
            with pytest.raises(ServiceError) as err:
                service._request("POST", "/campaigns", body=bad)
            assert err.value.status == 400
        # non-JSON body is also a 400, not a stack trace
        with pytest.raises(ServiceError) as err:
            service._request("POST", "/campaigns", body=None)
        assert err.value.status == 400

    def test_mid_stream_cancel(self, service):
        # Five cells x 64 segments: the cancel lands during cell 0,
        # whole cells of runway away from a spurious completion.
        job = service.submit(
            ["recovery-ladder-drill"], seeds=[1, 2, 3, 4, 5], segments=64,
        )
        states = []
        for record in service.stream(job["job_id"]):
            if record["type"] == "telemetry" and not states:
                states.append(service.cancel(job["job_id"]))
            if record["type"] == "end":
                assert record["state"] == "cancelled"
        assert states and states[0]["cancel_requested"] is True
        status = service.status(job["job_id"])
        assert status["state"] == "cancelled"
        assert status["cells_complete"] < 5
        # the interrupted cell's checkpoint row shows its missing shards
        cells = status["checkpoint"]["cells"]
        assert any(
            shard["state"] == "missing"
            for cell in cells for shard in cell["shards"]
        )

    def test_report_conflict_while_incomplete(self, service):
        job = service.submit(
            ["recovery-ladder-drill"], seeds=[1, 2, 3], segments=64,
        )
        try:
            with pytest.raises(ServiceError) as err:
                service.report(job["job_id"])
            assert err.value.status == 409
        finally:
            service.cancel(job["job_id"])
            service.wait(job["job_id"])

    def test_history_and_trend(self, service):
        job = service.submit(["zapping-storm"], seeds=[1, 2])
        service.wait(job["job_id"])
        rows = service.history(limit=10)
        assert len(rows) == 2
        assert {row["scenario"] for row in rows} == {"zapping-storm"}
        assert all(row["telemetry_digest"] for row in rows)
        assert service.history(scenario="no-such") == []
        trend = service.trend()
        assert trend["ok"] is True  # empty runs table: nothing to gate

    def test_trend_ignores_query_parameters(self, service):
        # /trend has no knobs; a stray or malformed query must not kill
        # the handler (it used to parse ?window= and die on "abc").
        trend = service._request("GET", "/trend", query={"window": "abc"})
        assert trend["ok"] is True
        assert trend["window"] == 5

    def test_jobs_listing(self, service):
        job = service.submit(["zapping-storm"], seeds=[9])
        service.wait(job["job_id"])
        jobs = service.jobs()
        assert [j["job_id"] for j in jobs] == [job["job_id"]]
        assert jobs[0]["cells"] == [{"scenario": "zapping-storm", "seed": 9}]

    def test_grid_submission_multiple_cells(self, service):
        spec = small_spec()
        job = service.submit(
            [json.loads(spec.canonical_json())], seeds=[1, 2], segments=2,
        )
        status = service.wait(job["job_id"])
        assert status["cells_total"] == 2
        assert status["cells_complete"] == 2
        serial = {seed: run_cell(spec, seed) for seed in (1, 2)}
        for done in status["completed"]:
            assert done["telemetry_digest"] == \
                serial[done["seed"]].telemetry_digest


# ----------------------------------------------------------------------
# per-shard status assembly (the helper the CLI and service share)
# ----------------------------------------------------------------------
class TestPerShardStatus:
    def test_attempts_count_lost_workers(self, tmp_path):
        db = str(tmp_path / "history.sqlite")
        spec = small_spec()
        with CampaignCheckpoint(db) as checkpoint:
            backend = DistributedBackend(
                InlineExecutor(WorkerFaultInjector(kill_shards=(1,), kills=1)),
                shards=2, max_attempts=3, parallelism=1,
            )
            execute_cell(
                spec, 5, backend=backend,
                checkpoint=checkpoint, campaign_id="retry-demo",
            )
            cell = checkpoint.status("retry-demo")["cells"][0]
        assert [s["state"] for s in cell["shards"]] == \
            ["complete", "complete"]
        assert cell["shards"][0]["attempts"] == 1
        assert cell["shards"][1]["attempts"] == 2  # one injected loss

    def test_partial_cell_lists_missing_shards(self, tmp_path, capsys):
        db = str(tmp_path / "history.sqlite")
        spec = small_spec()
        with CampaignCheckpoint(db) as checkpoint:
            backend = DistributedBackend(
                InlineExecutor(), shards=3, parallelism=1,
            )
            cell = checkpoint.begin_cell("partial", spec, 9, backend)
            plan = partition_plan(build_plan(spec, seed=9), 3)[0]
            checkpoint.record_shard(
                cell, ShardResult(0, execute_plan(plan), 0, "inline"),
            )
            status = checkpoint.status("partial")["cells"][0]
        assert status["status"] != "complete"
        assert [s["state"] for s in status["shards"]] == \
            ["complete", "missing", "missing"]
        # the CLI renders those same shard rows for partial cells
        code = campaign_cli_main(["status", "partial", "--db", db])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard   0: complete" in out
        assert "shard   1: missing" in out
        assert "shard   2: missing" in out

    def test_complete_cells_stay_compact_in_cli(self, tmp_path, capsys):
        db = str(tmp_path / "history.sqlite")
        with CampaignCheckpoint(db) as checkpoint:
            backend = DistributedBackend(
                InlineExecutor(), shards=2, parallelism=1,
            )
            execute_cell(
                small_spec(), 1, backend=backend,
                checkpoint=checkpoint, campaign_id="done",
            )
        code = campaign_cli_main(["status", "done", "--db", db])
        out = capsys.readouterr().out
        assert code == 0
        assert "1/1 cells complete" in out
        assert "shard " not in out  # no per-shard noise once complete


# ----------------------------------------------------------------------
# simulation worker processes
# ----------------------------------------------------------------------
def _records(job, timeout=60.0):
    """Every record of one job's stream, up to its ``end`` record."""
    subscriber = job.subscribe()
    records = []
    try:
        while not records or records[-1]["type"] != "end":
            kind, line = subscriber.get(timeout=timeout)
            assert json.loads(line)["type"] == kind
            records.append(json.loads(line))
    finally:
        job.unsubscribe(subscriber)
    return records


def _running(pid):
    """Whether ``pid`` is a live process (a zombie is not)."""
    if Path("/proc").is_dir():
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _gone_within(pids, seconds):
    deadline = time.monotonic() + seconds
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [pid for pid in pids if _running(pid)]


class TestWorkerProcesses:
    def test_each_record_is_kept_once_as_its_line(self, tmp_path):
        manager = JobManager(str(tmp_path / "history.sqlite"), workers=1)
        try:
            job = manager.submit({"scenarios": ["zapping-storm"], "seeds": [2],
                                  "segments": 3})
            records = _records(job)
            stored = job.subscribe()
            lines = [stored.get_nowait() for _ in records]
        finally:
            manager.shutdown()
        assert [kind for kind, _ in lines] == [r["type"] for r in records]
        assert all(isinstance(line, bytes) and line.endswith(b"\n")
                   for _, line in lines)
        assert [json.loads(line) for _, line in lines] == records

    def test_a_worker_exits_at_eof_while_later_pools_live(self):
        """A worker forked later closes its copy of every earlier
        worker's pipe: closing the first pool ends its worker at EOF,
        well inside the grace period after which it would be signalled."""
        first, later = WorkerPool(1), WorkerPool(1)
        try:
            (pid,) = first.pids()
            start = time.monotonic()
            first.close()
            assert time.monotonic() - start < STOP_GRACE_SECONDS / 2
            assert _gone_within([pid], 0.0) == []
        finally:
            later.close()

    def test_a_lost_worker_fails_its_job_and_is_replaced(self, tmp_path):
        """SIGKILL the one worker mid-job: that job fails naming the pid,
        and the next job completes on a spawned replacement."""
        manager = JobManager(str(tmp_path / "history.sqlite"), workers=1)
        try:
            (pid,) = manager.worker_pids()
            job = manager.submit({"scenarios": ["recovery-ladder-drill"],
                                  "seeds": [1, 2, 3], "segments": 64})
            subscriber = job.subscribe()
            while subscriber.get(timeout=60)[0] != "telemetry":
                pass
            os.kill(pid, signal.SIGKILL)
            end = _records(job)[-1]
            assert end["state"] == "failed" == job.state
            assert job.error.startswith("WorkerLostError: ")
            assert f"pid {pid} " in job.error
            assert end["error"] == job.error
            assert _gone_within([pid], 2.0) == []
            (replacement,) = manager.worker_pids()
            assert replacement != pid
            if Path("/proc").is_dir():  # started by spawn, not fork
                cmdline = Path(f"/proc/{replacement}/cmdline").read_bytes()
                assert b"spawn_main" in cmdline
            spec = small_spec()
            after = manager.submit({"scenarios": [json.loads(spec.canonical_json())],
                                    "seeds": [5]})
            end = _records(after)[-1]
        finally:
            manager.shutdown()
        assert end["state"] == "complete", end["error"]
        assert end["telemetry_digest"] == run_cell(spec, 5).telemetry_digest
        assert _gone_within([replacement], 2.0) == []

    def test_shutdown_mid_job_cancels_it_and_stops_its_worker(self, tmp_path):
        manager = JobManager(str(tmp_path / "history.sqlite"), workers=1)
        (pid,) = manager.worker_pids()
        job = manager.submit({"scenarios": ["recovery-ladder-drill"],
                              "seeds": [1, 2, 3], "segments": 64})
        subscriber = job.subscribe()
        while subscriber.get(timeout=60)[0] != "telemetry":
            pass
        manager.shutdown()
        assert _records(job)[-1]["state"] == "cancelled" == job.state
        assert _gone_within([pid], 2.0) == []
        assert manager.worker_pids() == []

    def test_eight_concurrent_drill_jobs_match_serial_run_cell(self, tmp_path):
        """Eight recovery and diagnosis drill jobs queued at once on two
        workers, all checkpointing into one SQLite store."""
        names = ("recovery-ladder-drill", "player-decoder-drill",
                 "printer-jam-drill", "targeted-rebind-storm")
        cells = [(replace(get_scenario(name), record_spans=True), seed)
                 for name in names for seed in (1, 2)]
        manager = JobManager(str(tmp_path / "history.sqlite"), workers=2)
        try:
            jobs = [
                manager.submit({"scenarios": [json.loads(spec.canonical_json())],
                                "seeds": [seed], "shards": 1 + index % 2})
                for index, (spec, seed) in enumerate(cells)
            ]
            ends = [_records(job)[-1] for job in jobs]
            statuses = [manager.status(job.job_id) for job in jobs]
        finally:
            manager.shutdown()
        for (spec, seed), end, status in zip(cells, ends, statuses):
            serial = run_cell(spec, seed)
            assert end["state"] == "complete", end["error"]
            assert serial.span_digest
            assert (end["telemetry_digest"], end["span_digest"]) == \
                (serial.telemetry_digest, serial.span_digest), spec.name
            assert status["checkpoint"]["cells"][0]["status"] == "complete"


# ----------------------------------------------------------------------
# the process entry point: clean shutdown on SIGINT and SIGTERM, and no
# worker outlives the server
# ----------------------------------------------------------------------
def _boot_service(tmp_path):
    """A ``python -m repro.service`` started with SIGINT ignored (as a
    non-interactive shell's background job is), and its worker pids."""
    port_file = tmp_path / "port"
    src = Path(__file__).resolve().parents[1] / "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0",
         "--port-file", str(port_file),
         "--db", str(tmp_path / "history.sqlite")],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            assert process.poll() is None, process.stdout.read().decode()
            assert time.monotonic() < deadline, "service did not start"
            time.sleep(0.02)
        workers = ServiceClient(
            "127.0.0.1", int(port_file.read_text()), timeout=30.0,
        ).health()["workers"]
    except BaseException:
        process.kill()
        process.communicate()
        raise
    return process, workers


@pytest.mark.parametrize(
    "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
)
def test_service_process_stops_cleanly_on_signal(tmp_path, signum):
    """The server stops on SIGINT, even started with SIGINT ignored, and
    on SIGTERM, exiting 0; every worker process ends with it."""
    process, workers = _boot_service(tmp_path)
    try:
        assert len(workers) == 2
        process.send_signal(signum)
        output, _ = process.communicate(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert output.decode().rstrip().endswith("shutting down")
    assert _gone_within(workers, 2.0) == []


def test_service_workers_exit_when_the_server_is_killed(tmp_path):
    process, workers = _boot_service(tmp_path)
    process.kill()
    process.communicate()
    assert len(workers) == 2
    assert _gone_within(workers, 2.0) == []
