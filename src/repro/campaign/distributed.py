"""Distributed campaign execution: shard plans dispatched to workers.

The PR 9 tentpole.  A :class:`DistributedBackend` plugs a *shard
executor* — the thing that runs ONE plan attempt somewhere — into the
same orchestration path every backend shares
(:func:`repro.campaign.core.execute_cell`), and adds the fault
tolerance a multi-worker run needs:

* **worker-loss detection** — the per-process executor gives every
  shard attempt its own worker process and a pipe; the worker
  heartbeats from a side thread while the shard simulates, and the
  parent treats a silent pipe (no heartbeat within
  ``heartbeat_timeout``) or an EOF (the process died) as a lost
  worker, never as a lost campaign;
* **bounded retry with reassignment** — :meth:`DistributedBackend.
  submit` re-runs a lost shard up to ``max_attempts`` times, each
  attempt on a fresh worker (a new process, or the next address in a
  socket worker pool), and raises :class:`ShardExhaustedError` only
  when every attempt died;
* **determinism under faults** — a shard's payload is a pure function
  of its plan, so which attempt finally lands it cannot perturb the
  merged ``telemetry_digest``; :class:`WorkerFaultInjector` makes that
  claim testable in CI by deterministically killing chosen shards on
  their early attempts.

Three executors ship:

:class:`InlineExecutor`
    Runs plans in-process; injected kills surface as
    :class:`WorkerLostError`.  The cheap way to exercise retry and
    checkpoint logic (and the fallback for 1-CPU containers).
:class:`ProcessWorkerExecutor`
    One OS process per shard attempt, heartbeat over a pipe, injected
    kills are *real* (``os._exit``) — the loss path CI verifies.
:class:`SocketWorkerExecutor` / :class:`ShardWorkerServer`
    Newline-delimited JSON over TCP using the plan wire form
    (:meth:`~repro.scenarios.plan.ScenarioPlan.to_json`), so a worker
    on another host — ``python -m repro.campaign worker`` — executes
    the byte-identical placement decisions.

Combined with a :class:`~repro.campaign.checkpoint.CampaignCheckpoint`
(every completed shard durable as it lands) this is the ROADMAP
"beyond one box" story: kill the driver mid-campaign, ``resume`` on
any box, get the digest an uninterrupted run would have produced.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple, Union

import multiprocessing

from ..scenarios.plan import ScenarioPlan
from ..scenarios.spec import ScenarioSpec
from .backends import (
    ExecutorBackend,
    ResultSink,
    ShardResult,
    execute_plan,
    resolve_shards,
)

__all__ = [
    "DistributedBackend",
    "InlineExecutor",
    "ProcessWorkerExecutor",
    "ShardExecutor",
    "ShardExhaustedError",
    "ShardWorkerServer",
    "SocketWorkerExecutor",
    "WorkerFaultInjector",
    "WorkerLostError",
]

#: Exit code an injected kill dies with (distinguishable from crashes
#: in worker logs; the parent treats any silent death the same way).
KILL_EXIT_CODE = 87


class WorkerLostError(RuntimeError):
    """One shard attempt's worker died or went silent; retryable."""


class ShardExhaustedError(RuntimeError):
    """Every allowed attempt for one shard lost its worker."""


@dataclass(frozen=True)
class WorkerFaultInjector:
    """Deterministic worker killer for fault-tolerance tests.

    Kills the worker of every shard in ``kill_shards`` on its first
    ``kills`` attempts (attempts count from 0), then lets retries
    succeed.  A pure function of ``(shard_id, attempt)`` — no clocks,
    no randomness — so a CI failure replays exactly.  Picklable, so it
    rides into spawned worker processes.
    """

    kill_shards: Tuple[int, ...] = ()
    kills: int = 1

    def should_kill(self, shard_id: int, attempt: int) -> bool:
        return shard_id in self.kill_shards and attempt < self.kills


class ShardExecutor(Protocol):
    """Runs one shard-plan attempt somewhere; raises
    :class:`WorkerLostError` when that somewhere dies."""

    name: str

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult: ...


# ----------------------------------------------------------------------
# in-process executor
# ----------------------------------------------------------------------
class InlineExecutor:
    """Run shard attempts in the driver process.

    Functionally the serial path with the distributed seams attached:
    injected kills raise :class:`WorkerLostError`, so retry, attempt
    provenance, and checkpoint behaviour are all exercised without
    process machinery — including on 1-CPU containers.
    """

    name = "inline"

    def __init__(self, fault_injector: Optional[WorkerFaultInjector] = None):
        self.fault_injector = fault_injector

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        if (
            self.fault_injector is not None
            and self.fault_injector.should_kill(plan.shard_id, attempt)
        ):
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: injected loss"
            )
        return ShardResult(
            shard_id=plan.shard_id, payload=execute_plan(plan),
            attempt=attempt, worker="inline",
        )


# ----------------------------------------------------------------------
# per-process executor (heartbeat + real kills)
# ----------------------------------------------------------------------
def _process_worker_main(
    conn,
    plan: ScenarioPlan,
    attempt: int,
    injector: Optional[WorkerFaultInjector],
    heartbeat_interval: float,
) -> None:
    """Worker-process body: heartbeat from a side thread, simulate the
    shard, send the payload home.  Module-level so every start method
    can ship it by reference."""
    stop = threading.Event()
    send_lock = threading.Lock()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            with send_lock:
                try:
                    conn.send(("heartbeat", plan.shard_id))
                except OSError:
                    return

    threading.Thread(target=beat, daemon=True).start()
    if injector is not None and injector.should_kill(plan.shard_id, attempt):
        # A real kill: no cleanup, no goodbye — the parent must notice
        # from the pipe going dead, exactly like a crashed host.
        os._exit(KILL_EXIT_CODE)
    payload = execute_plan(plan)
    stop.set()
    with send_lock:
        conn.send(("result", payload))
    conn.close()


class ProcessWorkerExecutor:
    """One worker process per shard attempt, loss detected via pipe.

    The worker heartbeats every ``heartbeat_interval`` seconds while
    the shard simulates; the parent raises :class:`WorkerLostError` on
    pipe EOF (the process died — e.g. an injected ``os._exit``) or
    when nothing arrives within ``heartbeat_timeout`` (the process
    hung).  A retry is automatically a reassignment: the next attempt
    gets a brand-new process.
    """

    name = "process"

    def __init__(
        self,
        fault_injector: Optional[WorkerFaultInjector] = None,
        heartbeat_interval: float = 0.05,
        heartbeat_timeout: float = 30.0,
        start_method: Optional[str] = None,
    ) -> None:
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed the interval")
        self.fault_injector = fault_injector
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.start_method = start_method

    def _context(self):
        if self.start_method is not None:
            return multiprocessing.get_context(self.start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        ctx = self._context()
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_process_worker_main,
            args=(send_conn, plan, attempt, self.fault_injector,
                  self.heartbeat_interval),
            daemon=True,
        )
        proc.start()
        send_conn.close()
        try:
            while True:
                if not recv_conn.poll(self.heartbeat_timeout):
                    raise WorkerLostError(
                        f"shard {plan.shard_id} attempt {attempt}: no "
                        f"heartbeat for {self.heartbeat_timeout:.1f}s "
                        f"(pid {proc.pid})"
                    )
                try:
                    kind, value = recv_conn.recv()
                except (EOFError, OSError):
                    raise WorkerLostError(
                        f"shard {plan.shard_id} attempt {attempt}: worker "
                        f"pid {proc.pid} died (exit {proc.exitcode})"
                    )
                if kind == "result":
                    return ShardResult(
                        shard_id=plan.shard_id, payload=value,
                        attempt=attempt, worker=f"process:{proc.pid}",
                    )
        finally:
            recv_conn.close()
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)


# ----------------------------------------------------------------------
# socket executor (remote workers)
# ----------------------------------------------------------------------
class ShardWorkerServer:
    """A remote shard worker: accepts plan JSON, returns payload JSON.

    Protocol is one newline-delimited JSON request per connection —
    ``{"plan": <plan.to_json()>, "attempt": n}`` — answered with
    ``{"ok": true, "payload": ..., "worker": ...}`` (or ``"ok": false``
    plus an error).  ``port=0`` binds an ephemeral port; read
    :attr:`address` after construction.  A fault injector makes the
    server drop matching connections without replying — the remote
    analogue of a worker dying mid-shard.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault_injector: Optional[WorkerFaultInjector] = None,
    ) -> None:
        self.fault_injector = fault_injector
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(0.2)
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        name = self._sock.getsockname()
        return (name[0], name[1])

    def serve(self, max_requests: Optional[int] = None) -> int:
        """Serve until closed (or ``max_requests`` answered)."""
        served = 0
        while not self._closed and (
            max_requests is None or served < max_requests
        ):
            try:
                conn, _peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                served += self._handle(conn)
        return served

    def serve_in_background(
        self, max_requests: Optional[int] = None
    ) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve, kwargs={"max_requests": max_requests},
            daemon=True,
        )
        thread.start()
        return thread

    def _handle(self, conn: socket.socket) -> int:
        stream = conn.makefile("rwb")
        line = stream.readline()
        if not line:
            return 0
        # A malformed request or a failing shard is answered with an
        # error; neither may stop the server.
        try:
            request = json.loads(line.decode("utf-8"))
            plan = ScenarioPlan.from_json(request["plan"])
            attempt = int(request.get("attempt", 0))
            if (
                self.fault_injector is not None
                and self.fault_injector.should_kill(plan.shard_id, attempt)
            ):
                # Drop the connection unanswered: to the client this is
                # indistinguishable from the worker host dying mid-shard.
                return 1
            response = {
                "ok": True,
                "payload": execute_plan(plan),
                "worker": f"socket:{os.getpid()}",
            }
        except Exception as exc:
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        try:
            stream.write((json.dumps(response) + "\n").encode("utf-8"))
            stream.flush()
        except OSError:  # the peer hung up before reading its answer
            pass
        return 1

    def close(self) -> None:
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ShardWorkerServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


Address = Tuple[str, int]


class SocketWorkerExecutor:
    """Dispatch shard attempts to :class:`ShardWorkerServer` workers.

    ``addresses`` is one ``(host, port)`` or a pool of them; attempts
    rotate through the pool by ``shard_id + attempt``, so a retry after
    a loss lands on a *different* worker when more than one exists —
    shard reassignment, deterministically.
    """

    name = "socket"

    def __init__(
        self,
        addresses: Union[Address, Sequence[Address]],
        timeout: float = 60.0,
    ) -> None:
        if (
            isinstance(addresses, tuple)
            and len(addresses) == 2
            and isinstance(addresses[0], str)
        ):
            addresses = [addresses]
        self.addresses: List[Address] = [
            (str(host), int(port)) for host, port in addresses
        ]
        if not self.addresses:
            raise ValueError("need at least one worker address")
        self.timeout = timeout

    def run_attempt(self, plan: ScenarioPlan, attempt: int) -> ShardResult:
        host, port = self.addresses[
            (plan.shard_id + attempt) % len(self.addresses)
        ]
        where = f"{host}:{port}"
        try:
            with socket.create_connection(
                (host, port), timeout=self.timeout
            ) as conn:
                stream = conn.makefile("rwb")
                request = {"plan": plan.to_json(), "attempt": attempt}
                stream.write((json.dumps(request) + "\n").encode("utf-8"))
                stream.flush()
                line = stream.readline()
        except OSError as exc:
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                f"unreachable ({exc})"
            )
        if not line:
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                "closed the connection mid-shard"
            )
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                f"failed: {response.get('error', 'unknown error')}"
            )
        return ShardResult(
            shard_id=plan.shard_id,
            payload=response["payload"],
            attempt=attempt,
            worker=response.get("worker", f"socket:{where}"),
        )


# ----------------------------------------------------------------------
# the backend
# ----------------------------------------------------------------------
class DistributedBackend(ExecutorBackend):
    """Campaign execution over a pluggable shard executor, with bounded
    retry and concurrent dispatch.

    ``shards=None`` autotunes via :func:`~repro.campaign.backends.
    resolve_shards` (the decision lands in the checkpoint row like any
    other backend's).  ``max_attempts`` bounds how many workers one
    shard may consume before the cell fails loudly with
    :class:`ShardExhaustedError` — a lost worker is retryable, a shard
    that kills every worker it touches is a bug to surface, not mask.
    """

    def __init__(
        self,
        executor: Optional[ShardExecutor] = None,
        shards: Optional[int] = 2,
        max_attempts: int = 3,
        parallelism: Optional[int] = None,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1 (or None to autotune)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if parallelism is not None and parallelism < 1:
            raise ValueError("parallelism must be >= 1 (or None)")
        self.executor: ShardExecutor = executor or ProcessWorkerExecutor()
        self.shards = shards
        self.max_attempts = max_attempts
        self.parallelism = parallelism

    @property
    def name(self) -> str:
        label = "auto" if self.shards is None else str(self.shards)
        return f"distributed-{self.executor.name}[{label}]"

    def resolve(self, spec: ScenarioSpec) -> int:
        if self.shards is not None:
            return self.shards
        return resolve_shards(spec.members)

    def submit(self, plan: ScenarioPlan) -> ShardResult:
        last: Optional[WorkerLostError] = None
        for attempt in range(self.max_attempts):
            try:
                return self.executor.run_attempt(plan, attempt)
            except WorkerLostError as exc:
                last = exc
        raise ShardExhaustedError(
            f"shard {plan.shard_id}: lost {self.max_attempts} worker(s); "
            f"last: {last}"
        ) from last

    def submit_all(
        self,
        plans: Sequence[ScenarioPlan],
        on_result: Optional[ResultSink] = None,
    ) -> List[ShardResult]:
        if len(plans) <= 1 or self.parallelism == 1:
            return super().submit_all(plans, on_result=on_result)
        workers = self.parallelism or min(
            len(plans), max(2, os.cpu_count() or 2)
        )
        results: List[ShardResult] = []
        first_error: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self.submit, plan) for plan in plans]
            # as_completed streams shards home as they land; on_result
            # (the checkpoint write) runs here on the driver thread, so
            # the SQLite connection never crosses threads.  An exhausted
            # shard must not discard its siblings: every completed shard
            # is still delivered (and so checkpointed) before the first
            # error propagates — that durability is exactly what makes
            # the subsequent resume cheap.
            for future in as_completed(futures):
                try:
                    result = future.result()
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    if first_error is None:
                        first_error = exc
                    continue
                if on_result is not None:
                    on_result(result)
                results.append(result)
        if first_error is not None:
            raise first_error
        results.sort(key=lambda result: result.shard_id)
        return results
