"""Out-of-process shard executors: worker processes and socket workers.

A shard executor runs ONE attempt of one shard plan somewhere and
raises :class:`~repro.campaign.backends.WorkerLostError` when that
somewhere dies; :class:`~repro.campaign.backends.DistributedBackend`
retries the attempt on a fresh worker up to ``max_attempts`` times.
Four executors ship: ``InlineExecutor`` (in-process,
:mod:`repro.campaign.backends`), the service's ``StreamingExecutor``
(:mod:`repro.service.jobs`), and the two here, which move the
simulation out of the calling process:

:class:`ProcessWorkerExecutor`
    One OS process per shard attempt.  The worker heartbeats over a
    pipe from a side thread while the shard simulates; the parent treats
    a silent pipe (no heartbeat within ``heartbeat_timeout``) or an EOF
    (the process died) as a lost worker, never as a lost campaign.
    Injected kills are *real* (``os._exit``) — the loss path CI
    verifies.
:class:`SocketWorkerExecutor` / :class:`ShardWorkerServer`
    Newline-delimited JSON over TCP using the plan wire form
    (:meth:`~repro.scenarios.plan.ScenarioPlan.to_json`), so a worker
    on another host — ``python -m repro.campaign worker`` — executes
    the byte-identical placement decisions.  Attempts rotate through
    the worker pool, so a retry lands on a different worker.

A shard's payload is a pure function of its plan, so which attempt
finally lands it cannot perturb the merged ``telemetry_digest``;
:class:`~repro.campaign.backends.WorkerFaultInjector` makes that claim
testable in CI by deterministically killing chosen shards on their
early attempts.  Combined with a
:class:`~repro.campaign.checkpoint.CampaignCheckpoint` (every completed
shard durable as it lands) this is the ROADMAP "beyond one box" story:
kill the campaign process mid-run, ``resume`` on any box, get the
digest an uninterrupted run would have produced.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from typing import List, Optional, Sequence, Tuple, Union

import multiprocessing

from ..scenarios.plan import ScenarioPlan
from .backends import (
    ShardResult,
    WorkerFaultInjector,
    WorkerLostError,
    execute_plan,
)

__all__ = [
    "ProcessWorkerExecutor",
    "ShardWorkerServer",
    "SocketWorkerExecutor",
]

#: Exit code an injected kill dies with (distinguishable from crashes
#: in worker logs; the parent treats any silent death the same way).
KILL_EXIT_CODE = 87


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
        # A worker that dies mid-answer leaves an empty or truncated
        # line: that is a lost worker too, and so retryable.
        try:
            if not line.endswith(b"\n"):
                raise ValueError("no complete answer line")
            response = json.loads(line)
        except ValueError as exc:
            raise WorkerLostError(
                f"shard {plan.shard_id} attempt {attempt}: worker {where} "
                f"closed the connection mid-shard ({exc})"
            ) from exc
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
