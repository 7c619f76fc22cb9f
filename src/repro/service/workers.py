"""Simulation worker processes for the campaign service.

A :class:`WorkerPool` holds ``size`` processes, each running
:func:`~repro.campaign.backends.execute_plan_segmented` for one shard
plan at a time, so two jobs simulate on two cores instead of sharing
one interpreter lock.  The pool forks its processes when it is built:
the service builds it before its HTTP server or any job thread exists,
so nothing is forked from a threaded process, and every worker starts
with the modules the server already imported.  A worker lost later is
replaced by a *spawned* process (a fresh interpreter), because by then
the server runs threads.

One duplex pipe per worker carries:

* job thread → worker: ``(plan, segments)``;
* worker → job thread, after each kernel slice:
  ``("segment", index, sim_time, telemetry summary)``, answered with
  ``True`` (go on) or ``False`` (cancel: the worker abandons the plan
  and replies ``("cancelled",)``);
* worker → job thread, at the end: ``("done", payload)`` or
  ``("error", exception)``.

So a cancel still lands between segments, and a worker's payload is
byte-identical to an in-process run of the same plan.  A worker exits
when its pipe reaches EOF.  Each forked worker closes every pool pipe
end it inherited except its own, so the end of the server, even by
SIGKILL, is an EOF in every worker and none outlives it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import signal
import threading
from typing import Any, Callable, Dict, List, Set

from ..campaign.backends import WorkerLostError, execute_plan_segmented
from ..scenarios.plan import ScenarioPlan

__all__ = ["SegmentCallback", "WorkerPool"]

#: ``(segment index, simulated time, telemetry summary)`` after a slice.
SegmentCallback = Callable[[int, float, Dict[str, Any]], None]

#: Seconds a stopping worker gets to exit before it is sent SIGTERM,
#: and again before SIGKILL.
STOP_GRACE_SECONDS = 1.0

#: The job-thread end of every live worker pipe in this process, of
#: every pool: a newly forked worker closes its copies of all of them.
_PARENT_ENDS: Set[Any] = set()
_PARENT_ENDS_LOCK = threading.Lock()

#: Queued by :meth:`WorkerPool.close` for job threads still waiting.
_CLOSED = object()


class _ServerGone(Exception):
    """The worker's pipe broke: the server has gone."""


class _Cancelled(Exception):
    """The job thread answered a segment with cancel."""


def _serve(conn: Any, inherited: List[Any]) -> None:
    """Worker-process body: run plans until the pipe reaches EOF."""
    for end in inherited:
        end.close()
    # The server decides when its workers stop: a terminal's Ctrl-C
    # reaches the whole process group, but only the server acts on it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)

    def on_segment(compiled: Any, index: int, now: float) -> None:
        summary = compiled.fleet.telemetry.summary()
        try:
            conn.send(("segment", index, now, summary))
            go = conn.recv()
        except (EOFError, OSError) as exc:
            raise _ServerGone from exc
        if not go:
            raise _Cancelled

    while True:
        try:
            plan, segments = conn.recv()
        except (EOFError, OSError):
            return
        try:
            payload = execute_plan_segmented(plan, segments, on_segment=on_segment)
            reply: Any = ("done", payload)
        except _ServerGone:
            return
        except _Cancelled:
            reply = ("cancelled",)
        except Exception as exc:  # the job thread re-raises it
            try:
                pickle.dumps(exc)
            except Exception:  # one that does not pickle goes as text
                exc = RuntimeError(f"{type(exc).__name__}: {exc}")
            reply = ("error", exc)
        try:
            conn.send(reply)
        except OSError:
            return


class _Worker:
    """One simulation process and the job-thread end of its pipe.

    Only its holder (the pool while it is idle, a job thread while it
    runs a plan) uses the pipe or stops it.
    """

    def __init__(self, context: Any) -> None:
        parent_end, child_end = context.Pipe()
        forked = context.get_start_method() == "fork"
        with _PARENT_ENDS_LOCK:
            inherited = list(_PARENT_ENDS) + [parent_end] if forked else []
            self.process = context.Process(
                target=_serve,
                args=(child_end, inherited),
                name="repro-simulation-worker",
                daemon=True,
            )
            self.process.start()
            child_end.close()
            _PARENT_ENDS.add(parent_end)
        self.conn = parent_end
        self.pid: int = self.process.pid

    def run(
        self, plan: ScenarioPlan, segments: int, on_segment: SegmentCallback
    ) -> Dict[str, Any]:
        """Run one plan in the worker, relaying each slice to
        ``on_segment``; whatever that raises cancels the plan and is
        re-raised once the worker has let the plan go."""
        self._send((plan, segments))
        while True:
            message = self._recv()
            if message[0] == "segment":
                try:
                    on_segment(*message[1:])
                except BaseException:
                    self._send(False)
                    self._recv()  # ("cancelled",): the pipe is clean again
                    raise
                self._send(True)
            elif message[0] == "done":
                return message[1]
            else:
                raise message[1]

    def _send(self, message: Any) -> None:
        try:
            self.conn.send(message)
        except OSError as exc:
            raise self._lost() from exc

    def _recv(self) -> Any:
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._lost() from exc

    def _lost(self) -> WorkerLostError:
        self.process.join(STOP_GRACE_SECONDS)
        code = self.process.exitcode
        if code is None:
            how = "stopped answering"
        elif code < 0:
            how = f"died (signal {-code})"
        else:
            how = f"exited with code {code}"
        return WorkerLostError(f"simulation worker pid {self.pid} {how}")

    def stop(self) -> None:
        """Close the pipe (an idle worker exits at its EOF), then make
        sure the process has ended, and reap it."""
        with _PARENT_ENDS_LOCK:
            _PARENT_ENDS.discard(self.conn)
        self.conn.close()
        self.process.join(STOP_GRACE_SECONDS)
        if self.process.exitcode is None:
            self.process.terminate()
            self.process.join(STOP_GRACE_SECONDS)
        if self.process.exitcode is None:
            self.process.kill()
            self.process.join()
        self.process.close()


class WorkerPool:
    """``size`` simulation processes shared by the service's job threads."""

    def __init__(self, size: int) -> None:
        # Fork only from a process with one thread: a lock another thread
        # holds at the fork would stay held forever in the child.
        single = threading.active_count() == 1
        fork = single and "fork" in multiprocessing.get_all_start_methods()
        self._respawn = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._closed = False
        #: Idle workers; ``None`` is the slot of a lost worker whose
        #: replacement could not be started, and :data:`_CLOSED` ends
        #: every wait once the pool is closed.
        self._idle: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        #: Every live worker, idle or held by a job thread.
        self._workers: List[_Worker] = []
        context = multiprocessing.get_context("fork" if fork else "spawn")
        for _ in range(size):
            worker = _Worker(context)
            self._workers.append(worker)
            self._idle.put(worker)

    def pids(self) -> List[int]:
        with self._lock:
            return [worker.pid for worker in self._workers]

    def run(
        self, plan: ScenarioPlan, segments: int, on_segment: SegmentCallback
    ) -> Dict[str, Any]:
        """Run one plan on an idle worker (waiting for one if need be).

        A worker that dies mid-plan raises :class:`WorkerLostError`
        naming its pid, and a spawned process takes its slot.
        """
        worker = self._idle.get()
        if worker is _CLOSED:
            self._idle.put(_CLOSED)  # for the next waiter
            raise WorkerLostError("the simulation worker pool is closed")
        try:
            if worker is None:
                worker = self._start()
            return worker.run(plan, segments, on_segment)
        except WorkerLostError:
            self._retire(worker)
            worker = None
            if not self._closed:
                worker = self._start()  # if this fails, the next run retries
            raise
        finally:
            with self._lock:
                if not self._closed:
                    self._idle.put(worker)
                    worker = None
            if worker is not None:
                self._retire(worker)

    def close(self) -> None:
        """Stop every worker.

        Idle workers exit at the EOF of their pipe and are reaped here.
        A worker a job thread holds is sent SIGTERM (the caller has
        cancelled its job), and that thread reaps it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                worker = self._idle.get_nowait()
            except queue.Empty:
                break
            if worker is not None:
                self._retire(worker)
        self._idle.put(_CLOSED)
        with self._lock:  # the holder removes a worker before closing it
            for worker in self._workers:
                worker.process.terminate()

    def _start(self) -> _Worker:
        worker = _Worker(self._respawn)
        with self._lock:
            self._workers.append(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.stop()
