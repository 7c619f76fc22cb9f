"""Execution backends: the one seam every campaign cell runs through.

A cell reaches the simulator through two contracts:

* a **shard executor** (:class:`ShardExecutor`) runs one attempt of one
  per-shard :class:`~repro.scenarios.plan.ScenarioPlan` somewhere and
  hands back the shard's mergeable :class:`ShardResult`, or raises
  :class:`WorkerLostError` when that somewhere died;
* :class:`DistributedBackend`, the one backend class, picks the shard
  count, retries a lost attempt on a fresh worker up to a bound, and
  dispatches a cell's pending shard plans (concurrently when there are
  several).

Four executors ship: :class:`InlineExecutor` (in-process, here),
``ProcessWorkerExecutor`` and ``SocketWorkerExecutor``
(:mod:`repro.campaign.distributed`), and the campaign service's
``StreamingExecutor`` (:mod:`repro.service.jobs`).
:class:`SerialBackend` is the one-shard, one-attempt preset over
:class:`InlineExecutor`.
Orchestration (plan, partition, skip checkpointed shards, submit the
rest, merge) lives in exactly one place,
:func:`repro.campaign.core.execute_cell`.

The sharded contract (verified by ``tests/test_campaign.py`` and gated
in CI):

* merged counter/tally telemetry is **identical** to the serial run's —
  per-member behaviour keys to ``(campaign seed, suo_id)`` so placement
  cannot perturb it;
* per-shard trace digests are reproducible across reruns;
* shard-local randomness (reservoir sampling) keys to
  ``derive_shard_seed(seed, shard_id)``.
"""

from __future__ import annotations

import gc
import os
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..scenarios.compile import CompiledScenario
from ..scenarios.plan import ScenarioPlan, derive_shard_seed
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "DistributedBackend",
    "InlineExecutor",
    "SerialBackend",
    "ShardExecutor",
    "ShardExhaustedError",
    "ShardResult",
    "WorkerFaultInjector",
    "WorkerLostError",
    "derive_shard_seed",
    "execute_plan",
    "execute_plan_segmented",
    "resolve_shards",
]

#: Fewest members worth a dedicated worker process: below this the
#: fork/merge overhead of another shard outweighs its share of the
#: simulation (measured on bench_e16 scale points).
MIN_MEMBERS_PER_SHARD = 25


def resolve_shards(members: int, cpu_count: Optional[int] = None) -> int:
    """Pick a shard count from the host and the plan size (ROADMAP
    "shard-count autotuning").

    One shard per ``MIN_MEMBERS_PER_SHARD`` members, capped at the CPU
    count — a 1-CPU container degrades to a single in-process shard and
    a thousand-SUO cell on a big host fans out to every core.  An
    autotuning backend's ``resolve()`` routes through here, and the
    resolved count is what a
    :class:`~repro.campaign.checkpoint.CampaignCheckpoint` records — so
    an autotune decision is visible in the checkpoint row instead of
    vanishing with the process that made it.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    by_size = max(1, members // MIN_MEMBERS_PER_SHARD)
    return max(1, min(cpus, by_size))


# ----------------------------------------------------------------------
# the unit of work and the unit of result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardResult:
    """One executed shard: the durable, mergeable unit of a campaign.

    ``payload`` is the JSON-safe dict :func:`execute_plan` produces
    (:meth:`FleetReport.to_json`: mergeable summary, span block,
    digests, detection accounting);
    ``attempt`` and ``worker`` record how the shard got executed — the
    fault-tolerance provenance a checkpoint row keeps.  The payload is
    exactly what :func:`~repro.campaign.report.merge_shard_results`
    folds, so a result loaded back from a checkpoint merges bit-for-bit
    like a fresh one.
    """

    shard_id: int
    payload: Dict[str, Any] = field(repr=False)
    attempt: int = 0
    worker: str = "local"

    def to_json(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "attempt": self.attempt,
            "worker": self.worker,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ShardResult":
        return cls(
            shard_id=int(data["shard_id"]),
            payload=data["payload"],
            attempt=int(data.get("attempt", 0)),
            worker=str(data.get("worker", "local")),
        )


def execute_plan(plan: ScenarioPlan) -> Dict[str, Any]:
    """Compile and run one plan (a full cell or one shard of it) and
    return its payload, :meth:`FleetReport.to_json`.

    The inline, process and socket executors all call this, so worker
    processes and socket workers on another host run the byte-identical
    code path.
    """
    return execute_plan_segmented(plan, 1)


def execute_plan_segmented(
    plan: ScenarioPlan,
    segments: int,
    on_segment: Optional[Callable[[CompiledScenario, int, float], None]] = None,
) -> Dict[str, Any]:
    """:func:`execute_plan`, sliced into ``segments`` kernel runs: the
    one plan primitive, which compiles the plan and runs it.

    The payload is byte-identical for any segment count (see
    :meth:`CompiledScenario.run_segmented`); the difference is purely
    observational — ``on_segment`` fires between slices with live
    telemetry flushed, which is where the campaign service samples
    :class:`~repro.runtime.telemetry.FleetTelemetry` snapshots for its
    NDJSON stream and checks for cancellation.
    """
    with _CELL_HEAP.run():
        compiled = _CELL_HEAP.compile(plan)
        try:
            return compiled.run_segmented(
                segments, on_segment=on_segment
            ).to_json()
        finally:
            # After to_json() built the payload, and before the run ends:
            # an end-of-run collection frees the fleet only once its last
            # reference is gone.
            compiled.close()
            del compiled


class _CellHeap:
    """The collector policy around every plan run in this process.

    A compiled fleet is up to a few hundred thousand long-lived objects,
    and a full collection during its build or its run walks all of them
    to free nothing.  So the collector is paused while a fleet compiles,
    and the heap is frozen (:func:`gc.freeze`) once it is built.  When
    the last in-flight run ends the heap is unfrozen, and collected once
    the fleets built since the previous collection amount to a quarter
    of the rest of the heap (CPython's own trigger for a full
    collection).  A large fleet is therefore freed as soon as its run
    ends; small ones are freed a few at a time, so a short cell does
    not pay a walk of the whole heap.
    :meth:`CompiledScenario.close` ended the finished fleets' processes
    first, so no generator finalizer resurrects them and one collection
    frees them.

    Process-wide because the collector is: the counts are
    lock-guarded, so concurrent runs (the service's job threads, a
    threaded shard dispatch) compose.  A run that ends while another is
    in flight leaves its closed fleet frozen until the last one ends;
    the pause restores whatever :func:`gc.isenabled` said before the
    first of any overlapping compiles.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs = 0
        self._compiles = 0
        self._was_enabled = True
        #: Objects compiled since the last end-of-run collection.
        self._built = 0

    @contextmanager
    def run(self) -> Iterator[None]:
        with self._lock:
            self._runs += 1
        try:
            yield
        finally:
            with self._lock:
                self._runs -= 1
                if self._runs == 0:
                    frozen = gc.get_freeze_count()
                    gc.unfreeze()
                    if 4 * self._built >= frozen - self._built:
                        self._built = 0
                        gc.collect()

    def compile(self, plan: ScenarioPlan) -> CompiledScenario:
        with self._lock:
            if self._compiles == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._compiles += 1
        built = 0
        try:
            compiled = CompiledScenario(plan.spec, plan.seed, plan=plan)
            # With the collector paused every object the build added is
            # still counted in generation 0.  Frozen before the collector
            # resumes: they would otherwise all be young, and the next
            # allocation would walk every one of them.
            built = gc.get_count()[0]
            gc.freeze()
        finally:
            with self._lock:
                self._compiles -= 1
                self._built += built
                if self._compiles == 0 and self._was_enabled:
                    gc.enable()
        return compiled


_CELL_HEAP = _CellHeap()


#: Callback invoked with each completed :class:`ShardResult` as it
#: lands (checkpoint writes hook in here).
ResultSink = Callable[[ShardResult], None]


# ----------------------------------------------------------------------
# shard executors
# ----------------------------------------------------------------------
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


class InlineExecutor:
    """Run shard attempts in the calling process.

    The serial path's executor.  With a fault injector attached,
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
# the backend
# ----------------------------------------------------------------------
class DistributedBackend:
    """Campaign execution over a pluggable shard executor, with bounded
    retry and concurrent dispatch.

    ``shards=None`` autotunes via :func:`resolve_shards` (the decision
    lands in the checkpoint row).  ``max_attempts`` bounds how many
    workers one shard may consume before the cell fails loudly with
    :class:`ShardExhaustedError` — a lost worker is retryable, a shard
    that kills every worker it touches is a bug to surface, not mask.
    ``parallelism`` caps concurrent shard dispatch (``1`` runs shards
    one after another; ``None`` uses a thread per shard, at most the
    CPU count but at least two).
    """

    def __init__(
        self,
        executor: ShardExecutor,
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
        self.executor = executor
        self.shards = shards
        self.max_attempts = max_attempts
        self.parallelism = parallelism

    @property
    def name(self) -> str:
        label = "auto" if self.shards is None else str(self.shards)
        return f"distributed-{self.executor.name}[{label}]"

    def resolve(self, spec: ScenarioSpec) -> int:
        """The shard count this backend will use for one cell."""
        if self.shards is not None:
            return self.shards
        return resolve_shards(spec.members)

    def submit(self, plan: ScenarioPlan) -> ShardResult:
        """Execute one shard plan, retrying a lost worker."""
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
        """Execute a batch of shard plans, streaming each result into
        ``on_result`` as it lands; results come back in shard order."""
        if len(plans) <= 1 or self.parallelism == 1:
            results = []
            for plan in plans:
                result = self.submit(plan)
                if on_result is not None:
                    on_result(result)
                results.append(result)
            return results
        workers = self.parallelism or min(
            len(plans), max(2, os.cpu_count() or 2)
        )
        results = []
        first_error: Optional[BaseException] = None
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(self.submit, plan) for plan in plans]
            # as_completed streams shards home as they land; on_result
            # (the checkpoint write) runs here on the calling thread, so
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


class SerialBackend(DistributedBackend):
    """The single-kernel preset: one shard, one attempt, in-process.

    Routes its one shard through the same merge as every other backend,
    so serial and sharded reports are structurally identical and their
    ``telemetry_digest`` fields are directly comparable.
    """

    name = "serial"

    def __init__(self) -> None:
        super().__init__(
            InlineExecutor(), shards=1, max_attempts=1, parallelism=1,
        )
