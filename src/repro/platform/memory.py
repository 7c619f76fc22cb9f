"""Shared memory with a programmable arbiter.

NXP Research's line of work in Trader (Sect. 4.5) is "to make memory
arbitration more flexible such that it can be adapted at run-time to deal
with problems concerning memory access".  This module provides the
substrate for that: a :class:`SharedMemory` served through a
:class:`MemoryArbiter` whose scheduling *policy* — and per-client weights —
can be replaced while the simulation runs.  The adaptive controller that
does the run-time re-weighting lives in :mod:`repro.recovery.memarbiter`.

Policies:

* ``round_robin``  — equal turns over clients with pending requests;
* ``priority``     — fixed client priorities (lower value served first);
* ``weighted``     — deficit-weighted fair sharing by ``weights``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..sim.kernel import Kernel
from ..sim.process import Signal, WaitSignal


VALID_POLICIES = ("round_robin", "priority", "weighted")


@dataclass(slots=True)
class MemoryRequest:
    """One outstanding access: ``words`` words for ``client``."""

    client: str
    words: int
    issue_time: float
    done: Signal = field(default_factory=Signal)
    grant_time: Optional[float] = None


@dataclass(slots=True)
class ClientStats:
    """Per-client latency/throughput accounting the observers read."""

    requests: int = 0
    words: int = 0
    total_latency: float = 0.0
    max_latency: float = 0.0

    def mean_latency(self) -> float:
        if self.requests == 0:
            return 0.0
        return self.total_latency / self.requests


class MemoryArbiter:
    """Grants one request at a time according to the active policy."""

    def __init__(
        self,
        kernel: Kernel,
        words_per_time: float = 100.0,
        policy: str = "round_robin",
        name: str = "mem-arbiter",
    ) -> None:
        if words_per_time <= 0:
            raise ValueError("service rate must be positive")
        if policy not in VALID_POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.kernel = kernel
        self.name = name
        self.words_per_time = words_per_time
        self.policy = policy
        self.priorities: Dict[str, int] = {}
        self.weights: Dict[str, float] = {}
        self._deficits: Dict[str, float] = {}
        self._queues: Dict[str, List[MemoryRequest]] = {}
        self._rr_order: List[str] = []
        self._last_served: Optional[str] = None
        self._busy = False
        self.stats: Dict[str, ClientStats] = {}

    # ------------------------------------------------------------------
    # configuration (callable at run time — this is the paper's point)
    # ------------------------------------------------------------------
    def set_policy(self, policy: str) -> None:
        if policy not in VALID_POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy

    def set_priority(self, client: str, priority: int) -> None:
        self.priorities[client] = priority

    def set_weight(self, client: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self.weights[client] = weight

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def access(self, client: str, words: int) -> Generator[Any, Any, float]:
        """Generator: yield-from inside a process; returns the latency."""
        request = MemoryRequest(client, words, self.kernel.now)
        queue = self._queues.setdefault(client, [])
        if client not in self._rr_order:
            self._rr_order.append(client)
        queue.append(request)
        self._pump()
        yield WaitSignal(request.done)
        return self.kernel.now - request.issue_time

    def pending(self, client: Optional[str] = None) -> int:
        if client is not None:
            return len(self._queues.get(client, []))
        return sum(len(q) for q in self._queues.values())

    def client_stats(self, client: str) -> ClientStats:
        return self.stats.setdefault(client, ClientStats())

    # ------------------------------------------------------------------
    # arbitration core
    # ------------------------------------------------------------------
    def _clients_with_work(self) -> List[str]:
        return [c for c in self._rr_order if self._queues.get(c)]

    def _pick_client(self) -> Optional[str]:
        candidates = self._clients_with_work()
        if not candidates:
            return None
        if self.policy == "priority":
            return min(
                candidates, key=lambda c: (self.priorities.get(c, 0), c)
            )
        if self.policy == "weighted":
            # Deficit round robin: accumulate credit by weight, serve the
            # client with the largest credit, charge it the request size.
            for client in candidates:
                weight = self.weights.get(client, 1.0)
                self._deficits[client] = self._deficits.get(client, 0.0) + weight
            chosen = max(candidates, key=lambda c: (self._deficits.get(c, 0.0), c))
            return chosen
        # Round robin: scan cyclically starting just after the client
        # served most recently (robust against clients joining later).
        order = self._rr_order
        start = 0
        if self._last_served in order:
            start = (order.index(self._last_served) + 1) % len(order)
        for offset in range(len(order)):
            client = order[(start + offset) % len(order)]
            if self._queues.get(client):
                return client
        return None

    def _pump(self) -> None:
        if self._busy:
            return
        client = self._pick_client()
        if client is None:
            return
        request = self._queues[client].pop(0)
        self._last_served = client
        if self.policy == "weighted":
            self._deficits[client] = self._deficits.get(client, 0.0) - request.words
        self._busy = True
        request.grant_time = self.kernel.now
        service = request.words / self.words_per_time
        self.kernel.schedule(
            service, lambda: self._complete(request), name=f"mem:{client}"
        )

    def _complete(self, request: MemoryRequest) -> None:
        self._busy = False
        latency = self.kernel.now - request.issue_time
        stats = self.stats.get(request.client)
        if stats is None:
            stats = self.stats[request.client] = ClientStats()
        stats.requests += 1
        stats.words += request.words
        stats.total_latency += latency
        stats.max_latency = max(stats.max_latency, latency)
        request.done.fire(latency)
        self._pump()


class SharedMemory:
    """A named memory region behind an arbiter, with a value store.

    The value store lets the simulated TV software keep real state in
    "memory" so that faults like wild writes (Sect. 2's wrong memory value
    example) have observable consequences the error detectors can find.
    """

    def __init__(self, kernel: Kernel, arbiter: MemoryArbiter, name: str = "dram") -> None:
        self.kernel = kernel
        self.arbiter = arbiter
        self.name = name
        self._cells: Dict[str, Any] = {}

    def read(self, client: str, address: str, words: int = 1):
        """Generator: arbitrated read; returns (value, latency)."""
        latency = yield from self.arbiter.access(client, words)
        return self._cells.get(address), latency

    def write(self, client: str, address: str, value: Any, words: int = 1):
        """Generator: arbitrated write; returns latency."""
        latency = yield from self.arbiter.access(client, words)
        self._cells[address] = value
        return latency

    def poke(self, address: str, value: Any) -> None:
        """Instant, un-arbitrated write — the fault injector's back door."""
        self._cells[address] = value

    def peek(self, address: str) -> Any:
        """Instant, un-arbitrated read — for observers/debug."""
        return self._cells.get(address)
