"""Contended shared resources for the simulated platform.

The paper's stress-testing work (Sect. 4.7) "artificially takes away shared
resources, such as CPU or bus bandwidth".  To support that, resources here
have an explicit *capacity* that can be changed at run time: the CPU eater
is literally ``resource.set_capacity(capacity - eaten)`` plus a competing
process.

Two resource kinds:

* :class:`Resource` — counting semaphore with FIFO or priority queueing
  (models bus slots, memory ports, decoder contexts);
* :class:`Store` — bounded buffer of items (models frame queues and
  message queues between components).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from .kernel import Kernel, SimulationError


@dataclass(slots=True)
class ResourceStats:
    """Aggregate contention statistics, used by E4/E7/E11 benchmarks."""

    acquisitions: int = 0
    total_wait: float = 0.0
    max_wait: float = 0.0
    rejected: int = 0

    def mean_wait(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.total_wait / self.acquisitions


class Acquire:
    """Wait request yielded by a process to obtain one unit of a resource."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        self.resource = resource
        self.priority = priority

    def _submit(self, process: Any) -> None:
        self.resource._enqueue(process, self.priority)

    def _withdraw(self, process: Any) -> None:
        self.resource.drop_waiter(process)


class Resource:
    """A counting resource with run-time adjustable capacity.

    ``capacity`` units exist; ``in_use`` are held.  Waiters queue by
    ``(priority, seq)`` so equal-priority requests are FIFO.  Reducing the
    capacity below ``in_use`` does not preempt holders — the deficit is
    absorbed as holders release, which matches how bandwidth takeaway
    behaves on a real memory arbiter.
    """

    def __init__(self, kernel: Kernel, capacity: int, name: str = "resource") -> None:
        if capacity < 0:
            raise SimulationError("capacity must be non-negative")
        self.kernel = kernel
        self.name = name
        self._capacity = capacity
        self.in_use = 0
        self._seq = itertools.count()
        self._waiters: List[Tuple[int, int, Any, float]] = []
        self.stats = ResourceStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    def set_capacity(self, capacity: int) -> None:
        """Adjust capacity at run time (stress testing / adaptive arbiter)."""
        if capacity < 0:
            raise SimulationError("capacity must be non-negative")
        self._capacity = capacity
        self._grant_waiters()

    def acquire(self, priority: int = 0) -> Acquire:
        """Build a wait request: ``yield resource.acquire()``."""
        return Acquire(self, priority)

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self.in_use < self._capacity:
            self.in_use += 1
            self.stats.acquisitions += 1
            return True
        self.stats.rejected += 1
        return False

    def release(self) -> None:
        """Return one unit and hand it to the next waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release of {self.name} with nothing held")
        self.in_use -= 1
        self._grant_waiters()

    def queue_length(self) -> int:
        return len(self._waiters)

    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use (0 when capacity 0)."""
        if self._capacity == 0:
            return 1.0 if self.in_use else 0.0
        return self.in_use / self._capacity

    # ------------------------------------------------------------------
    def _enqueue(self, process: Any, priority: int) -> None:
        # Uncontended acquire — nobody queued, a unit free — grants
        # immediately without touching the wait heap; the stats come out
        # identical (zero wait moves neither total nor max).
        if not self._waiters and self.in_use < self._capacity:
            self.in_use += 1
            self.stats.acquisitions += 1
            process._resume(self)
            return
        heapq.heappush(
            self._waiters, (priority, next(self._seq), process, self.kernel.now)
        )
        self._grant_waiters()

    def _grant_waiters(self) -> None:
        while self._waiters and self.in_use < self._capacity:
            _, _, process, enqueue_time = heapq.heappop(self._waiters)
            if not getattr(process, "alive", True):
                continue
            self.in_use += 1
            wait = self.kernel.now - enqueue_time
            self.stats.acquisitions += 1
            self.stats.total_wait += wait
            self.stats.max_wait = max(self.stats.max_wait, wait)
            process._resume(self)

    def drop_waiter(self, process: Any) -> None:
        """Remove an interrupted process from the wait queue."""
        self._waiters = [w for w in self._waiters if w[2] is not process]
        heapq.heapify(self._waiters)


class GetItem:
    """Wait request for :meth:`Store.get`."""

    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        self.store = store

    def _submit(self, process: Any) -> None:
        self.store._enqueue_getter(process)

    def _withdraw(self, process: Any) -> None:
        self.store.drop_getter(process)


class Store:
    """A bounded FIFO buffer connecting producer and consumer processes.

    ``put`` is non-blocking and returns False when the buffer is full
    (producers in a streaming pipeline *drop* rather than block — exactly
    the frame-drop behaviour the TV pipeline exhibits under overload, which
    the output observer then sees as degraded quality).
    """

    def __init__(self, kernel: Kernel, capacity: int = 0, name: str = "store") -> None:
        self.kernel = kernel
        self.name = name
        self.capacity = capacity  # 0 means unbounded
        self.items: List[Any] = []
        self._getters: List[Any] = []
        self.put_count = 0
        self.drop_count = 0

    def put(self, item: Any) -> bool:
        """Append an item; False (and drop) if the buffer is full."""
        if self.capacity and len(self.items) >= self.capacity:
            self.drop_count += 1
            return False
        self.items.append(item)
        self.put_count += 1
        self._serve_getters()
        return True

    def get(self) -> GetItem:
        """Build a wait request: ``item = yield store.get()``."""
        return GetItem(self)

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; None when empty."""
        if self.items:
            return self.items.pop(0)
        return None

    def __len__(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------------
    def _enqueue_getter(self, process: Any) -> None:
        self._getters.append(process)
        self._serve_getters()

    def _serve_getters(self) -> None:
        while self.items and self._getters:
            process = self._getters.pop(0)
            if not getattr(process, "alive", True):
                continue
            item = self.items.pop(0)
            process._resume(item)

    def drop_getter(self, process: Any) -> None:
        """Remove an interrupted process from the getter queue."""
        self._getters = [g for g in self._getters if g is not process]

    def clear(self) -> int:
        """Discard buffered items (used when restarting a unit); returns count."""
        n = len(self.items)
        self.items.clear()
        return n
