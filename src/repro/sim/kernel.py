"""Discrete-event simulation kernel.

Everything in the reproduction that needs a notion of time — the simulated
SoC platform, the TV software, the awareness framework's sampling clock —
runs on top of this kernel.  It is a classic event-wheel design:

* a priority queue ordered by ``(time, priority, sequence)``;
* a simulated clock that only advances when events are dispatched;
* generator-based processes (see :mod:`repro.sim.process`) that suspend by
  yielding *wait requests* and are resumed by the kernel.

The kernel is deliberately deterministic: ties in time are broken first by
an explicit integer priority and then by insertion order, so a given seed
always produces the same trace.  The paper's experiments (e.g. comparator
tuning in Sect. 4.3) depend on reproducible interleavings of SUO events and
monitor observations.

Scale refactor (fleet engine): the kernel publishes on a
:class:`~repro.runtime.bus.EventBus` instead of private hook lists, heap
entries are plain ``(time, priority, seq, Event)`` tuples so ordering is
resolved by C tuple comparison instead of Python ``__lt__`` calls, the run
loop drains same-timestamp events in batches, and cancelled events —
which lazy deletion used to keep in the heap forever — are compacted away
once they dominate the queue, so long fault-injection campaigns run in
bounded memory.

Dispatch hot-path overhaul: :class:`Event` is a ``__slots__`` class (no
per-event ``__dict__``); every scheduled callback gets a fresh one.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..runtime.bus import EventBus

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .process import Process

#: Bus topic carrying every dispatched :class:`Event`.
DISPATCH_TOPIC = "kernel.dispatch"

#: Minimum lazy-deletion debt before compaction is even considered.
COMPACT_MIN_DEBT = 64


class SimulationError(Exception):
    """Raised for misuse of the kernel (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    The kernel dispatches events in ``(time, priority, seq)`` order (the
    heap orders raw tuples of those keys).  ``cancelled`` events stay in
    the heap but are skipped when popped (lazy deletion), which keeps
    cancellation O(1); the owning kernel tracks the cancellation *debt*
    and compacts the heap when cancelled entries dominate it, so the
    queue cannot grow without bound.  ``owner`` is cleared when the event
    is dispatched, so cancelling it afterwards adds no debt.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "name", "cancelled", "owner",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        name: str = "",
        cancelled: bool = False,
        owner: Optional["Kernel"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"seq={self.seq!r}, name={self.name!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Mark the event so the kernel skips it at dispatch time."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._note_cancelled()


#: One priority-queue slot: ``(time, priority, seq, event)``.
QueueEntry = Tuple[float, int, int, "Event"]


class Kernel:
    """The simulation executive.

    Typical use::

        kernel = Kernel()
        kernel.schedule(5.0, lambda: print("five"))
        kernel.run(until=10.0)

    Observation goes through the kernel's :attr:`bus`: every dispatch is
    published on :data:`DISPATCH_TOPIC` (the simulation-level analogue of
    the on-chip trace infrastructure the paper mentions in Sect. 4.1), and
    any subsystem may publish/subscribe its own topics.  Publishing on a
    silent topic is a single dict lookup, so an unobserved simulation pays
    ~nothing.
    """

    def __init__(self, bus: Optional[EventBus] = None) -> None:
        self._queue: List[QueueEntry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.dispatched_count = 0
        #: The shared runtime event bus (dispatch trace, SUO observables,
        #: fleet campaign telemetry all ride on it).
        self.bus = bus or EventBus()
        #: Count of cancelled events still sitting in the heap.
        self._cancelled_debt = 0
        self.compactions = 0
        #: Live processes in creation order; a process registers itself
        #: and drops out when it finishes (see :meth:`close`).
        self._processes: Dict[Process, None] = {}

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``priority`` breaks ties at equal times; lower runs first.  Returns
        the :class:`Event`, which may be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        # Body of schedule_at, inlined: this is called once per periodic
        # event in a campaign, and the extra frame is measurable.
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, name, False, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time.

        This is the scheduling primitive (:meth:`schedule` delegates
        here).  The event fires at exactly ``time`` — it is *not*
        re-derived from a relative delay, because ``now + (time - now)``
        need not round-trip in floating point and can land an ulp early,
        reordering callers (like
        :class:`~repro.awareness.channel.MessageChannel`) that rely on
        monotone absolute deadlines.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past (at={time}, now={self._now})"
            )
        seq = next(self._seq)
        event = Event(time, priority, seq, callback, name, False, self)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # cancellation debt / heap compaction
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._cancelled_debt += 1
        if (
            self._cancelled_debt >= COMPACT_MIN_DEBT
            and self._cancelled_debt * 2 >= len(self._queue)
        ):
            self.compact()

    def compact(self) -> int:
        """Drop cancelled events from the heap; returns how many were shed.

        In-place (slice assignment) so run loops holding a reference to
        the queue keep seeing the live heap.
        """
        queue = self._queue
        before = len(queue)
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        self._cancelled_debt = 0
        self.compactions += 1
        return before - len(queue)

    @property
    def cancelled_debt(self) -> int:
        """Cancelled events currently occupying heap slots."""
        return self._cancelled_debt

    def queue_size(self) -> int:
        """Raw heap size, cancelled entries included (memory proxy)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the single next event.  Returns False if queue empty."""
        return self.run(max_events=1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the number of events dispatched by this call.  When
        ``until`` is given the clock is advanced to exactly ``until`` even
        if the last event fired earlier, so callers can interleave
        ``run(until=...)`` segments and still observe a monotone clock.

        The loop drains each distinct timestamp as one *batch*: the clock
        is written once per timestamp and the dispatch-trace subscriber
        snapshot is fetched once per timestamp.  Dispatch order is
        identical to one-at-a-time stepping — events scheduled by a batch
        member at the same timestamp merge into the batch in heap order.
        """
        dispatched = 0
        if max_events is not None and max_events <= 0:
            return 0
        limit = max_events if max_events is not None else -1
        queue = self._queue
        pop = heapq.heappop
        bus = self.bus
        hooks_version = -1
        hooks: tuple = ()
        while queue:
            head = queue[0]
            batch_time = head[0]
            if head[3].cancelled:
                pop(queue)
                self._cancelled_debt -= 1
                continue
            if until is not None and batch_time > until:
                break
            if batch_time < self._now:
                raise SimulationError(
                    "event queue corrupted: time moved backwards"
                )
            self._now = batch_time
            if bus.version != hooks_version:
                hooks_version = bus.version
                hooks = bus.snapshot(DISPATCH_TOPIC)
            while True:
                event = pop(queue)[3]
                if event.cancelled:
                    self._cancelled_debt -= 1
                else:
                    event.owner = None
                    for hook in hooks:
                        hook(DISPATCH_TOPIC, event)
                    self.dispatched_count += 1
                    event.callback()
                    dispatched += 1
                    if dispatched == limit:
                        return dispatched
                if not queue or queue[0][0] != batch_time:
                    break
        if until is not None and self._now < until:
            self._now = until
        return dispatched

    def peek_time(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        O(1) in the common case: compaction keeps cancelled entries from
        accumulating, and any cancelled head stripped here is paid for
        exactly once (amortized constant).
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._cancelled_debt -= 1
        if not queue:
            return None
        return queue[0][0]

    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._queue) - self._cancelled_debt

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the simulation: close every live process, drop every event.

        Call it once nothing more is read from the run.  A suspended
        process generator keeps its frame, and with it the fleet state
        its ``finally:`` blocks touch; left to the garbage collector,
        those finalizers resurrect the whole object graph for one more
        pass.  Closing them here instead lets one collection free it.

        Every live process is marked dead *before* any generator is
        closed, so a ``finally:`` that releases a resource, fires a
        signal or kills a sibling cannot resume another process being
        closed.  Processes end without ``on_exit`` hooks or exit
        watchers firing, and anything a ``finally:`` schedules is
        discarded with the rest of the queue.  A generator that ignores
        ``GeneratorExit`` (or raises while closing) is reported as a
        :class:`SimulationError` naming the process, after every other
        process has been closed.  Idempotent.
        """
        processes = list(self._processes)
        self._processes.clear()
        for process in processes:
            process.alive = False
        failure = None
        for process in processes:
            try:
                process.generator.close()
            except Exception as exc:  # noqa: BLE001 — reported below
                failure = failure or (process, exc)
        self._queue.clear()
        self._cancelled_debt = 0
        if failure is not None:
            process, exc = failure
            raise SimulationError(
                f"process {process.name} did not close: {exc}"
            ) from exc
