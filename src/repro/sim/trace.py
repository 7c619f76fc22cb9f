"""Simulation trace recording.

The paper (Sect. 4.1) exploits the on-chip debug and trace infrastructure
to observe the system without modifying it.  :class:`Trace` is our
simulation-level analogue: a time-stamped, append-only record of named
observations that monitors can subscribe to or query after the fact.

Traces double as the data source for program spectra (Sect. 4.4): the
block instrumentation emits ``block:<id>`` records that the diagnosis
package folds into hit spectra per scenario step.

Live subscribers sit on a private list, so an unobserved ``emit`` costs
only the append plus an empty-list loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One observation: at ``time``, ``source`` reported ``kind``/``value``."""

    time: float
    source: str
    kind: str
    value: Any = None


class Trace:
    """Append-only trace with live subscribers and post-hoc queries."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self.records: List[TraceRecord] = []
        self._clock = clock or (lambda: 0.0)
        self._subscribers: List[Callable[[TraceRecord], None]] = []
        self._kind_index: Dict[str, List[int]] = {}

    def emit(self, source: str, kind: str, value: Any = None) -> TraceRecord:
        """Record an observation at the current simulated time."""
        record = TraceRecord(self._clock(), source, kind, value)
        index = self._kind_index.get(kind)
        if index is None:
            index = self._kind_index[kind] = []
        index.append(len(self.records))
        self.records.append(record)
        for subscriber in self._subscribers:
            subscriber(record)
        return record

    # ------------------------------------------------------------------
    # live subscription
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Register a live subscriber invoked on every future record.

        Registrations stack: subscribing one callback twice delivers each
        record to it twice, until it is unsubscribed twice.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[TraceRecord], None]) -> None:
        """Detach one registration of ``callback`` (no-op if none)."""
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def of_kind(self, kind: str) -> Iterator[TraceRecord]:
        """All records of one kind, in time order."""
        for index in self._kind_index.get(kind, []):
            yield self.records[index]

    def between(self, start: float, end: float) -> Iterator[TraceRecord]:
        """Records with ``start <= time < end``."""
        for record in self.records:
            if start <= record.time < end:
                yield record

    def last(self, kind: str) -> Optional[TraceRecord]:
        """Most recent record of a kind, or None."""
        indices = self._kind_index.get(kind)
        if not indices:
            return None
        return self.records[indices[-1]]

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.records)
        return len(self._kind_index.get(kind, []))

    def clear(self) -> None:
        self.records.clear()
        self._kind_index.clear()
