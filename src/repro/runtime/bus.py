"""The runtime event bus: one publish/subscribe plane for the whole stack.

The seed wired every observation path differently — the kernel had
``_dispatch_hooks``, the trace kept its own subscriber list, the SUOs
exposed ad-hoc ``*_hooks`` lists, and collaborators found each other
through an untyped registry dict.  :class:`EventBus` unifies
all of them behind one topic-based API so that the awareness framework's
probes and observers (paper Sect. 4.1, Fig. 2) attach to *topics*, not to
concrete objects, and so that many SUOs can share one kernel (the
:class:`~repro.runtime.fleet.MonitorFleet` workload).

Design constraints, in order:

* **Zero cost when silent.**  ``publish`` on a topic with no subscribers
  is one dict lookup and a falsy check; emitters may also hold a
  :meth:`EventBus.publisher` handle that skips even the lookup while the
  topic stays silent.
* **Safe mutation during dispatch.**  Subscriber lists are copy-on-write
  tuples: a callback may subscribe/unsubscribe anything (including
  itself) while being dispatched; the in-flight publish keeps iterating
  the snapshot it started with.
* **Deterministic order.**  Subscribers run in subscription order;
  wildcard subscribers run after exact ones, shortest prefix first.

Topics are dot-separated strings (``"suo.tv-7.output"``).  A trailing
``".*"`` subscribes to a whole namespace: ``"suo.tv-7.*"`` receives every
topic that starts with ``"suo.tv-7."``.

Dispatch is driven by a **compiled dispatch table**: the first publish on
a concrete topic resolves it once — exact subscribers plus every matching
wildcard, pre-folded into one flat handler tuple — and caches the result
in a topic→tuple table.  Subsequent publishes are a single dict lookup
regardless of how many wildcard namespaces exist; the table is
invalidated wholesale whenever a (un)subscribe bumps :attr:`version`.
Before this table, every publish under N ``suo.<id>.*`` subscribers paid
an O(N) prefix scan — the dominant dispatch cost at fleet scale.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Handler = Callable[[str, Any], None]

_EMPTY: Tuple[Handler, ...] = ()


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; ``cancel()`` detaches."""

    __slots__ = ("bus", "topic", "handler", "active")

    def __init__(self, bus: "EventBus", topic: str, handler: Handler) -> None:
        self.bus = bus
        self.topic = topic
        self.handler = handler
        self.active = True

    def cancel(self) -> None:
        if self.active:
            self.active = False
            self.bus.unsubscribe(self.topic, self.handler)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "cancelled"
        return f"<Subscription {self.topic!r} ({state})>"


class EventBus:
    """Topic-based publish/subscribe with copy-on-write subscriber lists."""

    __slots__ = ("_exact", "_wild", "_wild_order", "_compiled", "version")

    def __init__(self) -> None:
        #: topic -> tuple of handlers (replaced wholesale on change)
        self._exact: Dict[str, Tuple[Handler, ...]] = {}
        #: namespace prefix (without the ``*``) -> tuple of handlers
        self._wild: Dict[str, Tuple[Handler, ...]] = {}
        #: sorted wildcard prefixes, rebuilt on (un)subscribe so publish
        #: never sorts
        self._wild_order: Tuple[str, ...] = ()
        #: compiled dispatch table: concrete topic -> flat handler tuple
        #: (exact + matching wildcards, dispatch order), built lazily on
        #: first publish and cleared wholesale on every (un)subscribe
        self._compiled: Dict[str, Tuple[Handler, ...]] = {}
        #: bumped on every (un)subscribe; lets emitters cache snapshots
        self.version = 0

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(self, topic: str, handler: Handler) -> Subscription:
        """Attach ``handler(topic, event)`` to ``topic``.

        ``topic`` may end in ``".*"`` to subscribe to every topic in a
        namespace.  Returns a :class:`Subscription` whose ``cancel()``
        detaches exactly this registration.
        """
        table, key = self._resolve(topic)
        table[key] = table.get(key, _EMPTY) + (handler,)
        if table is self._wild:
            self._wild_order = tuple(sorted(self._wild))
        self._compiled.clear()
        self.version += 1
        return Subscription(self, topic, handler)

    def unsubscribe(self, topic: str, handler: Handler) -> bool:
        """Detach the first matching registration; True if one was found."""
        table, key = self._resolve(topic)
        handlers = table.get(key, _EMPTY)
        if handler not in handlers:
            return False
        index = handlers.index(handler)
        remaining = handlers[:index] + handlers[index + 1:]
        if remaining:
            table[key] = remaining
        else:
            del table[key]
        if table is self._wild:
            self._wild_order = tuple(sorted(self._wild))
        self._compiled.clear()
        self.version += 1
        return True

    def _resolve(
        self, topic: str
    ) -> Tuple[Dict[str, Tuple[Handler, ...]], str]:
        if topic.endswith(".*"):
            return self._wild, topic[:-1]  # keep the trailing dot
        return self._exact, topic

    # ------------------------------------------------------------------
    # compiled dispatch table
    # ------------------------------------------------------------------
    def _compile(self, topic: str) -> Tuple[Handler, ...]:
        """Resolve ``topic`` once into its flat dispatch tuple and cache it.

        Exact subscribers first (subscription order), then every matching
        wildcard namespace, shortest prefix first — exactly the order the
        per-publish walk used to produce.
        """
        handlers = self._exact.get(topic, _EMPTY)
        for prefix in self._wild_order:
            if topic.startswith(prefix):
                handlers += self._wild[prefix]
        self._compiled[topic] = handlers
        return handlers

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(self, topic: str, event: Any = None) -> int:
        """Deliver ``event`` to every subscriber of ``topic``.

        Returns the number of handlers invoked.  The steady-state cost is
        one dict lookup into the compiled table (empty or not); a topic
        publishes through the slow resolve path only on its first publish
        after a subscription change.  The handler snapshot is immutable
        and taken *before* any handler runs, so callbacks may
        (un)subscribe anything — including other namespaces — mid-publish.
        """
        handlers = self._compiled.get(topic)
        if handlers is None:
            handlers = self._compile(topic)
        for handler in handlers:
            handler(topic, event)
        return len(handlers)

    def listeners(self, topic: str) -> Tuple[Handler, ...]:
        """The current *exact*-subscriber snapshot for a topic.

        Wildcard subscribers are not included; most emitters want
        :meth:`snapshot` or :meth:`publisher` instead.
        """
        return self._exact.get(topic, _EMPTY)

    def snapshot(self, topic: str) -> Tuple[Handler, ...]:
        """Every current subscriber of ``topic``, wildcards folded in.

        Hot-path emitters (the kernel's dispatch loop) cache this tuple
        and refresh it when :attr:`version` changes; the tuple is
        immutable, so holding it across callbacks is safe.  Served from
        the compiled dispatch table (one dict lookup when warm).
        """
        handlers = self._compiled.get(topic)
        if handlers is None:
            handlers = self._compile(topic)
        return handlers

    def publisher(self, topic: str) -> Callable[[Any], int]:
        """A bound fast emitter for one topic.

        The handle re-resolves its compiled handler tuple only when the
        bus version changes, so a silent topic costs one int compare per
        emit.  Wildcard subscribers are folded into the tuple.
        """
        state: List[Any] = [-1, _EMPTY]
        compiled = self._compiled

        def emit(event: Any = None) -> int:
            if state[0] != self.version:
                state[0] = self.version
                handlers = compiled.get(topic)
                if handlers is None:
                    handlers = self._compile(topic)
                state[1] = handlers
            handlers = state[1]
            for handler in handlers:
                handler(topic, event)
            return len(handlers)

        return emit

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def has_subscribers(self, topic: str) -> bool:
        """True if a publish on ``topic`` would reach anyone.

        O(1) when warm: served from the same compiled table publishes
        use, instead of the linear scan over every wildcard namespace
        this used to cost per call.
        """
        handlers = self._compiled.get(topic)
        if handlers is None:
            handlers = self._compile(topic)
        return bool(handlers)

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Subscribers of one topic, or of the whole bus when None."""
        if topic is not None:
            handlers = self._compiled.get(topic)
            if handlers is None:
                handlers = self._compile(topic)
            return len(handlers)
        return sum(len(h) for h in self._exact.values()) + sum(
            len(h) for h in self._wild.values()
        )

    def topics(self) -> Iterator[str]:
        """Every topic/namespace that currently has subscribers."""
        yield from self._exact
        for prefix in self._wild:
            yield prefix + "*"
