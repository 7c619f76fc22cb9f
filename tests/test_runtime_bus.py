"""Tests for the runtime EventBus.

The bus is the one publish/subscribe plane under the whole stack, so its
contract matters: topic isolation, deterministic order, safe mutation
during dispatch, wildcard namespaces, and a genuinely cheap silent path.
"""

from repro.runtime import EventBus
from repro.sim import DISPATCH_TOPIC, Kernel


# ----------------------------------------------------------------------
# basic delivery and topic isolation
# ----------------------------------------------------------------------
def test_publish_reaches_only_matching_topic():
    bus = EventBus()
    seen_a, seen_b = [], []
    bus.subscribe("a", lambda t, e: seen_a.append(e))
    bus.subscribe("b", lambda t, e: seen_b.append(e))
    bus.publish("a", 1)
    bus.publish("b", 2)
    bus.publish("c", 3)  # nobody listening
    assert seen_a == [1]
    assert seen_b == [2]


def test_publish_returns_delivery_count():
    bus = EventBus()
    bus.subscribe("t", lambda t, e: None)
    bus.subscribe("t", lambda t, e: None)
    assert bus.publish("t", None) == 2
    assert bus.publish("silent", None) == 0


def test_subscribers_run_in_subscription_order():
    bus = EventBus()
    order = []
    bus.subscribe("t", lambda t, e: order.append("first"))
    bus.subscribe("t", lambda t, e: order.append("second"))
    bus.subscribe("t", lambda t, e: order.append("third"))
    bus.publish("t", None)
    assert order == ["first", "second", "third"]


def test_unsubscribe_removes_only_one_registration():
    bus = EventBus()
    seen = []
    handler = lambda t, e: seen.append(e)  # noqa: E731
    bus.subscribe("t", handler)
    bus.subscribe("t", handler)
    bus.publish("t", 1)
    assert bus.unsubscribe("t", handler)
    bus.publish("t", 2)
    assert seen == [1, 1, 2]
    assert not bus.unsubscribe("t", lambda t, e: None)  # unknown handler


def test_subscription_cancel_is_idempotent():
    bus = EventBus()
    seen = []
    sub = bus.subscribe("t", lambda t, e: seen.append(e))
    sub.cancel()
    sub.cancel()
    bus.publish("t", 1)
    assert seen == []
    assert not bus.has_subscribers("t")


# ----------------------------------------------------------------------
# mutation during dispatch
# ----------------------------------------------------------------------
def test_subscribe_during_dispatch_does_not_affect_inflight_publish():
    bus = EventBus()
    seen = []

    def first(topic, event):
        seen.append("first")
        bus.subscribe("t", lambda t, e: seen.append("late"))

    bus.subscribe("t", first)
    bus.publish("t", None)
    assert seen == ["first"]  # late subscriber missed the in-flight event
    bus.publish("t", None)
    assert seen == ["first", "first", "late"]


def test_unsubscribe_self_during_dispatch():
    bus = EventBus()
    seen = []

    def once(topic, event):
        seen.append(event)
        sub.cancel()

    sub = bus.subscribe("t", once)
    bus.subscribe("t", lambda t, e: seen.append(("other", e)))
    bus.publish("t", 1)
    bus.publish("t", 2)
    # `once` saw only the first event; the other subscriber saw both,
    # and the in-flight dispatch was not disturbed by the removal.
    assert seen == [1, ("other", 1), ("other", 2)]


def test_unsubscribe_later_handler_during_dispatch_still_delivers_snapshot():
    bus = EventBus()
    seen = []

    def killer(topic, event):
        seen.append("killer")
        bus.unsubscribe("t", victim)

    def victim(topic, event):
        seen.append("victim")

    bus.subscribe("t", killer)
    bus.subscribe("t", victim)
    bus.publish("t", None)
    # copy-on-write: the snapshot taken at publish time still includes
    # the victim; it is gone from the next publish.
    assert seen == ["killer", "victim"]
    bus.publish("t", None)
    assert seen == ["killer", "victim", "killer"]


# ----------------------------------------------------------------------
# wildcards
# ----------------------------------------------------------------------
def test_wildcard_receives_whole_namespace():
    bus = EventBus()
    seen = []
    bus.subscribe("suo.*", lambda t, e: seen.append((t, e)))
    bus.publish("suo.tv-1.output", "x")
    bus.publish("suo.tv-2.input", "y")
    bus.publish("other.topic", "z")
    assert seen == [("suo.tv-1.output", "x"), ("suo.tv-2.input", "y")]


def test_wildcard_runs_after_exact_and_counts():
    bus = EventBus()
    order = []
    bus.subscribe("a.b", lambda t, e: order.append("exact"))
    bus.subscribe("a.*", lambda t, e: order.append("wild"))
    assert bus.publish("a.b", None) == 2
    assert order == ["exact", "wild"]
    assert bus.subscriber_count("a.b") == 2
    assert bus.has_subscribers("a.anything")


def test_publisher_handle_tracks_subscription_changes():
    bus = EventBus()
    emit = bus.publisher("hot.topic")
    assert emit("nobody") == 0
    seen = []
    sub = bus.subscribe("hot.topic", lambda t, e: seen.append(e))
    assert emit("one") == 1
    sub.cancel()
    assert emit("zero") == 0
    assert seen == ["one"]


# ----------------------------------------------------------------------
# kernel integration
# ----------------------------------------------------------------------
def test_kernel_dispatch_topic_carries_events():
    kernel = Kernel()
    seen = []
    kernel.bus.subscribe(DISPATCH_TOPIC, lambda t, e: seen.append(e.name))
    kernel.schedule(1.0, lambda: None, name="a")
    kernel.schedule(2.0, lambda: None, name="b")
    kernel.run()
    assert seen == ["a", "b"]


# ----------------------------------------------------------------------
# review regressions
# ----------------------------------------------------------------------
def test_kernel_dispatch_reaches_wildcard_subscribers():
    """Regression: the dispatch fast path must honor `kernel.*` wildcard
    subscriptions, via both run() and step()."""
    kernel = Kernel()
    seen = []
    kernel.bus.subscribe("kernel.*", lambda t, e: seen.append(e.name))
    kernel.schedule(1.0, lambda: None, name="a")
    kernel.schedule(2.0, lambda: None, name="b")
    kernel.run()
    kernel.schedule(1.0, lambda: None, name="c")
    kernel.step()
    assert seen == ["a", "b", "c"]


def test_dispatch_hook_added_mid_run_takes_effect():
    kernel = Kernel()
    seen = []

    def attach():
        kernel.bus.subscribe(DISPATCH_TOPIC, lambda t, e: seen.append(e.name))

    kernel.schedule(1.0, attach, name="attach")
    kernel.schedule(2.0, lambda: None, name="later")
    kernel.run()
    assert seen == ["later"]


def test_bus_snapshot_folds_exact_and_wildcard():
    bus = EventBus()
    exact = lambda t, e: None  # noqa: E731
    wild = lambda t, e: None  # noqa: E731
    bus.subscribe("a.b", exact)
    bus.subscribe("a.*", wild)
    assert bus.snapshot("a.b") == (exact, wild)
    assert bus.snapshot("a.c") == (wild,)
    assert bus.snapshot("z") == ()


def test_unsubscribing_another_wildcard_namespace_mid_publish_is_safe():
    """Regression: the wildcard dispatch path read self._wild live, so a
    handler cancelling a *different* namespace mid-publish raised
    KeyError and killed the simulation."""
    bus = EventBus()
    seen = []

    def outer(topic, event):
        seen.append("outer")
        inner_sub.cancel()

    bus.subscribe("a.*", outer)
    inner_sub = bus.subscribe("a.b.*", lambda t, e: seen.append("inner"))
    bus.publish("a.b.x", None)
    # the in-flight publish keeps its snapshot: both handlers fired
    assert seen == ["outer", "inner"]
    bus.publish("a.b.x", None)
    assert seen == ["outer", "inner", "outer"]


def test_trace_double_subscribe_of_same_callback_fully_detaches():
    """Regression: a second identical registration orphaned the first,
    leaking deliveries forever; registrations stack and detach one by
    one."""
    from repro.sim import Trace

    trace = Trace()
    seen = []
    cb = lambda record: seen.append(record.kind)  # noqa: E731
    trace.subscribe(cb)
    trace.subscribe(cb)
    trace.emit("s", "k")
    assert seen == ["k", "k"]
    trace.unsubscribe(cb)
    trace.emit("s", "k")
    assert seen == ["k", "k", "k"]
    trace.unsubscribe(cb)
    trace.emit("s", "k")
    assert seen == ["k", "k", "k"]
    trace.unsubscribe(cb)  # extra unsubscribe is a no-op


# ----------------------------------------------------------------------
# compiled dispatch tables under mutation (the hot-path overhaul)
# ----------------------------------------------------------------------
def test_wildcard_added_after_publisher_handle_is_cached():
    """A publisher() handle caches the compiled tuple against the bus
    version; a wildcard subscribed afterwards must still reach it."""
    bus = EventBus()
    seen = []
    emit = bus.publisher("suo.7.fault")
    bus.subscribe("suo.7.fault", lambda t, e: seen.append(("exact", e)))
    assert emit(1) == 1  # handle now holds a compiled table
    bus.subscribe("suo.*", lambda t, e: seen.append(("wild", e)))
    assert emit(2) == 2
    assert seen == [("exact", 1), ("exact", 2), ("wild", 2)]


def test_publisher_handle_sees_cancel_between_emits():
    bus = EventBus()
    seen = []
    sub = bus.subscribe("a", lambda t, e: seen.append(e))
    emit = bus.publisher("a")
    assert emit(1) == 1
    sub.cancel()
    assert emit(2) == 0
    assert seen == [1]
    assert not bus.has_subscribers("a")


def test_cancel_other_subscription_mid_publish_recompiles_table():
    bus = EventBus()
    seen = []
    holder = {}

    def first(topic, event):
        seen.append(("first", event))
        holder["sub"].cancel()

    holder["sub"] = bus.subscribe("a", lambda t, e: seen.append(("second", e)))
    bus.subscribe("a", first)
    # In-flight publish still delivers to the snapshot taken at entry...
    assert bus.publish("a", 1) == 2
    # ...but the recompiled table drops the cancelled handler after.
    assert bus.publish("a", 2) == 1
    assert seen == [("second", 1), ("first", 1), ("first", 2)]
    assert bus.subscriber_count("a") == 1


def test_subscribe_mid_publish_keeps_counts_consistent():
    bus = EventBus()
    seen = []

    def grower(topic, event):
        seen.append(event)
        if event == 1:
            bus.subscribe("g", lambda t, e: seen.append(("late", e)))

    bus.subscribe("g", grower)
    assert bus.publish("g", 1) == 1       # late subscriber not in-flight
    assert bus.subscriber_count("g") == 2
    assert bus.publish("g", 2) == 2
    assert seen == [1, ("late", 2), 2] or seen == [1, 2, ("late", 2)]


def test_resubscribe_same_handler_after_cancel_delivers_again():
    bus = EventBus()
    seen = []

    def handler(topic, event):
        seen.append(event)

    sub = bus.subscribe("r", handler)
    bus.publish("r", 1)
    sub.cancel()
    bus.publish("r", 2)  # silent: compiled table is empty
    assert not bus.has_subscribers("r")
    bus.subscribe("r", handler)  # same function object again
    assert bus.has_subscribers("r")
    assert bus.publish("r", 3) == 1
    assert seen == [1, 3]


def test_unsubscribe_mid_publish_via_wildcard_keeps_o1_views_exact():
    bus = EventBus()
    seen = []
    wild = bus.subscribe("ns.*", lambda t, e: seen.append(("wild", t)))

    def exact(topic, event):
        seen.append(("exact", topic))
        wild.cancel()

    bus.subscribe("ns.x", exact)
    assert bus.publish("ns.x", None) == 2  # snapshot at entry
    assert bus.subscriber_count("ns.x") == 1
    assert bus.has_subscribers("ns.x")
    assert bus.publish("ns.x", None) == 1
    assert seen == [("exact", "ns.x"), ("wild", "ns.x"), ("exact", "ns.x")]
