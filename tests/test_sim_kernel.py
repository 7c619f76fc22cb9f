"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import DISPATCH_TOPIC, Kernel, SimulationError


def test_initial_time_is_zero():
    kernel = Kernel()
    assert kernel.now == 0.0


def test_schedule_and_run_advances_clock():
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == [5.0]
    assert kernel.now == 5.0


def test_events_dispatch_in_time_order():
    kernel = Kernel()
    order = []
    kernel.schedule(3.0, lambda: order.append("c"))
    kernel.schedule(1.0, lambda: order.append("a"))
    kernel.schedule(2.0, lambda: order.append("b"))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_equal_time_ties_broken_by_priority_then_insertion():
    kernel = Kernel()
    order = []
    kernel.schedule(1.0, lambda: order.append("low"), priority=5)
    kernel.schedule(1.0, lambda: order.append("high"), priority=-5)
    kernel.schedule(1.0, lambda: order.append("mid_first"), priority=0)
    kernel.schedule(1.0, lambda: order.append("mid_second"), priority=0)
    kernel.run()
    assert order == ["high", "mid_first", "mid_second", "low"]


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.schedule(-1.0, lambda: None)


def test_run_until_stops_before_later_events():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, lambda: fired.append(1))
    kernel.schedule(10.0, lambda: fired.append(10))
    kernel.run(until=5.0)
    assert fired == [1]
    assert kernel.now == 5.0  # clock advanced to the until bound
    kernel.run()
    assert fired == [1, 10]


def test_run_until_is_inclusive_of_events_at_bound():
    kernel = Kernel()
    fired = []
    kernel.schedule(5.0, lambda: fired.append("at"))
    kernel.run(until=5.0)
    assert fired == ["at"]


def test_cancelled_event_does_not_fire():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, lambda: fired.append("x"))
    event.cancel()
    kernel.run()
    assert fired == []


def test_schedule_at_absolute_time():
    kernel = Kernel()
    fired = []
    kernel.schedule(2.0, lambda: kernel.schedule_at(7.0, lambda: fired.append(kernel.now)))
    kernel.run()
    assert fired == [7.0]


def test_events_scheduled_during_dispatch_run_same_pass():
    kernel = Kernel()
    order = []

    def first():
        order.append("first")
        kernel.schedule(0.0, lambda: order.append("nested"))

    kernel.schedule(1.0, first)
    kernel.run()
    assert order == ["first", "nested"]


def test_max_events_bound():
    kernel = Kernel()
    for i in range(10):
        kernel.schedule(float(i + 1), lambda: None)
    dispatched = kernel.run(max_events=4)
    assert dispatched == 4
    assert kernel.pending_count() == 6


def test_step_returns_false_on_empty_queue():
    kernel = Kernel()
    assert kernel.step() is False


def test_peek_time_skips_cancelled():
    kernel = Kernel()
    event = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    event.cancel()
    assert kernel.peek_time() == 2.0


def test_dispatch_hook_sees_every_event():
    kernel = Kernel()
    seen = []
    kernel.bus.subscribe(DISPATCH_TOPIC, lambda _topic, event: seen.append(event.time))
    kernel.schedule(1.0, lambda: None, name="a")
    kernel.schedule(2.0, lambda: None, name="b")
    kernel.run()
    assert seen == [1.0, 2.0]


def test_dispatched_count_accumulates():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.run()
    assert kernel.dispatched_count == 2


def test_zero_delay_event_fires_at_current_time():
    kernel = Kernel()
    times = []
    kernel.schedule(5.0, lambda: kernel.schedule(0.0, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [5.0]


# ----------------------------------------------------------------------
# lazy-deletion debt and heap compaction (fleet-scale memory bound)
# ----------------------------------------------------------------------
def test_cancelled_events_do_not_accumulate_in_the_heap():
    """Regression: the seed kernel never removed cancelled events, so a
    long campaign that schedules-and-cancels (transient overlay timers,
    watchdogs) grew the queue without bound.  Compaction must keep the
    raw heap size within a constant factor of the live event count."""
    kernel = Kernel()
    kernel.schedule(1e9, lambda: None)  # one live far-future event
    max_queue = 0
    for round_ in range(200):
        events = [kernel.schedule(1e6 + round_, lambda: None) for _ in range(100)]
        for event in events:
            event.cancel()
        max_queue = max(max_queue, kernel.queue_size())
    # 20k cancellations happened; the heap must stay small and exact
    assert max_queue < 1000
    assert kernel.pending_count() == 1
    assert kernel.compactions > 0
    kernel.run(until=2e9)
    assert kernel.dispatched_count == 1


def test_compaction_preserves_dispatch_order():
    kernel = Kernel()
    order = []
    keep = []
    for i in range(50):
        keep.append(kernel.schedule(float(i + 1), lambda i=i: order.append(i)))
    doomed = [kernel.schedule(0.5, lambda: order.append("doomed")) for _ in range(500)]
    for event in doomed:
        event.cancel()  # crosses the debt threshold -> compacts
    assert kernel.compactions > 0
    kernel.run()
    assert order == list(range(50))


def test_pending_count_is_exact_under_cancellation():
    kernel = Kernel()
    events = [kernel.schedule(float(i + 1), lambda: None) for i in range(10)]
    events[3].cancel()
    events[7].cancel()
    events[7].cancel()  # double-cancel must not double-count
    assert kernel.pending_count() == 8
    assert kernel.cancelled_debt == 2
    kernel.run()
    assert kernel.dispatched_count == 8
    assert kernel.pending_count() == 0


def test_cancel_after_dispatch_is_harmless():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, lambda: fired.append(1))
    kernel.run()
    event.cancel()  # already dispatched; must not corrupt the debt
    assert fired == [1]
    assert kernel.pending_count() == 0
    assert kernel.cancelled_debt == 0


def test_peek_time_is_exact_with_cancelled_head():
    kernel = Kernel()
    first = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    first.cancel()
    assert kernel.peek_time() == 2.0
    assert kernel.pending_count() == 1


def test_batched_dispatch_keeps_same_timestamp_order_with_nesting():
    """Events scheduled *during* a same-timestamp batch merge into it in
    (priority, seq) order, exactly as one-at-a-time stepping would."""
    kernel = Kernel()
    order = []

    def first():
        order.append("first")
        kernel.schedule(0.0, lambda: order.append("nested-late"), priority=5)
        kernel.schedule(0.0, lambda: order.append("nested-soon"), priority=-5)

    kernel.schedule(1.0, first)
    kernel.schedule(1.0, lambda: order.append("second"))
    kernel.run()
    assert order == ["first", "nested-soon", "second", "nested-late"]


def test_callback_may_cancel_later_event_in_same_batch():
    kernel = Kernel()
    order = []
    victim = kernel.schedule(1.0, lambda: order.append("victim"), priority=1)
    kernel.schedule(1.0, lambda: victim.cancel(), priority=0)
    kernel.run()
    assert order == []
    assert kernel.pending_count() == 0


def test_run_with_max_events_zero_dispatches_nothing():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    assert kernel.run(max_events=0) == 0
    assert kernel.pending_count() == 1


def test_schedule_at_fires_at_exact_absolute_time():
    """schedule_at must not round-trip through now + (t - now): after the
    clock has advanced, that sum can land an ulp *before* t and reorder
    callers that rely on monotone absolute deadlines (regression for the
    MessageChannel FIFO fuzz failure)."""
    kernel = Kernel()
    deadline = 1.8  # not exactly representable relative to now=0.4
    fired_at = []
    kernel.schedule(0.4, lambda: None)
    kernel.run()
    assert kernel.now == 0.4
    event = kernel.schedule_at(deadline, lambda: fired_at.append(kernel.now))
    assert event.time == deadline
    kernel.run()
    assert fired_at == [deadline]


def test_schedule_at_rejects_the_past():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.schedule_at(0.5, lambda: None)


# ----------------------------------------------------------------------
# transient events and the freelist (the dispatch hot-path overhaul)
# ----------------------------------------------------------------------
def test_transient_event_is_recycled_and_reused():
    kernel = Kernel()
    fired = []
    first = kernel.schedule(1.0, lambda: fired.append("a"), transient=True)
    kernel.run()
    assert fired == ["a"]
    assert first in kernel._free
    # The next transient schedule must reuse the recycled object.
    second = kernel.schedule(1.0, lambda: fired.append("b"), transient=True)
    assert second is first
    kernel.run()
    assert fired == ["a", "b"]


def test_non_transient_events_are_never_recycled():
    kernel = Kernel()
    event = kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert event not in kernel._free
    assert kernel._free == []


def test_cancelled_transient_event_is_recycled_without_firing():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, lambda: fired.append("x"), transient=True)
    kernel.schedule(2.0, lambda: fired.append("y"))
    event.cancel()
    kernel.run()
    assert fired == ["y"]
    assert event in kernel._free


def test_recycled_event_drops_its_callback_closure():
    kernel = Kernel()
    payload = []
    event = kernel.schedule(1.0, lambda: payload.append(1), transient=True)
    original = event.callback
    kernel.run()
    assert event.callback is not original  # closure released for the GC


def test_freelist_is_bounded_by_the_cap():
    from repro.sim.kernel import FREELIST_CAP

    kernel = Kernel()
    for i in range(FREELIST_CAP + 50):
        kernel.schedule(float(i) * 0.001, lambda: None, transient=True)
    kernel.run()
    assert len(kernel._free) <= FREELIST_CAP


def test_transient_recycling_is_disabled_while_dispatch_hooks_attached():
    """Dispatch hooks (trace recorders) receive the Event object itself,
    so a hooked kernel must not reuse it out from under them."""
    from repro.sim import DISPATCH_TOPIC

    kernel = Kernel()
    seen = []
    kernel.bus.subscribe(DISPATCH_TOPIC, lambda _t, e: seen.append(e))
    event = kernel.schedule(1.0, lambda: None, transient=True)
    kernel.run()
    assert seen and seen[0] is event
    assert event not in kernel._free


def test_transient_and_normal_events_keep_dispatch_order():
    kernel = Kernel()
    order = []
    kernel.schedule(2.0, lambda: order.append("late"), transient=True)
    kernel.schedule(1.0, lambda: order.append("early"))
    kernel.schedule(1.0, lambda: order.append("early2"), transient=True)
    kernel.run()
    assert order == ["early", "early2", "late"]


def test_transient_reschedule_from_its_own_callback():
    """The self-rescheduling periodic pattern: the callback schedules the
    next tick while its (recycled) event is being dispatched."""
    kernel = Kernel()
    ticks = []

    def tick():
        ticks.append(kernel.now)
        if len(ticks) < 4:
            kernel.schedule(1.0, tick, name="tick", transient=True)

    kernel.schedule(1.0, tick, name="tick", transient=True)
    kernel.run()
    assert ticks == [1.0, 2.0, 3.0, 4.0]
    # Steady state reuses one Event object rather than allocating four.
    assert len(kernel._free) == 1
