"""Tests for contended resources and stores."""

import pytest

from repro.sim import (
    Delay, Interrupted, Kernel, Process, Resource, SimulationError, Store,
)


def _holder(kernel, resource, held, hold_time=2.0, priority=0):
    def body():
        yield resource.acquire(priority)
        held.append(kernel.now)
        yield Delay(hold_time)
        resource.release()

    return Process(kernel, body())


def test_resource_grants_up_to_capacity():
    kernel = Kernel()
    resource = Resource(kernel, capacity=2)
    grants = []
    for _ in range(3):
        _holder(kernel, resource, grants)
    kernel.run()
    # two start immediately at t=0, third waits for a release at t=2
    assert grants == [0.0, 0.0, 2.0]


def test_fifo_order_within_priority():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    order = []

    def requester(name):
        def body():
            yield resource.acquire()
            order.append(name)
            yield Delay(1.0)
            resource.release()

        return body

    Process(kernel, requester("first")())
    Process(kernel, requester("second")())
    Process(kernel, requester("third")())
    kernel.run()
    assert order == ["first", "second", "third"]


def test_priority_preempts_queue_order():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    order = []

    def requester(name, priority, start):
        def body():
            yield Delay(start)
            yield resource.acquire(priority)
            order.append(name)
            yield Delay(5.0)
            resource.release()

        return Process(kernel, body())

    requester("holder", 0, 0.0)
    requester("low", 5, 1.0)
    requester("high", -5, 2.0)
    kernel.run()
    assert order == ["holder", "high", "low"]


def test_release_without_hold_raises():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_try_acquire_nonblocking():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    assert resource.try_acquire() is True
    assert resource.try_acquire() is False
    assert resource.stats.rejected == 1
    resource.release()
    assert resource.try_acquire() is True


def test_capacity_increase_unblocks_waiters():
    kernel = Kernel()
    resource = Resource(kernel, capacity=0)
    grants = []
    _holder(kernel, resource, grants)
    kernel.run(until=3.0)
    assert grants == []
    resource.set_capacity(1)
    kernel.run()
    assert grants == [3.0]


def test_capacity_reduction_not_preemptive():
    kernel = Kernel()
    resource = Resource(kernel, capacity=2)
    grants = []
    _holder(kernel, resource, grants, hold_time=4.0)
    _holder(kernel, resource, grants, hold_time=4.0)
    kernel.run(until=1.0)
    resource.set_capacity(1)
    assert resource.in_use == 2  # holders keep their units
    kernel.run()
    assert resource.in_use == 0


def test_wait_statistics():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    grants = []
    _holder(kernel, resource, grants, hold_time=3.0)
    _holder(kernel, resource, grants, hold_time=3.0)
    kernel.run()
    assert resource.stats.acquisitions == 2
    assert resource.stats.max_wait == 3.0
    assert resource.stats.mean_wait() == pytest.approx(1.5)


def test_utilization_metric():
    kernel = Kernel()
    resource = Resource(kernel, capacity=4)
    resource.try_acquire()
    resource.try_acquire()
    assert resource.utilization() == pytest.approx(0.5)


def test_store_put_get_fifo():
    kernel = Kernel()
    store = Store(kernel)
    received = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    Process(kernel, consumer())
    kernel.schedule(1.0, lambda: store.put("a"))
    kernel.schedule(2.0, lambda: store.put("b"))
    kernel.schedule(3.0, lambda: store.put("c"))
    kernel.run()
    assert received == ["a", "b", "c"]


def test_store_bounded_drops_when_full():
    kernel = Kernel()
    store = Store(kernel, capacity=2)
    assert store.put(1) is True
    assert store.put(2) is True
    assert store.put(3) is False
    assert store.drop_count == 1
    assert len(store) == 2


def test_store_try_get():
    kernel = Kernel()
    store = Store(kernel)
    assert store.try_get() is None
    store.put("x")
    assert store.try_get() == "x"


def test_store_clear_returns_discarded_count():
    kernel = Kernel()
    store = Store(kernel)
    store.put(1)
    store.put(2)
    assert store.clear() == 2
    assert len(store) == 0


def test_dead_waiter_skipped_on_grant():
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)
    grants = []
    blocker = _holder(kernel, resource, grants, hold_time=5.0)

    def doomed():
        yield resource.acquire()
        grants.append("doomed")
        resource.release()

    doomed_process = Process(kernel, doomed())
    kernel.run(until=1.0)
    doomed_process.kill("cancelled")
    _holder(kernel, resource, grants, hold_time=1.0)
    kernel.run()
    assert "doomed" not in grants
    assert len(grants) == 2  # blocker grant + second holder grant


def test_interrupted_waiter_leaves_the_resource_queue():
    """A waiter that survives an interrupt is no longer queued: the
    holder's release must not hand it a unit while it sleeps elsewhere."""
    kernel = Kernel()
    core = Resource(kernel, capacity=1, name="core")
    _holder(kernel, core, [], hold_time=10.0)
    woken = []

    def waiter():
        try:
            yield core.acquire()
        except Interrupted:
            value = yield Delay(20.0)
            woken.append((kernel.now, value))

    process = Process(kernel, waiter(), name="waiter")
    kernel.schedule(5.0, lambda: process.interrupt("test"))
    kernel.run(until=10.0)
    assert core.queue_length() == 0
    kernel.run()
    assert woken == [(25.0, None)]
    assert core.in_use == 0
    assert kernel.pending_count() == 0


def test_interrupted_getter_leaves_the_store_queue():
    kernel = Kernel()
    store = Store(kernel, name="queue")
    got = []

    def getter():
        try:
            yield store.get()
        except Interrupted:
            got.append((yield Delay(20.0)))

    process = Process(kernel, getter(), name="getter")
    kernel.schedule(5.0, lambda: process.interrupt("test"))
    kernel.schedule(10.0, lambda: store.put("frame"))
    kernel.run()
    assert got == [None]
    assert store.items == ["frame"]
    assert kernel.now == 25.0
