"""Tests for generator-based processes, signals, and interrupts."""


import pytest

from repro.sim import (
    Delay, Interrupted, Kernel, Process, Resource, Signal, SimulationError,
    WaitSignal,
)


def test_process_runs_and_finishes():
    kernel = Kernel()

    def body():
        yield Delay(1.0)
        yield Delay(2.0)
        return "done"

    process = Process(kernel, body(), name="worker")
    kernel.run()
    assert not process.alive
    assert process.result == "done"
    assert kernel.now == 3.0


def test_delays_accumulate_sequentially():
    kernel = Kernel()
    timestamps = []

    def body():
        for _ in range(3):
            yield Delay(1.5)
            timestamps.append(kernel.now)

    Process(kernel, body())
    kernel.run()
    assert timestamps == [1.5, 3.0, 4.5]


def test_signal_wakes_waiter_with_value():
    kernel = Kernel()
    signal = Signal("go")
    received = []

    def waiter():
        value = yield WaitSignal(signal)
        received.append(value)

    Process(kernel, waiter())
    kernel.schedule(2.0, lambda: signal.fire(42))
    kernel.run()
    assert received == [42]


def test_signal_wakes_all_waiters():
    kernel = Kernel()
    signal = Signal()
    woken = []

    def waiter(name):
        yield WaitSignal(signal)
        woken.append(name)

    Process(kernel, waiter("a"))
    Process(kernel, waiter("b"))
    kernel.schedule(1.0, lambda: signal.fire())
    kernel.run()
    assert sorted(woken) == ["a", "b"]
    assert signal.fire_count == 1


def test_waiting_on_finished_process_resumes_immediately():
    kernel = Kernel()
    order = []

    def quick():
        yield Delay(1.0)
        order.append("quick-done")
        return "result"

    quick_process = Process(kernel, quick())

    def joiner():
        value = yield quick_process
        order.append(f"joined:{value}")

    Process(kernel, joiner())
    kernel.run()
    assert order == ["quick-done", "joined:result"]


def test_interrupt_lands_at_wait_point():
    kernel = Kernel()
    outcome = []

    def body():
        try:
            yield Delay(100.0)
        except Interrupted as interrupt:
            outcome.append(interrupt.reason)

    process = Process(kernel, body())
    kernel.schedule(1.0, lambda: process.interrupt("killed-by-test"))
    kernel.run()
    assert outcome == ["killed-by-test"]
    assert not process.alive


def test_kill_terminates_uncooperative_process():
    kernel = Kernel()

    def stubborn():
        while True:
            try:
                yield Delay(1.0)
            except Interrupted:
                continue  # swallows interrupts

    process = Process(kernel, stubborn())
    kernel.run(until=2.0)
    process.kill("forced")
    assert not process.alive
    assert isinstance(process.exception, Interrupted)


def test_exception_in_process_recorded():
    kernel = Kernel()

    def crasher():
        yield Delay(1.0)
        raise ValueError("simulated software fault")

    process = Process(kernel, crasher())
    kernel.run()
    assert not process.alive
    assert isinstance(process.exception, ValueError)


def test_on_exit_callback_invoked():
    kernel = Kernel()
    exits = []

    def body():
        yield Delay(1.0)

    Process(kernel, body(), on_exit=lambda p: exits.append(p.name), name="observed")
    kernel.run()
    assert exits == ["observed"]


def test_interrupt_dead_process_is_noop():
    kernel = Kernel()

    def body():
        yield Delay(1.0)

    process = Process(kernel, body())
    kernel.run()
    process.interrupt("late")  # must not raise
    assert not process.alive


def test_interrupted_while_waiting_on_signal_removed_from_waiters():
    kernel = Kernel()
    signal = Signal()

    def waiter():
        yield WaitSignal(signal)

    process = Process(kernel, waiter())
    kernel.run(until=1.0)
    process.kill("gone")
    assert signal.fire() == 0  # no waiters left


# ----------------------------------------------------------------------
# Kernel.close: the end of a simulation
# ----------------------------------------------------------------------
def _sleeper(kernel, log, name):
    def body():
        try:
            yield Delay(100.0)
        finally:
            log.append(name)

    return Process(kernel, body(), name=name)


def test_kernel_tracks_live_processes_only():
    kernel = Kernel()

    def short():
        yield Delay(1.0)

    done = Process(kernel, short(), name="short")
    killed = _sleeper(kernel, [], "killed")
    running = _sleeper(kernel, [], "running")
    kernel.run(until=2.0)
    killed.kill()
    assert not done.alive and not killed.alive
    assert list(kernel._processes) == [running]


def test_close_runs_finally_blocks_and_discards_what_they_schedule():
    kernel = Kernel()
    fired = []

    def body():
        try:
            yield Delay(100.0)
        finally:
            kernel.schedule(0.0, lambda: fired.append("late"))

    process = Process(kernel, body(), name="worker")
    kernel.run(until=1.0)
    kernel.close()
    assert not process.alive
    assert kernel.pending_count() == 0 and kernel.queue_size() == 0
    kernel.run()
    assert fired == []


def test_close_does_not_resume_a_waiter_released_in_a_finally():
    """A closing holder's ``finally:`` releases the resource; the
    waiter queued behind it is being closed too and must not run."""
    kernel = Kernel()
    core = Resource(kernel, capacity=1, name="core")
    steps = []

    def holder():
        yield core.acquire()
        try:
            yield Delay(100.0)
        finally:
            core.release()

    def waiter():
        yield core.acquire()
        steps.append("granted")

    Process(kernel, holder(), name="holder")
    blocked = Process(kernel, waiter(), name="waiter")
    kernel.run(until=1.0)
    assert core.queue_length() == 1
    kernel.close()
    assert steps == []
    assert not blocked.alive and core.in_use == 0


def test_close_fires_neither_on_exit_nor_exit_watchers():
    kernel = Kernel()
    exits, watched = [], []

    def sleeper():
        yield Delay(100.0)

    target = Process(kernel, sleeper(), name="target", on_exit=exits.append)

    def watcher():
        watched.append((yield target))

    Process(kernel, watcher(), name="watcher")
    kernel.run(until=1.0)
    kernel.close()
    assert exits == [] and watched == []
    assert target.result is None and target.exception is None


def test_close_names_a_process_that_ignores_generator_exit():
    kernel = Kernel()
    log = []

    def stubborn():
        try:
            yield Delay(1.0)
        except GeneratorExit:
            pass
        yield Delay(1.0)  # ignores one close; a second one ends it

    Process(kernel, stubborn(), name="stubborn")
    _sleeper(kernel, log, "polite")
    kernel.run(until=0.5)
    with pytest.raises(SimulationError, match="stubborn"):
        kernel.close()
    assert log == ["polite"]  # the others were still closed
    assert kernel.pending_count() == 0


def test_close_is_idempotent():
    kernel = Kernel()
    log = []
    _sleeper(kernel, log, "worker")
    kernel.run(until=1.0)
    kernel.close()
    kernel.close()
    assert log == ["worker"]
    assert kernel.pending_count() == 0
