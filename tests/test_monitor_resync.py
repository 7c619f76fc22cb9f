"""Tests for the monitor restart re-sync handshake (ROADMAP item).

A monitor stopped mid-session misses inputs; before PR 3 a restarted
monitor replayed expectations from its stale model and false-alarmed on
the first post-restart interaction (monitor-churn showed 30-45%% false
alarm rates).  The handshake re-seeds the model executor — and the
output observer's last-seen values — from the SUO's current observable
state, and flushes in-flight channel datagrams so missed inputs are
neither replayed nor double-applied.
"""

import pytest

from repro.awareness.monitor import make_tv_monitor
from repro.campaign import Campaign
from repro.sim.kernel import Kernel
from repro.tv.control_model import build_tv_model
from repro.tv.tvset import TVSet


def _churned_tv(resync: bool):
    """One TV whose monitor misses inputs during a stop window."""
    kernel = Kernel()
    tv = TVSet(kernel=kernel, seed=5, suo_id="tv-0")
    monitor = make_tv_monitor(tv, name="tv-0.awareness")
    tv.press("power"); tv.run(3.0)
    tv.press("ch_up"); tv.run(2.0)
    monitor.stop()
    if not resync:
        monitor._resync = None  # simulate the pre-PR 3 restart
    # inputs the stopped monitor never sees
    tv.press("vol_up"); tv.run(1.0)
    tv.press("vol_up"); tv.run(1.0)
    tv.press("ch_up"); tv.run(1.0)
    monitor.start()
    # post-restart activity: a stale model diverges here
    tv.press("vol_up"); tv.run(3.0)
    tv.press("ch_up"); tv.run(3.0)
    tv.run(4.0)
    return tv, monitor


def test_restarted_monitor_does_not_false_alarm_on_missed_inputs():
    tv, monitor = _churned_tv(resync=True)
    assert monitor.resyncs == 1
    assert monitor.errors == []
    # the re-seeded model tracks the TV's true state
    machine = monitor.executor.machine
    assert machine.get("channel") == tv.channel
    assert machine.get("volume") == tv.audio.op_audio_get_volume()


def test_without_resync_the_stale_model_false_alarms():
    """The guard the handshake exists for: restarting without re-seeding
    reports errors on a perfectly healthy TV."""
    _tv, monitor = _churned_tv(resync=False)
    assert monitor.resyncs == 0
    assert len(monitor.errors) > 0


def test_monitor_churn_scenario_has_zero_false_alarms():
    """End to end: the monitor-churn library scenario (stop/restart
    waves over a live fleet) must no longer false-alarm."""
    for seed in (1, 2):
        report = Campaign("monitor-churn").run_cell("monitor-churn", seed=seed)
        assert report.false_alarms == [], f"seed {seed}"
        assert report.false_alarm_rate == 0.0


def test_resync_flushes_in_flight_messages():
    kernel = Kernel()
    tv = TVSet(kernel=kernel, seed=5, suo_id="tv-0")
    monitor = make_tv_monitor(tv, name="tv-0.awareness")
    tv.press("power"); tv.run(3.0)
    monitor.stop()
    tv.press("vol_up")  # datagram enters the channel, never delivered
    assert monitor.input_channel.pending() > 0
    monitor.start()
    assert monitor.input_channel.pending() == 0
    assert monitor.input_channel.flushed > 0
    tv.run(5.0)
    assert monitor.errors == []


def test_stopped_monitor_ignores_datagrams_in_flight():
    """Datagrams that cross the boundary after a stop neither step the
    model nor reach the comparator or its latest-output map."""
    kernel = Kernel()
    tv = TVSet(kernel=kernel, seed=5, suo_id="tv-0")
    monitor = make_tv_monitor(tv, name="tv-0.awareness")
    tv.press("power"); tv.run(3.0)
    tv.press("vol_up")  # an input and its outputs enter both channels
    monitor.stop()
    assert monitor.input_channel.pending() > 0
    assert monitor.output_channel.pending() > 0
    latest = monitor.comparator.latest
    before = (
        monitor.executor.steps,
        monitor.comparator.stats.comparisons,
        dict(latest),
    )
    tv.run(5.0)
    assert monitor.input_channel.pending() == 0
    assert monitor.output_channel.pending() == 0
    assert (
        monitor.executor.steps,
        monitor.comparator.stats.comparisons,
        dict(latest),
    ) == before


def test_stop_start_without_intervening_stop_is_a_plain_start():
    kernel = Kernel()
    tv = TVSet(kernel=kernel, seed=5, suo_id="tv-0")
    monitor = make_tv_monitor(tv, name="tv-0.awareness")
    monitor.start()  # already started by the factory: no-op, no resync
    assert monitor.resyncs == 0


# ----------------------------------------------------------------------
# Machine.reseed (the mechanism under the handshake)
# ----------------------------------------------------------------------
def test_machine_reseed_adopts_state_vars_and_timers():
    machine = build_tv_model()
    machine.initialize()
    machine.inject("power")
    machine.reseed("volbar", 12.0, vars={"volume": 55, "channel": 7})
    assert machine.configuration().endswith("on.volbar")
    assert machine.time == 12.0
    assert machine.get("volume") == 55
    # the volbar after-timer re-armed at the default offset
    assert machine.next_timeout() == pytest.approx(14.0)
    machine.advance(15.0)
    assert machine.configuration().endswith("on.viewing")


def test_machine_reseed_honors_explicit_timer_deadlines():
    machine = build_tv_model()
    machine.initialize()
    machine.inject("power")
    machine.reseed("volbar", 12.0, timer_deadlines={"volbar": 12.4})
    assert machine.next_timeout() == pytest.approx(12.4)


def test_machine_reseed_rejects_time_travel_and_unknown_states():
    machine = build_tv_model()
    machine.initialize()
    machine.advance(5.0)
    from repro.statemachine.machine import MachineError

    with pytest.raises(MachineError):
        machine.reseed("viewing", 1.0, vars={"volume": 99})
    # the failed reseed must not have half-applied its vars
    assert machine.get("volume") != 99
    with pytest.raises(MachineError):
        machine.reseed("warp-core", 6.0)
