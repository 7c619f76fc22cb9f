"""Fuzz-style conformance and ordering properties.

The heaviest fidelity property in the suite: *any* random key sequence on
a fault-free TV stays in lock-step with the specification model, and the
attached awareness monitor never raises a false error.  This is the
model-to-model validation of Sect. 5 driven by generated inputs.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.awareness import MessageChannel, make_tv_monitor
from repro.core import ErrorReport, LadderStep, Observation, RecoveryPolicy
from repro.sim import Kernel, RandomStreams
from repro.tv import (
    TVSet,
    build_tv_model,
    expected_screen,
    expected_sound,
    key_to_event_name,
)

FUZZ_KEYS = st.lists(
    st.sampled_from(
        [
            "power", "ch_up", "ch_down", "vol_up", "vol_down", "mute",
            "ttx", "menu", "back", "dual", "swap", "epg", "ok",
            "digit1", "digit5", "digit9",
        ]
    ),
    min_size=1,
    max_size=25,
)


@given(keys=FUZZ_KEYS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Regression: the seed spec model lacked the epg→ttx transition the
# implementation has, so this sequence diverged (impl showed teletext,
# spec stayed in the programme guide).
@example(keys=["power", "epg", "ttx"]).via("discovered failure")
def test_fuzz_lockstep_conformance(keys):
    """Implementation == specification after every key, for any sequence."""
    tv = TVSet(seed=99)
    spec = build_tv_model(channel_count=tv.tuner.channel_count)
    time = 0.0
    for key in keys:
        time += 5.0
        tv.kernel.run(until=time)
        tv.press(key)
        name, params = key_to_event_name(key)
        spec.advance(time)
        spec.inject(name, **params)
        assert expected_screen(spec) == tv.screen_descriptor(), key
        assert expected_sound(spec) == tv.sound_level(), key


@given(keys=FUZZ_KEYS)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_no_false_errors(keys):
    """The monitor stays silent on any fault-free session."""
    tv = TVSet(seed=123)
    monitor = make_tv_monitor(tv)
    for key in keys:
        tv.press(key)
        tv.run(4.0)
    tv.run(6.0)
    assert monitor.errors == []


@given(
    send_times=st.lists(
        st.floats(0.0, 50.0, allow_nan=False), min_size=1, max_size=30
    ),
    delay=st.floats(0.0, 1.0, allow_nan=False),
    jitter=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_channel_preserves_fifo_under_any_jitter(send_times, delay, jitter):
    """Messages always arrive in send order, whatever the jitter."""
    kernel = Kernel()
    channel = MessageChannel(
        kernel, "c", delay=delay, jitter=jitter, streams=RandomStreams(1)
    )
    received = []
    channel.connect(lambda datagram: received.append(datagram.value))
    for index, at in enumerate(sorted(send_times)):
        kernel.schedule_at(
            at,
            lambda index=index: channel.send(
                Observation(kernel.now, "suo", "k", index)
            ),
        )
    kernel.run()
    assert received == sorted(received)
    assert len(received) == len(send_times)


@given(
    error_times=st.lists(
        st.floats(0.0, 1000.0, allow_nan=False), min_size=1, max_size=20
    ),
    quiet_period=st.floats(1.0, 100.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_policy_escalation_is_bounded_and_resets(error_times, quiet_period):
    """Escalation never runs off the ladder and resets after quiet gaps."""
    policy = RecoveryPolicy(quiet_period=quiet_period)
    ladder = [
        LadderStep("repair", "a", 0.0),
        LadderStep("restart_unit", "b", 0.5),
        LadderStep("restart_all", "*", 1.0),
    ]
    policy.add_ladder("*", ladder)
    previous_time = None
    for time in sorted(error_times):
        action = policy.decide(
            ErrorReport(
                time=time, detector="d", observable="x",
                expected=0, actual=1, consecutive=1,
            )
        )
        assert action is not None
        assert action.kind in {step.kind for step in ladder}
        if previous_time is not None and time - previous_time > quiet_period:
            # a long quiet gap must restart at the gentlest step
            assert action.kind == "repair"
        previous_time = time


@given(seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_tv_simulation_is_deterministic(seed):
    """Same seed + same inputs -> identical observable history."""

    def run():
        tv = TVSet(seed=seed)
        for key in ["power", "ttx", "ch_up", "vol_up", "dual", "power"]:
            tv.press(key)
            tv.run(3.0)
        return [(e.time, e.name, str(e.value)) for e in tv.output_events]

    assert run() == run()
