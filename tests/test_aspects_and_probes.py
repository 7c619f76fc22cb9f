"""Tests for monitoring aspects, buffer probes, and executor stability."""

import pytest

from repro.awareness import AwarenessConfig, ModelExecutor
from repro.core import Observation
from repro.koala import JoinPoint, Weaver
from repro.observation import BufferProbe, call_counter, call_logger, latency_recorder, value_tap
from repro.sim import Kernel, Store, Trace
from repro.statemachine import MachineBuilder
from repro.tv import TVSet


class TestMonitoringAspects:
    def make_tv(self):
        tv = TVSet(seed=5)
        weaver = Weaver(tv.configuration)
        return tv, weaver

    def test_call_logger_records_calls(self):
        tv, weaver = self.make_tv()
        trace = Trace(clock=lambda: tv.kernel.now)
        weaver.weave(call_logger(trace, JoinPoint(component="audio")))
        tv.press("power")
        tv.press("vol_up")
        calls = list(trace.of_kind("call"))
        assert calls
        assert all(record.value["component"] == "audio" for record in calls)
        operations = {record.value["operation"] for record in calls}
        assert "set_volume" in operations

    def test_call_logger_captures_args_and_result(self):
        tv, weaver = self.make_tv()
        trace = Trace()
        weaver.weave(call_logger(trace, JoinPoint(operation="set_volume")))
        tv.press("power")
        tv.press("vol_up")
        record = trace.last("call")
        assert record.value["kwargs"] == {"level": 35}
        assert record.value["result"] == 35
        assert record.value["error"] is None

    def test_call_counter(self):
        tv, weaver = self.make_tv()
        aspect = call_counter(JoinPoint(component="tuner"))
        weaver.weave(aspect)
        tv.press("power")
        tv.press("ch_up")
        tv.press("ch_up")
        assert aspect.counts.get("tuner.tune", 0) == 2

    def test_latency_recorder_on_simulated_clock(self):
        tv, weaver = self.make_tv()
        aspect = latency_recorder(lambda: tv.kernel.now, JoinPoint())
        weaver.weave(aspect)
        tv.press("power")
        # all intercepted calls are instantaneous in simulated time
        assert aspect.samples
        assert all(
            all(v == 0.0 for v in values) for values in aspect.samples.values()
        )

    def test_value_tap_feeds_callback(self):
        tv, weaver = self.make_tv()
        seen = []
        weaver.weave(
            value_tap(
                JoinPoint(operation="tune"),
                lambda context: seen.append(context.kwargs["channel"]),
            )
        )
        tv.press("power")
        tv.press("ch_up")
        tv.press("ch_up")
        assert seen == [2, 3]


class TestBufferProbe:
    def test_samples_fill_and_drops(self):
        kernel = Kernel()
        trace = Trace(clock=lambda: kernel.now)
        store = Store(kernel, capacity=2, name="frames")
        probe = BufferProbe(trace, kernel, interval=1.0)
        probe.watch(store)
        probe.start()
        store.put("a")
        store.put("b")
        store.put("c")  # dropped
        kernel.run(until=3.5)
        samples = list(trace.of_kind("buffer"))
        assert samples
        last = samples[-1].value
        assert last["name"] == "frames"
        assert last["fill"] == 2
        assert last["drops"] == 1
        probe.stop()
        kernel.run(until=10.0)
        assert len(list(trace.of_kind("buffer"))) == len(samples)


class TestExecutorStability:
    def make_executor(self):
        b = MachineBuilder("m")
        b.state("stable")
        b.state("unstable")
        b.initial("stable")
        b.transition("stable", "unstable", event="go")
        b.transition("unstable", "stable", event="settle")
        machine = b.build()
        config = AwarenessConfig()
        config.observable("x")
        executor = ModelExecutor(
            machine,
            translator=lambda obs: (obs.value, {}),
            providers={"x": lambda m: 0},
            config=config,
            unstable_when=lambda m: m.configuration().endswith("unstable"),
        )
        return executor, config

    def test_unstable_state_disables_comparison(self):
        executor, config = self.make_executor()
        assert config.compare_enabled("x")
        executor.on_input(Observation(0.0, "suo", "cmd", "go"))
        assert not config.compare_enabled("x")
        executor.on_input(Observation(1.0, "suo", "cmd", "settle"))
        assert config.compare_enabled("x")

    def test_untranslatable_events_counted(self):
        executor, config = self.make_executor()
        executor.translator = lambda obs: None
        executor.on_input(Observation(0.0, "suo", "noise", "zzz"))
        assert executor.ignored_events == 1
        assert executor.steps == 0

    def test_expected_unknown_observable_raises(self):
        executor, config = self.make_executor()
        with pytest.raises(KeyError):
            executor.expected("nonexistent")

    def test_expected_all(self):
        executor, config = self.make_executor()
        assert executor.expected_all() == {"x": 0}


class TestRemoteHelpers:
    def test_key_sequence_schedules_at_cadence(self):
        from repro.tv.remote import KeySequence

        tv = TVSet(seed=6)
        sequence = KeySequence(tv.remote, ["power", "vol_up"], interval=3.0, start=1.0)
        assert sequence.press_times() == [1.0, 4.0]
        sequence.schedule()
        tv.run(10.0)
        assert [p.key for p in tv.remote.presses] == ["power", "vol_up"]
        assert [p.time for p in tv.remote.presses] == [1.0, 4.0]

    def test_random_user_is_seeded(self):
        from repro.tv.remote import RandomUser

        def run(seed):
            tv = TVSet(seed=seed)
            user = RandomUser(tv.remote, tv.streams, mean_gap=2.0,
                              keys=["power", "ch_up", "vol_up"])
            user.start()
            tv.run(60.0)
            user.stop()
            return list(user.pressed)

        assert run(4) == run(4)
        assert len(run(4)) > 5

    def test_unknown_key_rejected(self):
        tv = TVSet(seed=6)
        with pytest.raises(ValueError):
            tv.remote.press("self_destruct")
