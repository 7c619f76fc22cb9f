"""Tests for message channels and the awareness configuration."""

import pytest

from repro.awareness import AwarenessConfig, MessageChannel, ObservableSpec
from repro.core import Observation
from repro.sim import Kernel, RandomStreams


def datagram(value, time=0.0):
    return Observation(time, "suo", "k", value)


class TestMessageChannel:
    def test_delivery_after_delay(self):
        kernel = Kernel()
        channel = MessageChannel(kernel, "c", delay=0.5, jitter=0.0)
        received = []
        channel.connect(lambda d: received.append((kernel.now, d.value)))
        channel.send(datagram("hello"))
        kernel.run()
        assert received == [(0.5, "hello")]

    def test_order_preserved_under_jitter(self):
        kernel = Kernel()
        channel = MessageChannel(
            kernel, "c", delay=0.1, jitter=0.5, streams=RandomStreams(7)
        )
        received = []
        channel.connect(lambda d: received.append(d.value))
        for i in range(20):
            kernel.schedule(i * 0.01, lambda i=i: channel.send(datagram(i)))
        kernel.run()
        assert received == list(range(20))

    def test_counters(self):
        kernel = Kernel()
        channel = MessageChannel(kernel, "c", delay=0.1, jitter=0.0)
        channel.connect(lambda d: None)
        channel.send(datagram(1))
        channel.send(datagram(2))
        assert channel.sent == 2
        kernel.run()
        assert channel.delivered == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            MessageChannel(Kernel(), "c", delay=-0.1)

    def test_multiple_receivers(self):
        kernel = Kernel()
        channel = MessageChannel(kernel, "c", delay=0.0, jitter=0.0)
        a, b = [], []
        channel.connect(lambda d: a.append(d.value))
        channel.connect(lambda d: b.append(d.value))
        channel.send(datagram("x"))
        kernel.run()
        assert a == ["x"] and b == ["x"]

    def test_deterministic_jitter_with_same_seed(self):
        def run(seed):
            kernel = Kernel()
            channel = MessageChannel(
                kernel, "c", delay=0.1, jitter=0.3, streams=RandomStreams(seed)
            )
            times = []
            channel.connect(lambda d: times.append(kernel.now))
            for i in range(5):
                kernel.schedule(float(i), lambda: channel.send(datagram(None)))
            kernel.run()
            return times

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestObservableSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ObservableSpec(name="x", threshold=-1.0)
        with pytest.raises(ValueError):
            ObservableSpec(name="x", max_consecutive=0)
        with pytest.raises(ValueError):
            ObservableSpec(name="x", trigger="sometimes")

    def test_trigger_flags(self):
        event = ObservableSpec(name="e", trigger="event")
        timed = ObservableSpec(name="t", trigger="time")
        both = ObservableSpec(name="b", trigger="both")
        assert event.event_based and not event.time_based
        assert timed.time_based and not timed.event_based
        assert both.event_based and both.time_based


class TestAwarenessConfig:
    def test_register_and_lookup(self):
        config = AwarenessConfig()
        config.observable("screen", threshold=1.0, max_consecutive=3)
        spec = config.spec("screen")
        assert spec.threshold == 1.0
        assert config.names() == ["screen"]
        assert config.spec("missing") is None

    def test_global_compare_switch(self):
        config = AwarenessConfig()
        config.observable("screen")
        assert config.compare_enabled("screen")
        config.enable_compare(False)
        assert not config.compare_enabled("screen")
        assert not config.compare_enabled()

    def test_per_observable_disable(self):
        config = AwarenessConfig()
        config.observable("screen")
        config.observable("sound")
        config.set_observable_enabled("screen", False)
        assert not config.compare_enabled("screen")
        assert config.compare_enabled("sound")
        config.set_observable_enabled("screen", True)
        assert config.compare_enabled("screen")
