"""Tests for probes, hardware monitors, and the deadlock detector."""


from repro.observation import (
    CallStackMonitor,
    DeadlockDetector,
    InputProbe,
    LoadProbe,
    MemoryArbiterWatch,
    ModeProbe,
    OutputProbe,
    RangeChecker,
)
from repro.platform import MemoryArbiter
from repro.sim import Delay, Kernel, Process, Resource, Trace
from repro.tv import TVSet


class TestProbes:
    def test_input_probe_records_keys(self):
        tv = TVSet(seed=1)
        trace = Trace(clock=lambda: tv.kernel.now)
        probe = InputProbe(trace)
        probe.attach_bus(tv.bus)
        tv.press("power")
        tv.press("vol_up")
        keys = [r.value["key"] for r in trace.of_kind("key")]
        assert keys == ["power", "vol_up"]

    def test_output_probe_records_observables(self):
        tv = TVSet(seed=1)
        trace = Trace(clock=lambda: tv.kernel.now)
        probe = OutputProbe(trace)
        probe.attach_bus(tv.bus)
        tv.press("power")
        assert trace.count("out:screen") >= 1
        assert trace.count("out:sound") >= 1

    def test_mode_probe_tracks_changes(self):
        tv = TVSet(seed=1)
        trace = Trace(clock=lambda: tv.kernel.now)
        probe = ModeProbe(trace)
        probe.attach(tv.configuration)
        tv.press("power")
        tv.press("mute")
        assert probe.current["audio"] == "mute"
        assert trace.count("mode") >= 1

    def test_mode_probe_sees_nested_teletext_parts(self):
        tv = TVSet(seed=1)
        probe = ModeProbe(Trace())
        probe.attach(tv.configuration)
        tv.press("power")
        tv.press("ttx")
        assert probe.current[tv.teletext.acquirer.name].startswith("acquiring")
        assert probe.current[tv.teletext.renderer.name].startswith("visible")

    def test_load_probe_samples_periodically(self):
        tv = TVSet(seed=1)
        trace = Trace(clock=lambda: tv.kernel.now)
        probe = LoadProbe(trace, tv.kernel, tv.soc, interval=2.0)
        probe.start()
        tv.run(11.0)
        assert probe.samples == 5
        probe.stop()
        tv.run(10.0)
        assert probe.samples == 5


class TestRangeChecker:
    def test_no_violations_nominal(self):
        tv = TVSet(seed=1)
        checker = RangeChecker(tv.configuration, clock=lambda: tv.kernel.now)
        checker.install()
        tv.press("power")
        tv.press("vol_up")
        assert checker.violations == []
        assert checker.checked_calls > 0

    def test_detects_out_of_range_argument(self):
        tv = TVSet(seed=1)
        checker = RangeChecker(tv.configuration, clock=lambda: tv.kernel.now)
        checker.install()
        # A wild internal call bypassing the control logic: the component
        # clamps and carries on, but the range checker sees the raw value.
        tv.audio.handle("audio", "set_volume", level=1000)
        assert len(checker.violations) == 1
        violation = checker.violations[0]
        assert violation.component == "audio"
        assert "1000" in violation.detail

    def test_uninstall_stops_checking(self):
        tv = TVSet(seed=1)
        checker = RangeChecker(tv.configuration, clock=lambda: tv.kernel.now)
        checker.install()
        checker.uninstall()
        before = checker.checked_calls
        tv.press("power")
        assert checker.checked_calls == before


class TestCallStackMonitor:
    def test_depth_watermark(self):
        tv = TVSet(seed=1)
        monitor = CallStackMonitor(tv.configuration)
        monitor.install()
        tv.press("power")
        assert monitor.max_observed_depth >= 2  # control -> video/audio
        assert monitor.current_depth() == 0  # everything unwound

    def test_call_log_grows(self):
        tv = TVSet(seed=1)
        monitor = CallStackMonitor(tv.configuration)
        monitor.install()
        tv.press("power")
        tv.press("vol_up")
        assert monitor.call_log_size > 2


class TestMemoryArbiterWatch:
    def test_alarm_on_latency_violation(self):
        kernel = Kernel()
        arbiter = MemoryArbiter(kernel, words_per_time=10.0)
        watch = MemoryArbiterWatch(kernel, arbiter, latency_bound=0.5, interval=5.0)
        watch.start()

        def client():
            for _ in range(20):
                yield from arbiter.access("greedy", 50)  # 5.0 each

        Process(kernel, client())
        kernel.run(until=60.0)
        assert watch.alarms
        assert watch.alarms[0].client == "greedy"

    def test_no_alarm_when_fast(self):
        kernel = Kernel()
        arbiter = MemoryArbiter(kernel, words_per_time=1000.0)
        watch = MemoryArbiterWatch(kernel, arbiter, latency_bound=0.5, interval=5.0)
        watch.start()

        def client():
            for _ in range(10):
                yield from arbiter.access("polite", 10)
                yield Delay(1.0)

        Process(kernel, client())
        kernel.run(until=30.0)
        assert watch.alarms == []


class TestDeadlockDetector:
    def test_detects_real_deadlock(self):
        kernel = Kernel()
        r1 = Resource(kernel, 1, "r1")
        r2 = Resource(kernel, 1, "r2")

        def proc_a():
            yield r1.acquire()
            yield Delay(1.0)
            yield r2.acquire()  # blocks forever
            r2.release()
            r1.release()

        def proc_b():
            yield r2.acquire()
            yield Delay(1.0)
            yield r1.acquire()  # blocks forever
            r1.release()
            r2.release()

        Process(kernel, proc_a())
        Process(kernel, proc_b())
        detector = DeadlockDetector(kernel, interval=2.0, stall_intervals=3)
        detector.watch_resource(r1)
        detector.watch_resource(r2)
        detector.start()
        kernel.run(until=60.0)
        assert detector.alarms
        assert detector.alarms[0].waiting == 2

    def test_no_alarm_on_progress(self):
        kernel = Kernel()
        resource = Resource(kernel, 1, "shared")

        def worker():
            for _ in range(30):
                yield resource.acquire()
                yield Delay(1.0)
                resource.release()

        Process(kernel, worker())
        Process(kernel, worker())
        detector = DeadlockDetector(kernel, interval=2.0, stall_intervals=3)
        detector.watch_resource(resource)
        detector.start()
        kernel.run(until=50.0)
        assert detector.alarms == []

    def test_no_alarm_when_idle(self):
        kernel = Kernel()
        resource = Resource(kernel, 1, "idle")
        detector = DeadlockDetector(kernel, interval=2.0)
        detector.watch_resource(resource)
        detector.start()
        kernel.run(until=30.0)
        assert detector.alarms == []
