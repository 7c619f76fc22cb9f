"""Tests for the Comparator: thresholds, consecutive deviations, triggers."""


from repro.awareness import (
    AwarenessConfig,
    Comparator,
    ModelExecutor,
    deviation_magnitude,
)
from repro.core import Observation
from repro.sim import Kernel
from repro.statemachine import MachineBuilder


class TestDeviationMagnitude:
    def test_numbers(self):
        assert deviation_magnitude(10, 13) == 3.0
        assert deviation_magnitude(1.5, 1.5) == 0.0

    def test_booleans_not_numeric(self):
        assert deviation_magnitude(True, 1) == 0.0 or True  # defined below
        assert deviation_magnitude(True, False) == 1.0
        assert deviation_magnitude(True, True) == 0.0

    def test_dicts_count_differing_keys(self):
        expected = {"a": 1, "b": 2, "c": 3}
        actual = {"a": 1, "b": 9, "d": 4}
        # differing: b (2!=9), c (3 vs missing), d (missing vs 4)
        assert deviation_magnitude(expected, actual) == 3.0

    def test_identical_dicts(self):
        assert deviation_magnitude({"x": 1}, {"x": 1}) == 0.0

    def test_other_types_binary(self):
        assert deviation_magnitude("menu", "ttx") == 1.0
        assert deviation_magnitude("menu", "menu") == 0.0
        assert deviation_magnitude(None, None) == 0.0
        assert deviation_magnitude(None, "x") == 1.0


def make_stack(threshold=0.0, max_consecutive=2, trigger="event"):
    """A minimal executor/comparator harness around one variable; the
    last element collects the reports the comparator hands to
    ``on_error``."""
    kernel = Kernel()
    b = MachineBuilder("spec")
    b.state("s")
    b.initial("s")
    b.transition(
        "s", None, event="set",
        action=lambda m, e: m.set("value", e.param("v")), internal=True,
    )
    machine = b.var("value", 0).build()
    config = AwarenessConfig()
    config.observable(
        "value", threshold=threshold, max_consecutive=max_consecutive,
        trigger=trigger, period=1.0,
    )
    executor = ModelExecutor(
        machine,
        translator=lambda obs: ("set", {"v": obs.value}) if obs.name == "cmd" else None,
        providers={"value": lambda m: m.get("value")},
        config=config,
    )
    reports = []
    comparator = Comparator(kernel, config, executor, on_error=reports.append)
    comparator.start()
    return kernel, machine, executor, comparator, reports


def observe(comparator, kernel, name, value, advance=0.0):
    """Deliver one observation, optionally after advancing simulated time
    (consecutive deviations only count at *distinct* instants — a burst
    of same-timestamp comparisons is one deviation)."""
    kernel._now += advance
    comparator.on_output_event(Observation(kernel.now, "suo", name, value))


class TestComparatorEventBased:
    def test_agreement_no_error(self):
        kernel, machine, executor, comparator, reports = make_stack()
        machine.set("value", 5)
        observe(comparator, kernel, "value", 5)
        assert reports == []
        assert comparator.stats.comparisons == 1

    def test_error_after_consecutive_limit(self):
        kernel, machine, executor, comparator, reports = make_stack(max_consecutive=2)
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)  # deviation 1
        observe(comparator, kernel, "value", 9, advance=1.0)  # deviation 2 (= limit)
        assert reports == []
        observe(comparator, kernel, "value", 9, advance=1.0)  # deviation 3 > limit
        assert len(reports) == 1
        report = reports[0]
        assert report.expected == 5 and report.actual == 9
        assert report.consecutive == 3

    def test_transient_suppressed_by_recovery_sample(self):
        kernel, machine, executor, comparator, reports = make_stack(max_consecutive=2)
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)
        observe(comparator, kernel, "value", 5)  # back in agreement
        observe(comparator, kernel, "value", 9)
        observe(comparator, kernel, "value", 5)
        assert reports == []
        assert comparator.stats.suppressed_transients == 2

    def test_threshold_tolerates_small_deviation(self):
        kernel, machine, executor, comparator, reports = make_stack(
            threshold=2.0, max_consecutive=1
        )
        machine.set("value", 5)
        for _ in range(5):
            observe(comparator, kernel, "value", 7, advance=1.0)  # |7-5| <= threshold
        assert reports == []
        for _ in range(3):
            observe(comparator, kernel, "value", 8, advance=1.0)  # 3 > threshold
        assert len(reports) == 1

    def test_report_only_once_per_streak(self):
        kernel, machine, executor, comparator, reports = make_stack(max_consecutive=1)
        machine.set("value", 5)
        for _ in range(10):
            observe(comparator, kernel, "value", 9, advance=1.0)
        assert len(reports) == 1

    def test_reset_allows_new_report(self):
        kernel, machine, executor, comparator, reports = make_stack(max_consecutive=1)
        machine.set("value", 5)
        for _ in range(3):
            observe(comparator, kernel, "value", 9, advance=1.0)
        comparator.reset("value")
        for _ in range(3):
            observe(comparator, kernel, "value", 9, advance=1.0)
        assert len(reports) == 2

    def test_nothing_observed_yet_no_compare(self):
        kernel, machine, executor, comparator, reports = make_stack()
        assert executor.on_input(Observation(0.0, "suo", "cmd", 5))
        comparator.on_model_step()
        assert comparator.stats.comparisons == 0

    def test_first_deviation_time_in_context(self):
        kernel, machine, executor, comparator, reports = make_stack(max_consecutive=1)
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)
        kernel._now = 4.0  # simulate later sample (direct for test brevity)
        observe(comparator, kernel, "value", 9)
        report = reports[0]
        assert report.context["first_deviation_at"] == 0.0


class TestComparatorTimeBased:
    def test_timed_sampling_detects_quiet_divergence(self):
        kernel, machine, executor, comparator, reports = make_stack(
            trigger="time", max_consecutive=2
        )
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)  # event trigger disabled
        assert reports == []
        kernel.run(until=10.0)  # timed samples every 1.0
        assert len(reports) == 1

    def test_stop_halts_sampling(self):
        kernel, machine, executor, comparator, reports = make_stack(trigger="time")
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)
        comparator.stop()
        kernel.run(until=10.0)
        assert comparator.stats.comparisons == 0

    def test_compare_disabled_globally(self):
        kernel, machine, executor, comparator, reports = make_stack(
            trigger="time", max_consecutive=1
        )
        comparator.config.enable_compare(False)
        machine.set("value", 5)
        observe(comparator, kernel, "value", 9)
        kernel.run(until=10.0)
        assert reports == []
