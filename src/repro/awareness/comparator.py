"""Comparator (Fig. 2): model output vs system output.

Implements exactly the tolerance mechanism Sect. 4.3 describes.  For each
observable the user specifies "(1) a threshold for the allowed maximal
deviation between specification model and system, and (2) a maximum for
the number of consecutive deviations that are allowed before an error
will be reported", and comparison is triggered *event-based*,
*time-based* (with a configurable frequency), or both.

The deviation magnitude is type-directed:

* numbers   → absolute difference;
* mappings  → number of keys whose values differ (symmetric);
* elsewhere → 0 when equal, 1 when different.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.contract import ErrorReport, Observation
from ..sim.kernel import Kernel
from .config import AwarenessConfig, ObservableSpec
from .executor import ModelExecutor


def deviation_magnitude(expected: Any, actual: Any) -> float:
    """Type-directed distance between expected and observed values."""
    if expected == actual:
        # Every branch below maps equality to 0.0; the common in-tolerance
        # case (dict == dict, int == int) resolves in one C-level compare.
        return 0.0
    if expected is None and actual is None:
        return 0.0
    if isinstance(expected, bool) or isinstance(actual, bool):
        return 0.0 if expected == actual else 1.0
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(float(expected) - float(actual))
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = set(expected) | set(actual)
        return float(
            sum(1 for key in keys if expected.get(key) != actual.get(key))
        )
    return 0.0 if expected == actual else 1.0


@dataclass(slots=True)
class _Streak:
    """Consecutive-deviation bookkeeping for one observable.

    One record lives per observable and is reset *in place* when the
    observable returns to tolerance — the in-tolerance comparison is the
    overwhelmingly common case at fleet scale and must not allocate.
    """

    count: int = 0
    started_at: Optional[float] = None
    #: Simulated instant of the latest deviation: several comparisons at
    #: one instant (a batch of same-timestamp model steps racing an
    #: output across the other channel) count as ONE deviation, or a
    #: burst would burn through ``max_consecutive`` inside a snapshot
    #: that is inherently transient.
    last_at: Optional[float] = None
    reported: bool = False

    def clear(self) -> None:
        self.count = 0
        self.started_at = None
        self.last_at = None
        self.reported = False


@dataclass(slots=True)
class ComparatorStats:
    """Counters the tuning experiments (E2) read."""

    comparisons: int = 0
    deviations: int = 0
    errors_reported: int = 0
    suppressed_transients: int = 0


class Comparator:
    """Compares expected and observed values under the configured policy."""

    def __init__(
        self,
        kernel: Kernel,
        config: AwarenessConfig,
        executor: ModelExecutor,
        on_error: Callable[[ErrorReport], None],
        name: str = "comparator",
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.executor = executor
        #: IErrorNotify: the monitor's Controller.
        self.on_error = on_error
        self.name = name
        self.stats = ComparatorStats()
        self.reports: List[ErrorReport] = []
        #: The Output Observer role of Fig. 2: the most recent observation
        #: of every SUO observable.
        self.latest: Dict[str, Observation] = {}
        self._streaks: Dict[str, _Streak] = {}
        self.running = False
        #: Bumped on every start: a pending timed sample from a previous
        #: start generation dies instead of rescheduling, so stop+start
        #: in quick succession (a recovery restart) cannot leave two
        #: sampling chains running per observable.
        self._epoch = 0

    # -- IControl ------------------------------------------------------
    def start(self) -> None:
        """Begin comparing; arms the time-based sampling loops."""
        if self.running:
            return
        self.running = True
        self._epoch += 1
        for spec in self.config.observables.values():
            if spec.time_based:
                self._schedule_timed(spec, self._epoch)

    def stop(self) -> None:
        self.running = False

    # -- event-based triggers ------------------------------------------------
    def on_output_event(self, observation: Observation) -> None:
        """IOutputEvent: system produced an output — record and compare it."""
        if not self.running:
            return
        name = observation.name
        self.latest[name] = observation
        spec = self.config.spec(name)
        if spec is None or not spec.event_based:
            return
        self.executor.sync_time(self.kernel.now)
        self._compare_one(spec)

    def on_model_step(self) -> None:
        """IModelExecutor: the model stepped — re-check event observables."""
        if not self.running:
            return
        for spec in self.config.observables.values():
            if spec.event_based:
                self._compare_one(spec)

    # -- time-based sampling ---------------------------------------------------
    def _schedule_timed(self, spec: ObservableSpec, epoch: int) -> None:
        # One closure per chain per epoch (it reschedules *itself*), not
        # one per tick; nothing retains the handles, the epoch guard is
        # what kills a stale chain.
        kernel = self.kernel
        schedule = kernel.schedule
        period = spec.period
        name = f"compare:{spec.name}"

        def sample() -> None:
            if not self.running or epoch != self._epoch:
                return
            self.executor.sync_time(kernel.now)
            self._compare_one(spec)
            schedule(period, sample, name=name)

        schedule(period, sample, name=name)

    # -- core comparison ------------------------------------------------------
    def _compare_one(self, spec: ObservableSpec) -> None:
        name = spec.name
        if not self.config.compare_enabled(name):
            return
        if name not in self.executor.providers:
            return
        observation = self.latest.get(name)
        if observation is None:
            return  # nothing observed yet
        actual = observation.value
        expected = self.executor.expected(name)
        magnitude = deviation_magnitude(expected, actual)
        self.stats.comparisons += 1
        streak = self._streaks.get(name)
        if streak is None:
            streak = self._streaks[name] = _Streak()
        if magnitude <= spec.threshold:
            if streak.count:
                if not streak.reported:
                    self.stats.suppressed_transients += 1
                streak.clear()
            return
        now = self.kernel.now
        self.stats.deviations += 1
        if streak.last_at != now or streak.count == 0:
            streak.count += 1
        streak.last_at = now
        if streak.started_at is None:
            streak.started_at = now
        if streak.count > spec.max_consecutive and not streak.reported:
            streak.reported = True
            self._report(spec, expected, actual, streak)

    def _report(
        self, spec: ObservableSpec, expected: Any, actual: Any, streak: _Streak
    ) -> None:
        report = ErrorReport(
            time=self.kernel.now,
            detector=self.name,
            observable=spec.name,
            expected=expected,
            actual=actual,
            consecutive=streak.count,
            severity=spec.severity,
            context={"first_deviation_at": streak.started_at},
        )
        self.reports.append(report)
        self.stats.errors_reported += 1
        self.on_error(report)

    # -- status queries ------------------------------------------------------
    def deviating_observables(self) -> List[str]:
        """Observables currently in a deviation streak (reported or not).

        The online diagnoser uses this to flag spectra steps: an error is
        *reported* once per streak, but the erroneous state persists until
        repaired, and every step spent in it is failing evidence.
        """
        return sorted(
            name for name, streak in self._streaks.items() if streak.count > 0
        )

    # -- recovery interface ------------------------------------------------------
    def reset(self, observable: Optional[str] = None) -> None:
        """Clear deviation streaks (after a recovery action repaired state)."""
        if observable is None:
            self._streaks.clear()
            return
        self._streaks.pop(observable, None)
