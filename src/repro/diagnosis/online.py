"""Online diagnosis: program spectra collected during normal operation.

Sect. 4.4's experiment is offline (instrument, run a scenario, rank).
The Fig. 1 loop, however, wants diagnosis *when an error is detected at
run time*.  :class:`OnlineDiagnoser` bridges the two: it keeps the block
instrumentation attached while the product is used, delimits spectra
steps at key presses, flags each step erroneous if any monitor error was
reported during it, and can produce a ranking on demand — which is what
the loop's ``diagnoser`` hook calls when an incident needs a suspect.
"""

from __future__ import annotations

from typing import Optional

from ..core.contract import Diagnosis, ErrorReport
from ..tv.software import SoftwareBuild
from ..tv.tvset import TVSet
from .instrument import BlockInstrumenter
from .sfl import SpectrumDiagnoser
from .spectra import SpectraCollector


class OnlineDiagnoser:
    """Continuous spectra collection + on-demand SFL ranking."""

    def __init__(
        self,
        tv: TVSet,
        build: Optional[SoftwareBuild] = None,
        coefficient: str = "ochiai",
        top_n: int = 20,
        monitor=None,
    ) -> None:
        self.tv = tv
        self.build = build or SoftwareBuild(seed=0)
        self.collector = SpectraCollector()
        self.instrumenter = BlockInstrumenter(tv, self.build, self.collector)
        self.diagnoser = SpectrumDiagnoser(coefficient)
        self.top_n = top_n
        #: Optional awareness monitor: its comparator's live deviation
        #: state marks *every* step spent in an erroneous state, not only
        #: the step where the error report fired.
        self.monitor = monitor
        if monitor is not None:
            monitor.controller.subscribe_errors(self.on_error)
        self._errors_in_step = 0
        self._step_open = False
        #: Span marker for repro.obs: each on-demand ranking announces
        #: itself on the silent ``obs.*`` namespace (free with no
        #: SpanRecorder subscribed; never visible to ``suo.*`` digests).
        self._span = tv.kernel.bus.publisher(f"obs.{tv.suo_id}.span")
        tv.bus.subscribe(tv.remote.topic, self._on_press)

    # ------------------------------------------------------------------
    # step management: one step per key press
    # ------------------------------------------------------------------
    def _on_press(self, _topic, press) -> None:
        self._close_step()
        self.instrumenter.begin_step(press.key)
        self._step_open = True
        self._errors_in_step = 0

    def _close_step(self) -> None:
        if not self._step_open:
            return
        erroneous = self._errors_in_step > 0
        if self.monitor is not None:
            erroneous = erroneous or bool(
                self.monitor.comparator.deviating_observables()
            )
        self.instrumenter.end_step(erroneous)
        self._step_open = False

    # ------------------------------------------------------------------
    # error feed (subscribe the monitor's controller to this)
    # ------------------------------------------------------------------
    def on_error(self, report: ErrorReport) -> None:
        """Mark the current step erroneous."""
        self._errors_in_step += 1

    # ------------------------------------------------------------------
    # the loop's diagnoser hook
    # ------------------------------------------------------------------
    def diagnose(self, report: Optional[ErrorReport] = None) -> Optional[Diagnosis]:
        """Rank blocks from everything collected so far.

        The open step is closed (flagged by the triggering error) so the
        evidence that fired the loop is part of the spectra.
        """
        self._close_step()
        if not self.collector.error_steps:
            return None
        diagnosis = self.diagnoser.diagnose(
            self.collector, time=self.tv.kernel.now, top_n=self.top_n
        )
        if diagnosis is not None:
            self._span(
                {"ev": "sfl-rank", "source": "online",
                 "suspect": self.suspect_module(diagnosis),
                 "best": diagnosis.best()}
            )
        return diagnosis

    # ------------------------------------------------------------------
    def suspect_module(self, diagnosis: Diagnosis) -> Optional[str]:
        """Map the top-ranked block back to its module (repair routing)."""
        best = diagnosis.best()
        if best is None or not best.startswith("block:"):
            return None
        block = int(best.split(":", 1)[1])
        module = self.build.module_of_block(block)
        return module.name if module is not None else None

    def steps_recorded(self) -> int:
        return self.collector.step_count
