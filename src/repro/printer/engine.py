"""A printer/copier SUO: the Octopus-project domain of Sect. 5.

"In parallel, the model-based run-time awareness concept is also
exploited in the domain of printer/copiers at the company Océ in the
context of the ESI-project Octopus."

The printer is a paper path of three cooperating components — feeder,
print engine (with a thermal model), finisher — processing queued jobs.
It exposes the same monitoring surface as the TV: user-level output
events (status, pages delivered), component *modes* for consistency
checking, and injectable faults:

* ``silent_jam``   — the feeder stalls but keeps reporting ``feeding``
  (the mode-inconsistency class of fault);
* ``cold_fuser``   — fuser temperature control degrades; pages print but
  quality drops (a performance/quality fault);
* ``lost_staples`` — the finisher silently stops stapling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from ..koala.component import Component
from ..sim.kernel import Kernel
from ..sim.process import Delay, Interrupted, Process


@dataclass
class PrintJob:
    """One submitted job."""

    job_id: int
    pages: int
    staple: bool = False
    pages_done: int = 0
    delivered: bool = False


@dataclass(frozen=True)
class PrintedPage:
    """One delivered page with its fusing quality."""

    time: float
    job_id: int
    page: int
    quality: float
    stapled: bool


class Feeder(Component):
    """Picks sheets from the tray."""

    PICK_TIME = 0.4

    def __init__(self, kernel: Kernel, name: str = "feeder") -> None:
        self.kernel = kernel
        self.sheets_fed = 0
        #: Fault hook: feeder stalls while still reporting 'feeding'.
        self.silently_jammed = False
        super().__init__(name)

    def configure(self) -> None:
        self.set_mode("idle")

    def feed_one(self) -> Generator[Any, Any, bool]:
        """Generator: pick one sheet; returns False when jammed."""
        self.set_mode("feeding")
        yield Delay(self.PICK_TIME)
        if self.silently_jammed:
            # The fault: the pick roller slips forever; mode stays
            # 'feeding' — the component itself never notices.
            while True:
                yield Delay(1.0)
        self.sheets_fed += 1
        return True

    def rest(self) -> None:
        self.set_mode("idle")


class PrintEngine(Component):
    """Marks and fuses pages; quality follows fuser temperature."""

    PRINT_TIME = 0.6
    TARGET_TEMPERATURE = 180.0
    AMBIENT = 20.0
    HEAT_RATE = 40.0       # degrees per time unit while heating
    COOL_RATE = 2.0        # passive cooling per time unit
    QUALITY_BAND = 40.0    # degrees below target over which quality fades

    def __init__(self, kernel: Kernel, name: str = "engine") -> None:
        self.kernel = kernel
        self.temperature = self.AMBIENT
        self.pages_printed = 0
        #: Fault hook: heater power degraded to this fraction.
        self.heater_power = 1.0
        self._last_update = 0.0
        super().__init__(name)

    def configure(self) -> None:
        self.set_mode("cold")

    # -- thermal model ---------------------------------------------------
    def update_temperature(self, heating: bool) -> None:
        elapsed = self.kernel.now - self._last_update
        self._last_update = self.kernel.now
        if elapsed <= 0:
            return
        if heating:
            gain = self.HEAT_RATE * self.heater_power * elapsed
            self.temperature = min(self.TARGET_TEMPERATURE, self.temperature + gain)
        else:
            self.temperature = max(
                self.AMBIENT, self.temperature - self.COOL_RATE * elapsed
            )
        if self.temperature >= self.TARGET_TEMPERATURE - 5.0:
            self.set_mode("ready")
        elif self.temperature > self.AMBIENT + 10.0:
            self.set_mode("warming")
        else:
            self.set_mode("cold")

    def page_quality(self) -> float:
        """Fusing quality in [0, 1] from the current temperature."""
        deficit = max(0.0, self.TARGET_TEMPERATURE - self.temperature)
        return max(0.0, min(1.0, 1.0 - deficit / self.QUALITY_BAND))

    #: Bounded warmup: after this long the engine prints anyway (the
    #: thermostat trusts the heater; a degraded heater thus produces
    #: *bad pages*, not an eternal warmup — the user-visible failure).
    MAX_WARMUP = 5.0

    def warm_up(self) -> Generator[Any, Any, None]:
        """Generator: heat toward target, bounded by MAX_WARMUP."""
        self.update_temperature(heating=False)  # account idle cooling
        started = self.kernel.now
        while (
            self.temperature < self.TARGET_TEMPERATURE - 5.0
            and self.kernel.now - started < self.MAX_WARMUP
        ):
            yield Delay(0.5)
            self.update_temperature(heating=True)

    def print_one(self) -> Generator[Any, Any, float]:
        """Generator: mark+fuse one page; returns its quality."""
        self.update_temperature(heating=True)
        yield Delay(self.PRINT_TIME)
        self.update_temperature(heating=True)
        self.pages_printed += 1
        return self.page_quality()


class Finisher(Component):
    """Collects output; staples when the job asks for it."""

    STAPLE_TIME = 0.3

    def __init__(self, kernel: Kernel, name: str = "finisher") -> None:
        self.kernel = kernel
        self.pages_collected = 0
        self.staples_used = 0
        #: Fault hook: stapler empty but not reported.
        self.out_of_staples = False
        super().__init__(name)

    def configure(self) -> None:
        self.set_mode("idle")

    def collect(self, staple: bool) -> Generator[Any, Any, bool]:
        """Generator: collect a page; returns whether it was stapled."""
        self.set_mode("collecting")
        self.pages_collected += 1
        if staple:
            yield Delay(self.STAPLE_TIME)
            if self.out_of_staples:
                self.set_mode("idle")
                return False
            self.staples_used += 1
        self.set_mode("idle")
        return True


class Printer:
    """The assembled printer: job queue + paper path + observables.

    Observables published on ``suo.<suo_id>.output`` (PR 4 deepened the
    set: status and queue length alone could not expose a silent jam to
    a monitor watching the bus):

    * ``status``       — idle | printing | paused on every change;
    * ``queue``        — queue depth on submit/complete/cancel;
    * ``pages_done`` / ``page_quality`` — per delivered page;
    * ``job_done``     — job id on every completed job;
    * ``page_rate``    — pages per :attr:`RATE_WINDOW`, sampled every
      :attr:`RATE_PERIOD` while the paper path is active (the
      throughput observable the spec model predicts a floor for).
    """

    #: Trailing window (simulated time) for the throughput observable.
    RATE_WINDOW = 5.0
    #: Sampling period of the periodic ``page_rate`` publisher.
    RATE_PERIOD = 1.0

    def __init__(self, kernel: Optional[Kernel] = None, suo_id: str = "printer") -> None:
        self.kernel = kernel or Kernel()
        self.suo_id = suo_id
        self._publish_output = self.kernel.bus.publisher(f"suo.{suo_id}.output")
        self._publish_command = self.kernel.bus.publisher(f"suo.{suo_id}.input")
        self.feeder = Feeder(self.kernel)
        self.engine = PrintEngine(self.kernel)
        self.finisher = Finisher(self.kernel)
        self.status = "idle"  # idle | printing | paused
        self.queue: List[PrintJob] = []
        self.completed: List[PrintJob] = []
        self.pages: List[PrintedPage] = []
        self._job_counter = 0
        self._worker: Optional[Process] = None
        self._rate_publisher: Optional[Process] = None

    # ------------------------------------------------------------------
    # command API (the printer's input events)
    # ------------------------------------------------------------------
    def submit(self, pages: int, staple: bool = False) -> PrintJob:
        """Submit a job; starts the paper path when idle."""
        self._job_counter += 1
        job = PrintJob(job_id=self._job_counter, pages=pages, staple=staple)
        self.queue.append(job)
        self._publish_command("submit")
        if self.status == "idle":
            self._set_status("printing")
            self._start_worker()
        self._publish("queue", len(self.queue))
        return job

    def pause(self) -> None:
        self._publish_command("pause")
        if self.status == "printing":
            self._set_status("paused")

    def resume(self) -> None:
        self._publish_command("resume")
        if self.status == "paused":
            self._set_status("printing")

    def cancel_all(self) -> None:
        self._publish_command("cancel")
        self.queue.clear()
        if self._worker is not None and self._worker.alive:
            self._worker.kill("cancel")
        self._worker = None
        self.feeder.rest()
        self._set_status("idle")
        self._publish("queue", 0)

    # ------------------------------------------------------------------
    # the paper path
    # ------------------------------------------------------------------
    def _start_worker(self) -> None:
        self._worker = Process(self.kernel, self._run_jobs(), name="paper-path")
        if self._rate_publisher is None or not self._rate_publisher.alive:
            self._rate_publisher = Process(
                self.kernel, self._publish_rate_loop(), name="page-rate"
            )

    def _publish_rate_loop(self) -> Generator[Any, Any, None]:
        """Sample the throughput observable while the paper path is
        active; one final zero sample marks the return to idle."""
        try:
            while self.status != "idle" or self.queue:
                self._publish("page_rate", round(self.page_rate(), 3))
                yield Delay(self.RATE_PERIOD)
            self._publish("page_rate", 0.0)
        except Interrupted:
            return

    def _run_jobs(self) -> Generator[Any, Any, None]:
        try:
            yield from self.engine.warm_up()
            while self.queue:
                job = self.queue[0]
                while job.pages_done < job.pages:
                    while self.status == "paused":
                        yield Delay(0.2)
                        self.engine.update_temperature(heating=False)
                    fed = yield from self.feeder.feed_one()
                    if not fed:
                        return
                    quality = yield from self.engine.print_one()
                    stapled = yield from self.finisher.collect(job.staple)
                    job.pages_done += 1
                    page = PrintedPage(
                        time=self.kernel.now,
                        job_id=job.job_id,
                        page=job.pages_done,
                        quality=quality,
                        stapled=stapled,
                    )
                    self.pages.append(page)
                    self._publish("pages_done", len(self.pages))
                    self._publish("page_quality", round(quality, 3))
                job.delivered = True
                self.completed.append(job)
                self.queue.pop(0)
                self._publish("job_done", job.job_id)
                self._publish("queue", len(self.queue))
            self.feeder.rest()
            self._set_status("idle")
        except Interrupted:
            return

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def _set_status(self, status: str) -> None:
        if status == self.status:
            return
        self.status = status
        self._publish("status", status)

    def _publish(self, name: str, value: Any) -> None:
        self._publish_output((name, value))

    def page_rate(self, window: Optional[float] = None) -> float:
        """Pages delivered per time unit over the trailing window."""
        window = window if window is not None else self.RATE_WINDOW
        cutoff = self.kernel.now - window
        count = 0
        for page in reversed(self.pages):
            if page.time <= cutoff:
                break
            count += 1
        return count / window

    def mean_quality(self, since: float = 0.0) -> float:
        relevant = [p.quality for p in self.pages if p.time >= since]
        if not relevant:
            return 0.0
        return sum(relevant) / len(relevant)

    def component_modes(self) -> Dict[str, str]:
        """The mode map the consistency checker samples."""
        return {
            "feeder": self.feeder.mode,
            "engine": self.engine.mode,
            "finisher": self.finisher.mode,
            "printer": self.status,
        }

    # ------------------------------------------------------------------
    # fault hooks
    # ------------------------------------------------------------------
    def inject_silent_jam(self) -> None:
        self.feeder.silently_jammed = True

    def clear_jam(self) -> None:
        """Recovery: clear the jam and restart the paper path."""
        self.feeder.silently_jammed = False
        if self._worker is not None and self._worker.alive:
            self._worker.kill("jam clear")
        if self.queue and self.status != "paused":
            self._set_status("printing")
            self._start_worker()
        elif not self.queue:
            self.feeder.rest()
            self._set_status("idle")

    def inject_cold_fuser(self, power: float = 0.2) -> None:
        self.engine.heater_power = power

    def repair_fuser(self) -> None:
        self.engine.heater_power = 1.0

    def inject_lost_staples(self) -> None:
        self.finisher.out_of_staples = True

    def refill_staples(self) -> None:
        self.finisher.out_of_staples = False
