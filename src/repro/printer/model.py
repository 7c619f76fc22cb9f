"""Specification model and monitor adapter for the printer SUO.

The same recipe as the TV: a partial, user-view state machine (job
lifecycle and throughput expectations), expected-value providers, and a
:func:`make_printer_monitor` that performs the 'SUO modifications' of
Fig. 2 for the printer.

The throughput observable shows the approach extending beyond pure
control state: the model predicts a *minimum page rate* while printing;
a silently jammed feeder violates it even though the control state still
looks plausible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Optional, Tuple

from ..awareness.config import AwarenessConfig
from ..awareness.monitor import AwarenessMonitor
from ..core.contract import Observation
from ..statemachine.builder import MachineBuilder
from ..statemachine.machine import Machine
from .engine import Printer

#: Nominal seconds per page (pick + print, no stapling).
NOMINAL_PAGE_TIME = 1.0
#: The model's tolerance before declaring progress stalled.  Must cover
#: the engine's bounded warmup (5.0) plus one page, or a healthy cold
#: start would be flagged.
PAGE_TIME_SLACK = 8.0
#: Minimum sustained throughput the spec expects once the paper path has
#: ramped (pages per time unit; the engine's nominal is ~1/page-time).
NOMINAL_PAGE_RATE = 1.0 / NOMINAL_PAGE_TIME
#: Time after entering ``printing`` over which the expected rate ramps
#: linearly from 0 to nominal (covers the bounded warmup plus filling
#: one rate window).
RATE_RAMP = 8.0


def _on_submit(machine: Machine, event) -> None:
    machine.set("jobs", machine.get("jobs") + 1)
    machine.set("last_progress", event.time)


def _on_start_printing(machine: Machine, event) -> None:
    _on_submit(machine, event)
    machine.set("printing_since", event.time)


def _on_resume(machine: Machine, event) -> None:
    # A resumed path re-warms and refills the rate window; progress and
    # throughput expectations re-arm from the resume instant.
    machine.set("last_progress", event.time)
    machine.set("printing_since", event.time)


def _on_progress(machine: Machine, event) -> None:
    machine.set("last_progress", event.time)


def _on_job_done(machine: Machine, event) -> None:
    machine.set("jobs", max(0, machine.get("jobs") - 1))


def build_printer_model() -> Machine:
    """Job-lifecycle spec: idle / printing / paused with queue depth and
    throughput expectations (the PR 4 detection-depth observables)."""
    return _printer_chart().spawn(
        {"jobs": 0, "last_progress": 0.0, "printing_since": 0.0}
    )


@lru_cache(maxsize=None)
def _printer_chart() -> Machine:
    """The printer spec chart (states and transitions), built once."""
    b = MachineBuilder("printer_spec")
    b.state("idle")
    b.state("printing")
    b.state("paused")
    b.initial("idle")
    b.transition("idle", "printing", event="submit", action=_on_start_printing)
    b.transition("printing", None, event="submit", action=_on_submit, internal=True)
    b.transition("paused", None, event="submit", action=_on_submit, internal=True)
    b.transition("printing", "paused", event="pause")
    b.transition("paused", "printing", event="resume", action=_on_resume)
    b.transition(
        "printing",
        None,
        event="page",
        action=_on_progress,
        internal=True,
    )
    b.transition(
        "printing", None, event="job_done", action=_on_job_done, internal=True
    )
    b.transition(
        "paused", None, event="job_done", action=_on_job_done, internal=True
    )
    b.transition(
        "printing",
        "idle",
        event="all_jobs_done",
        action=lambda m, e: m.set("jobs", 0),
    )
    b.transition("printing", "idle", event="cancel", action=lambda m, e: m.set("jobs", 0))
    b.transition("paused", "idle", event="cancel", action=lambda m, e: m.set("jobs", 0))
    return b.build(initialize=False)


def expected_status(machine: Machine) -> str:
    return machine.configuration().split(".")[-1]


def expected_progressing(machine: Machine) -> bool:
    """While printing, a page must land within the slack window."""
    if expected_status(machine) != "printing":
        return True
    stalled_for = machine.time - machine.get("last_progress")
    return stalled_for <= NOMINAL_PAGE_TIME * PAGE_TIME_SLACK


def expected_queue_depth(machine: Machine) -> int:
    """Jobs submitted but not yet completed — the depth the SUO's
    ``queue`` observable must track (consistency observable)."""
    return machine.get("jobs")


def expected_page_rate(machine: Machine) -> float:
    """The throughput floor the spec predicts (pages per time unit).

    Zero while idle or paused; after entering ``printing`` the
    expectation ramps linearly over :data:`RATE_RAMP` (bounded warmup +
    window fill) up to :data:`NOMINAL_PAGE_RATE`.  A silently jammed
    feeder keeps reporting ``printing`` while the observed rate decays
    to zero — the divergence the throughput observable detects even
    though the control state still looks plausible.
    """
    if expected_status(machine) != "printing":
        return 0.0
    ramp = machine.time - machine.get("printing_since")
    if ramp >= RATE_RAMP:
        return NOMINAL_PAGE_RATE
    return NOMINAL_PAGE_RATE * max(0.0, ramp) / RATE_RAMP


def default_printer_config() -> AwarenessConfig:
    config = AwarenessConfig()
    # Job completion is a multi-event burst (job_done, queue, status out;
    # all_jobs_done in) whose parts cross the two channels with
    # independent jitter — up to ~4 comparisons at distinct instants can
    # see the SUO's new status against the model's pre-completion state,
    # so the streak must outlast the skew window (printer-jam-drill
    # surfaced a drain-to-idle false alarm at max_consecutive=2).
    config.observable("status", max_consecutive=4, trigger="both", period=0.5)
    config.observable(
        "progressing", max_consecutive=2, trigger="time", period=1.0, severity=2.0
    )
    config.observable(
        "page_quality", threshold=0.25, max_consecutive=3, trigger="event",
        severity=1.5,
    )
    # PR 4 detection depth: queue-depth consistency (±1 rides out the
    # channel skew between a submit crossing the input channel and the
    # matching queue event crossing the output channel; max_consecutive
    # additionally covers multi-job bursts landing in one instant) and
    # the throughput floor (time-sampled so a silent jam is caught even
    # while the SUO emits nothing at all).
    config.observable(
        "queue", threshold=1.0, max_consecutive=4, trigger="both", period=1.0,
    )
    config.observable(
        "page_rate", threshold=0.7, max_consecutive=3, trigger="time",
        period=1.0, severity=1.5,
    )
    return config


def _printer_translator(observation: Observation) -> Optional[Tuple[str, Dict[str, Any]]]:
    if observation.name == "command":
        return observation.value, {}
    if observation.name in ("page", "job_done", "all_jobs_done"):
        return observation.name, {}
    return None


def make_printer_monitor(
    printer: Printer,
    config: Optional[AwarenessConfig] = None,
    channel_delay: float = 0.05,
    channel_jitter: float = 0.02,
    start: bool = True,
    name: Optional[str] = None,
) -> AwarenessMonitor:
    """Attach a fully wired awareness monitor to a printer.

    Attachment is topic-based (like the TV and player monitors): the
    printer publishes commands and output events on the runtime bus
    under ``suo.<suo_id>.*``, and the monitor subscribes — nothing on
    the SUO is patched, so fleets attach monitors the same way probes
    attach.
    """
    machine = build_printer_model()
    monitor = AwarenessMonitor(
        printer.kernel,
        machine,
        _printer_translator,
        providers={
            "status": expected_status,
            "progressing": expected_progressing,
            # Fused pages must be near-perfect; the observable compares the
            # model's constant expectation against the last page quality.
            "page_quality": lambda m: 1.0,
            "queue": expected_queue_depth,
            "page_rate": expected_page_rate,
        },
        config=config or default_printer_config(),
        channel_delay=channel_delay,
        channel_jitter=channel_jitter,
        name=name or "printer-awareness",
    )
    bus = printer.kernel.bus
    bus.subscribe(
        f"suo.{printer.suo_id}.input",
        lambda _topic, command: monitor.send_input(
            "command", command, printer.kernel.now
        ),
    )

    def forward_output(_topic: str, output) -> None:
        output_name, value = output
        now = printer.kernel.now
        monitor.send_output(output_name, value, now)
        # page deliveries and job completions are also model inputs
        if output_name == "pages_done":
            monitor.send_input("page", value, now)
        if output_name == "job_done":
            monitor.send_input("job_done", value, now)
        if output_name == "status" and value == "idle":
            monitor.send_input("all_jobs_done", None, now)
        # The 'progressing' observable captures the silent-jam class of
        # fault.  The SUO reports True (it *believes* it is making
        # progress) whenever it emits page/queue activity; the model-side
        # provider recomputes whether progress actually arrives within
        # the spec's timing window.  A silently jammed feeder keeps the
        # system's belief at True while the model's verdict flips to
        # False — the divergence is the error, found by time-based
        # comparison (the system alone would never notice).
        if output_name in ("pages_done", "queue"):
            monitor.send_output("progressing", True, now)

    bus.subscribe(f"suo.{printer.suo_id}.output", forward_output)
    monitor.attach_resync(lambda: resync_printer_monitor(monitor, printer))
    if start:
        monitor.start()
    return monitor


def resync_printer_monitor(monitor: AwarenessMonitor, printer: Printer) -> None:
    """Re-seed a printer monitor from the printer's observable state
    (the restart handshake — see :meth:`Machine.reseed`).

    The model adopts the printer's current status and queue depth, and
    the progress/throughput expectations re-arm at the restart instant
    (``printing_since`` restarts the rate ramp, so a monitor restarted
    mid-job does not flag the window refill).  A still-jammed feeder is
    re-detected once the re-armed slack window elapses with no pages.
    """
    now = printer.kernel.now
    status = printer.status if printer.status in ("idle", "printing", "paused") else "idle"
    monitor.executor.machine.reseed(
        status,
        now,
        vars={
            "jobs": len(printer.queue),
            "last_progress": now,
            "printing_since": now,
        },
    )
    for name, value in (
        ("status", printer.status),
        ("queue", len(printer.queue)),
        ("pages_done", len(printer.pages)),
        ("page_rate", round(printer.page_rate(), 3)),
        ("progressing", True),
    ):
        monitor.output_observer.latest[name] = Observation(
            time=now, source="suo", name=name, value=value
        )
    monitor.comparator.reset()
