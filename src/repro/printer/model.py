"""Specification model of the printer SUO.

The same recipe as the TV: a partial, user-view state machine (job
lifecycle and throughput expectations) and expected-value providers;
:data:`repro.products.PRINTER` adds the monitor adaptation of Fig. 2.

The throughput observable shows the approach extending beyond pure
control state: the model predicts a *minimum page rate* while printing;
a silently jammed feeder violates it even though the control state still
looks plausible.
"""

from __future__ import annotations

from functools import lru_cache

from ..statemachine.builder import MachineBuilder
from ..statemachine.machine import Machine

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
