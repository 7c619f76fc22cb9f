"""E13 — Sect. 2 / Sect. 5: the cost constraint of the approach itself.

The Trader challenge is to improve dependability "with minimal additional
hardware costs and without degrading performance", and Sect. 5 notes "the
constraint to minimize overhead is a limiting factor".

This bench measures what attaching the awareness stack costs on our
substrate: wall-clock time and simulation-event count for the *same*
workload bare, with the Fig. 2 monitor, and with the full integrated
stack (monitor + mode checker + online diagnosis + recovery loop).  The
assertion is the paper's constraint: monitoring must stay within a small
multiple of the bare system.
"""

import time as wallclock
from dataclasses import replace


from repro.products import TV, make_monitor
from repro.campaign import run_cell
from repro.core import TraderTV
from repro.scenarios import get_scenario
from repro.tv import TVSet

from conftest import print_table, qscale, run_once

WORKLOAD = [
    "power", "ch_up", "ch_up", "vol_up", "ttx", "ttx", "menu", "back",
    "dual", "swap", "dual", "epg", "epg", "mute", "mute", "ch_down",
    "ttx", "ch_up", "ttx", "power",
] * 3


def drive(tv):
    for key in WORKLOAD:
        tv.press(key)
        tv.run(3.0)
    tv.run(5.0)
    return tv.kernel.dispatched_count


def run_bare():
    start = wallclock.perf_counter()
    tv = TVSet(seed=55)
    events = drive(tv)
    return wallclock.perf_counter() - start, events


def run_monitored():
    start = wallclock.perf_counter()
    tv = TVSet(seed=55)
    make_monitor(TV, tv)
    events = drive(tv)
    return wallclock.perf_counter() - start, events


def run_full_stack():
    start = wallclock.perf_counter()
    system = TraderTV(seed=55)
    events = drive(system.tv)
    return wallclock.perf_counter() - start, events


def test_e13_monitoring_overhead(benchmark):
    def experiment():
        rows = {}
        # interleave repetitions so machine noise spreads evenly
        samples = {"bare": [], "monitored": [], "full stack": []}
        events = {}
        for _ in range(qscale(3, 2)):
            for name, runner in (
                ("bare", run_bare),
                ("monitored", run_monitored),
                ("full stack", run_full_stack),
            ):
                elapsed, dispatched = runner()
                samples[name].append(elapsed)
                events[name] = dispatched
        for name in samples:
            rows[name] = (min(samples[name]), events[name])
        return rows

    rows = run_once(benchmark, experiment)
    bare_time, bare_events = rows["bare"]
    table = [
        [
            name,
            f"{elapsed * 1000:.1f} ms",
            dispatched,
            f"{elapsed / bare_time:.2f}x",
        ]
        for name, (elapsed, dispatched) in rows.items()
    ]
    print_table(
        "E13: cost of attaching the awareness stack "
        "(paper: dependability without degrading performance)",
        ["configuration", "wall time (best of 3)", "sim events", "slowdown"],
        table,
    )
    monitored_time, monitored_events = rows["monitored"]
    full_time, full_events = rows["full stack"]
    # The monitor multiplies event counts (channels, sampling loops), but
    # the end-to-end cost must stay within a small constant factor.
    assert monitored_events < 10 * bare_events
    assert monitored_time < 10 * bare_time
    assert full_time < 25 * bare_time


def test_e13_span_recorder_overhead(benchmark):
    """Causal-span recording must honor the same Sect. 2 constraint.

    The recovery-ladder drill runs with and without ``record_spans``,
    repetitions interleaved, best-of compared: the recorder may cost at
    most 5% wall clock — it stays off the ``suo.*`` firehose (exact
    error topics + the ``obs.*`` marker lane), so its handlers fire a
    handful of times per episode, not per event.  The run with the
    recorder enabled must also leave every existing determinism witness
    byte-identical: span markers live on their own namespace precisely
    so the fleet trace digest and the telemetry digest cannot see them.
    """
    spec = get_scenario("recovery-ladder-drill")
    spans_spec = replace(spec, record_spans=True)

    def experiment():
        samples = {"disabled": [], "enabled": []}
        reports = {}
        for _ in range(qscale(5, 3)):
            for name, cell in (("disabled", spec), ("enabled", spans_spec)):
                start = wallclock.perf_counter()
                reports[name] = run_cell(cell, 7)
                samples[name].append(wallclock.perf_counter() - start)
        return {name: min(times) for name, times in samples.items()}, reports

    best, reports = run_once(benchmark, experiment)
    spans = reports["enabled"].spans
    print_table(
        "E13c: cost of causal-span recording (recovery-ladder-drill)",
        ["configuration", "wall time (best of reps)", "episodes", "overhead"],
        [
            ["record_spans=False", f"{best['disabled'] * 1000:.1f} ms", "-",
             "1.00x"],
            ["record_spans=True", f"{best['enabled'] * 1000:.1f} ms",
             spans.get("completed", 0),
             f"{best['enabled'] / best['disabled']:.3f}x"],
        ],
    )
    # the <5% overhead gate (ROADMAP: observability without cost)
    assert best["enabled"] <= best["disabled"] * 1.05, (
        f"span recording cost {best['enabled'] / best['disabled']:.3f}x, "
        "budget is 1.05x"
    )
    # recording must not perturb any existing determinism witness
    assert (
        reports["enabled"].telemetry_digest
        == reports["disabled"].telemetry_digest
    )
    assert (
        reports["enabled"].shard_trace_digests
        == reports["disabled"].shard_trace_digests
    )
    # and it must have actually stitched the drill's episodes
    assert spans.get("completed", 0) > 0
    assert spans.get("forest_digest")


def test_e13_comparison_rate(benchmark):
    """Throughput of the comparator itself: comparisons per wall second."""

    def measure():
        tv = TVSet(seed=55)
        monitor = make_monitor(TV, tv)
        start = wallclock.perf_counter()
        drive(tv)
        elapsed = wallclock.perf_counter() - start
        comparisons = monitor.comparator.stats.comparisons
        return comparisons, comparisons / elapsed

    comparisons, rate = run_once(benchmark, measure)
    print_table(
        "E13b: comparator throughput",
        ["comparisons in workload", "comparisons / wall second"],
        [[comparisons, f"{rate:,.0f}"]],
    )
    assert comparisons > 500
