#!/usr/bin/env python
"""Profile the fleet dispatch hot path and dump the top of the profile.

Runs ONE fleet campaign — the E14 workload ``bench_e14_fleet.FLEET_SPEC``
that the ``run_all.py`` fleet probe also runs — through
``run_cell_detailed`` under ``cProfile`` and prints the top-20
functions by cumulative time (plus the top-20 by internal time, which
is where dispatch-loop regressions actually show up).  CI uploads the
dump as a workflow artifact next to ``/tmp/bench.json`` so a perf-floor
failure comes with the profile that explains it.

Usage::

    python benchmarks/profile_dispatch.py               # print to stdout
    python benchmarks/profile_dispatch.py --out /tmp/profile_dispatch.txt
    python benchmarks/profile_dispatch.py --members 30 --duration 10

The workload is deterministic (fixed seed), so two dumps from the
same code differ only in timings, never in call counts: a changed
``ncalls`` column between two runs is a behavior change, not noise.

cProfile charges a garbage-collector pause to whichever allocation set
it off, so the header above the tables also reports the collector on
its own: collections per generation and their total pause during the
profiled run (from ``gc.callbacks``), and the GC-tracked objects one
compiled fleet member adds.  See docs/PERF.md for how to read the dump.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import os
import pstats
import sys
import time
from dataclasses import replace

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from bench_e14_fleet import FLEET_SEED, FLEET_SPEC  # noqa: E402

from repro.campaign import run_cell_detailed  # noqa: E402
from repro.scenarios import CompiledScenario  # noqa: E402

TOP = 20


class GcPauses:
    """Collections per generation and their total pause, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.pause_s += time.perf_counter() - self._started

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _live_objects() -> int:
    while gc.collect():  # some garbage takes more than one pass to free
        pass
    return len(gc.get_objects())


def tracked_objects_per_member(spec) -> float:
    """GC-tracked objects one compiled member adds: SUO, monitor, workload."""
    CompiledScenario(replace(spec, tvs=1), FLEET_SEED)  # warm per-process caches
    before = _live_objects()
    compiled = CompiledScenario(spec, FLEET_SEED)
    added = _live_objects() - before
    del compiled
    return added / spec.tvs


def profile_fleet_tick(members: int, duration: float) -> tuple:
    """Run one fleet campaign under cProfile.

    Returns (report, stats, gc pauses, tracked objects per member).
    """
    # Fault phases keep their share of the run (t=20 of 60 by default).
    share = duration / FLEET_SPEC.duration
    spec = replace(
        FLEET_SPEC, tvs=members, duration=duration,
        phases=tuple(
            replace(phase, at=phase.at * share) for phase in FLEET_SPEC.phases
        ),
    )
    profiler = cProfile.Profile()
    with GcPauses() as pauses:
        profiler.enable()
        report = run_cell_detailed(spec, FLEET_SEED).fleet_report
        profiler.disable()
    per_member = tracked_objects_per_member(spec)
    return report, pstats.Stats(profiler), pauses, per_member


def render(
    report, stats: pstats.Stats, pauses: GcPauses, per_member: float,
    members: int, duration: float,
) -> str:
    out = io.StringIO()
    gen0, gen1, gen2 = pauses.collections
    out.write(
        f"fleet dispatch profile: {members} SUOs, {duration:g}s simulated, "
        f"seed {FLEET_SEED}\n"
        f"dispatched {report.dispatched:,} events "
        f"at {report.events_per_sec:,.0f} events/sec\n"
        f"trace digest {report.trace_digest}\n"
        f"gc: {gen0}/{gen1}/{gen2} collections (gen 0/1/2), "
        f"{pauses.pause_s * 1e3:.1f} ms total pause\n"
        f"gc-tracked objects per member: {per_member:.1f}\n\n"
    )
    stats.stream = out
    stats.sort_stats("cumulative").print_stats(TOP)
    stats.sort_stats("tottime").print_stats(TOP)
    return out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--members", type=int, default=100, help="fleet size (default 100)"
    )
    parser.add_argument(
        "--duration", type=float, default=60.0,
        help="simulated seconds (default 60)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the dump to this file (CI artifact path)",
    )
    args = parser.parse_args()

    report, stats, pauses, per_member = profile_fleet_tick(
        args.members, args.duration
    )
    dump = render(report, stats, pauses, per_member, args.members, args.duration)
    print(dump, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(dump)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
