"""Quickstart: attach a run-time awareness monitor to a simulated TV.

This is the smallest end-to-end use of the library:

1. build the simulated TV (the System Under Observation);
2. attach the Fig. 2 awareness monitor (spec model + observers + comparator);
3. use the TV normally — no errors;
4. inject a field fault — the monitor detects the divergence between the
   specification model and the real behaviour.

Run:  python examples/quickstart.py
"""

from repro.products import TV, make_monitor
from repro.tv import FaultInjector, TVSet


def main() -> None:
    # 1. the SUO ------------------------------------------------------
    tv = TVSet(seed=1)

    # 2. the awareness monitor ---------------------------------------
    monitor = make_monitor(TV, tv)

    # 3. normal use: zap around, no errors reported -------------------
    for key in ["power", "ch_up", "vol_up", "ttx", "ttx", "menu", "back"]:
        tv.press(key)
        tv.run(4.0)
    print(f"after normal use: {len(monitor.errors)} errors "
          f"({monitor.comparator.stats.comparisons} comparisons, "
          f"{monitor.comparator.stats.suppressed_transients} transients suppressed)")

    # 4. a field fault appears: the mute key handler dies --------------
    FaultInjector(tv).inject("mute_noop")
    tv.press("mute")
    tv.run(6.0)

    for error in monitor.errors:
        print(
            f"ERROR at t={error.time:.2f} on {error.observable!r}: "
            f"model expected {error.expected!r}, system shows {error.actual!r} "
            f"(after {error.consecutive} consecutive deviations)"
        )
    assert monitor.errors, "expected the fault to be detected"
    print("the monitor noticed what the user would have noticed.")


if __name__ == "__main__":
    main()
