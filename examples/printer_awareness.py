"""Awareness beyond TVs: the printer/copier domain (Octopus, Sect. 5).

The paper closes by noting that the model-based run-time awareness
concept carries over to printer/copiers (the Océ/Octopus project).  This
example runs the same monitor recipe on a simulated printer:

1. a healthy job — no errors;
2. a *silent paper jam*: the feeder stalls while still reporting
   'feeding'; the system believes it is printing, the model knows no page
   can take this long — detection drives the jam-clear repair;
3. a degraded fuser heater: pages keep coming but fused badly; the
   page-quality observable flags the divergence.

Run:  python examples/printer_awareness.py
"""

from repro.printer import Printer
from repro.products import PRINTER, make_monitor


def healthy_demo() -> None:
    print("== healthy job ==")
    printer = Printer()
    monitor = make_monitor(PRINTER, printer)
    printer.submit(pages=5, staple=True)
    printer.kernel.run(until=40.0)
    print(f"  {len(printer.pages)} pages, mean quality "
          f"{printer.mean_quality():.2f}, staples {printer.finisher.staples_used}, "
          f"errors: {len(monitor.errors)}")


def silent_jam_demo() -> None:
    print("\n== silent paper jam, closed loop ==")
    printer = Printer()
    monitor = make_monitor(PRINTER, printer)

    def repair(report) -> None:
        if report.observable != "progressing":
            return
        print(f"  t={printer.kernel.now:5.1f}  monitor: {report.observable} "
              f"diverged (system believes {report.actual!r}, model says "
              f"{report.expected!r}) -> clearing jam")
        printer.feeder.silently_jammed = False
        printer.clear_jam()

    monitor.controller.subscribe_errors(repair)
    printer.submit(pages=10)
    printer.kernel.run(until=8.0)
    print(f"  t={printer.kernel.now:5.1f}  jam occurs "
          f"(feeder mode stays {printer.feeder.mode!r})")
    printer.inject_silent_jam()
    printer.kernel.run(until=120.0)
    print(f"  final: {len(printer.pages)}/10 pages delivered, "
          f"status={printer.status!r}")


def cold_fuser_demo() -> None:
    print("\n== degraded fuser heater ==")
    printer = Printer()
    monitor = make_monitor(PRINTER, printer)
    printer.inject_cold_fuser(0.15)
    printer.submit(pages=6)
    printer.kernel.run(until=40.0)
    quality_errors = [e for e in monitor.errors if e.observable == "page_quality"]
    print(f"  mean page quality {printer.mean_quality():.2f} "
          f"(spec expects ~1.0); quality errors: {len(quality_errors)}")


if __name__ == "__main__":
    healthy_demo()
    silent_jam_demo()
    cold_fuser_demo()
