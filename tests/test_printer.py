"""Tests for the printer domain (Octopus, Sect. 5)."""


from repro.awareness import ModeConsistencyChecker, ModeRule
from repro.printer import (
    Printer,
    build_printer_model,
    expected_status,
)
from repro.products import PRINTER, make_monitor


class TestPaperPath:
    def test_job_prints_all_pages(self):
        printer = Printer()
        job = printer.submit(pages=4)
        printer.kernel.run(until=30.0)
        assert job.delivered
        assert job.pages_done == 4
        assert printer.status == "idle"
        assert len(printer.pages) == 4

    def test_warmup_gives_full_quality(self):
        printer = Printer()
        printer.submit(pages=3)
        printer.kernel.run(until=30.0)
        assert printer.mean_quality() > 0.95

    def test_queue_processes_in_order(self):
        printer = Printer()
        first = printer.submit(pages=2)
        second = printer.submit(pages=2)
        printer.kernel.run(until=40.0)
        assert first.delivered and second.delivered
        assert [p.job_id for p in printer.pages] == [1, 1, 2, 2]

    def test_pause_and_resume(self):
        printer = Printer()
        printer.submit(pages=10)
        printer.kernel.run(until=8.0)
        printer.pause()
        pages_at_pause = len(printer.pages)
        printer.kernel.run(until=20.0)
        assert len(printer.pages) <= pages_at_pause + 1  # at most one in flight
        printer.resume()
        printer.kernel.run(until=60.0)
        assert len(printer.pages) == 10

    def test_cancel_clears_queue(self):
        printer = Printer()
        printer.submit(pages=100)
        printer.kernel.run(until=8.0)
        printer.cancel_all()
        printer.kernel.run(until=20.0)
        assert printer.status == "idle"
        assert printer.queue == []

    def test_stapling(self):
        printer = Printer()
        printer.submit(pages=3, staple=True)
        printer.kernel.run(until=30.0)
        assert printer.finisher.staples_used == 3
        assert all(p.stapled for p in printer.pages)

    def test_lost_staples_fault(self):
        printer = Printer()
        printer.inject_lost_staples()
        printer.submit(pages=3, staple=True)
        printer.kernel.run(until=30.0)
        assert printer.finisher.staples_used == 0
        assert not any(p.stapled for p in printer.pages)

    def test_silent_jam_stalls_without_mode_change(self):
        printer = Printer()
        printer.submit(pages=20)
        printer.kernel.run(until=8.0)
        pages_before = len(printer.pages)
        printer.inject_silent_jam()
        printer.kernel.run(until=40.0)
        assert len(printer.pages) <= pages_before + 1
        # the fault's signature: still claims to be feeding/printing
        assert printer.component_modes()["feeder"] == "feeding"
        assert printer.status == "printing"

    def test_clear_jam_resumes(self):
        printer = Printer()
        printer.submit(pages=6)
        printer.kernel.run(until=8.0)
        printer.inject_silent_jam()
        printer.kernel.run(until=20.0)
        printer.clear_jam()
        printer.kernel.run(until=80.0)
        assert len(printer.pages) == 6
        assert printer.status == "idle"

    def test_cold_fuser_degrades_quality(self):
        printer = Printer()
        printer.inject_cold_fuser(0.1)
        printer.submit(pages=5)
        printer.kernel.run(until=40.0)
        assert printer.mean_quality() < 0.5

    def test_repair_fuser_restores_quality(self):
        printer = Printer()
        printer.inject_cold_fuser(0.1)
        printer.submit(pages=3)
        printer.kernel.run(until=40.0)
        printer.repair_fuser()
        printer.submit(pages=3)
        printer.kernel.run(until=80.0)
        late_pages = printer.pages[-3:]
        assert sum(p.quality for p in late_pages) / 3 > 0.9


class TestPrinterModel:
    def test_job_lifecycle(self):
        spec = build_printer_model()
        assert expected_status(spec) == "idle"
        spec.inject("submit")
        assert expected_status(spec) == "printing"
        spec.inject("pause")
        assert expected_status(spec) == "paused"
        spec.inject("resume")
        spec.inject("all_jobs_done")
        assert expected_status(spec) == "idle"

    def test_job_counting(self):
        spec = build_printer_model()
        spec.inject("submit")
        spec.inject("submit")
        assert spec.get("jobs") == 2
        spec.inject("cancel")
        assert spec.get("jobs") == 0


class TestPrinterMonitor:
    def test_healthy_run_no_errors(self):
        printer = Printer()
        monitor = make_monitor(PRINTER, printer)
        printer.submit(pages=5, staple=True)
        printer.kernel.run(until=40.0)
        printer.submit(pages=2)
        printer.kernel.run(until=80.0)
        assert monitor.errors == []

    def test_pause_resume_no_errors(self):
        printer = Printer()
        monitor = make_monitor(PRINTER, printer)
        printer.submit(pages=8)
        printer.kernel.run(until=8.0)
        printer.pause()
        printer.kernel.run(until=20.0)
        printer.resume()
        printer.kernel.run(until=60.0)
        assert monitor.errors == []

    def test_silent_jam_detected_by_progress_check(self):
        printer = Printer()
        monitor = make_monitor(PRINTER, printer)
        printer.submit(pages=20)
        printer.kernel.run(until=8.0)
        printer.inject_silent_jam()
        printer.kernel.run(until=40.0)
        observables = {e.observable for e in monitor.errors}
        assert "progressing" in observables

    def test_cold_fuser_detected_by_quality_check(self):
        printer = Printer()
        monitor = make_monitor(PRINTER, printer)
        printer.inject_cold_fuser(0.1)
        printer.submit(pages=6)
        printer.kernel.run(until=40.0)
        observables = {e.observable for e in monitor.errors}
        assert "page_quality" in observables

    def test_closed_loop_jam_recovery(self):
        """Detection drives repair: the Fig. 1 loop on the second domain."""
        printer = Printer()
        monitor = make_monitor(PRINTER, printer)
        monitor.controller.subscribe_errors(
            lambda report: printer.clear_jam()
            if report.observable == "progressing"
            else None
        )
        printer.submit(pages=10)
        printer.kernel.run(until=8.0)
        printer.inject_silent_jam()
        # the jam itself stays (hardware), but clear_jam resets the path;
        # model the repair as also fixing the roller:
        monitor.controller.subscribe_errors(
            lambda report: setattr(printer.feeder, "silently_jammed", False)
        )
        printer.kernel.run(until=120.0)
        assert len(printer.pages) == 10
        assert printer.status == "idle"

    def test_mode_consistency_rule_on_printer(self):
        """A domain-specific mode rule: the feeder may not report
        'feeding' while the printer has been idle for a while."""
        printer = Printer()
        checker = ModeConsistencyChecker(
            printer.kernel, printer.component_modes, interval=1.0
        )

        def feeding_implies_printing(modes):
            if modes["feeder"] == "feeding" and modes["printer"] != "printing":
                return "feeder active while printer not printing"
            return None

        checker.add_rule(
            ModeRule("feeding-implies-printing", feeding_implies_printing,
                     max_consecutive=3)
        )
        checker.start()
        printer.submit(pages=5)
        printer.kernel.run(until=60.0)
        assert checker.reports == []  # healthy run satisfies the rule
