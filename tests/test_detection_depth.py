"""Tests for the PR 4 detection-depth observables.

The player's position/buffer/pace observables and the printer's
queue-depth/page-rate observables exist so the faults that were invisible
to the coarse state observable (a wedged decoder, a silently jammed
feeder) move something a monitor can compare against the spec model.
Each fault class gets three checks: the engine observable moves, the
comparator flags the divergence, and the restart re-sync covers the new
state so a churned monitor does not false-alarm.
"""

import pytest

from repro.printer import Printer
from repro.products import PLAYER, PRINTER, make_monitor
from repro.sim import Kernel
from repro.tv import MediaPlayer, MediaSource


def make_player(**source_kwargs):
    kernel = Kernel()
    player = MediaPlayer(kernel, MediaSource(**source_kwargs), suo_id="p0")
    return kernel, player


# ----------------------------------------------------------------------
# player: the observables move
# ----------------------------------------------------------------------
class TestPlayerObservables:
    def test_position_and_buffer_published(self):
        kernel, player = make_player(packet_count=60)
        events = []
        kernel.bus.subscribe("suo.p0.output", lambda _topic, event: events.append(event))
        player.command("play")
        kernel.run(until=10.0)
        names = {name for name, _value in events}
        assert {"state", "position", "buffer"} <= names
        levels = [value for name, value in events if name == "buffer"]
        assert all(0 <= level <= player.BUFFER_CAPACITY for level in levels)

    def test_stall_pegs_buffer_and_freezes_position(self):
        kernel, player = make_player(packet_count=60, corrupt_indices=[10])
        player.stall_on_corrupt = True
        player.command("play")
        kernel.run(until=30.0)
        assert player.stalled
        frozen = player.position
        assert player.buffer_level() == player.BUFFER_CAPACITY  # demux filled it
        kernel.run(until=40.0)
        assert player.position == frozen

    def test_seek_discards_inflight_frames(self):
        """No frame from before a seek may be presented after it — one
        stale pts would teach the monitor a pre-seek position."""
        kernel, player = make_player(packet_count=500)
        player.command("play")
        kernel.run(until=10.0)
        positions = []
        kernel.bus.subscribe(
            "suo.p0.output",
            lambda _topic, event: positions.append(event[1])
            if event[0] == "position" else None,
        )
        player.command("seek", position=100.0)
        kernel.run(until=14.0)
        assert positions, "playback must resume after the seek"
        assert all(pos >= 99.9 for pos in positions)

    def test_seek_revives_a_finished_demuxer(self):
        """Seeking past the end and back must not starve the pipeline."""
        kernel, player = make_player(packet_count=100)  # media ends at 40.0
        player.command("play")
        kernel.run(until=5.0)
        player.command("seek", position=39.0)  # demux runs off the end
        kernel.run(until=10.0)
        player.command("seek", position=10.0)  # back into the media
        rendered_before = player.frames_rendered
        kernel.run(until=20.0)
        assert player.frames_rendered > rendered_before
        assert player.position > 10.0


# ----------------------------------------------------------------------
# player: the monitor flags the divergence
# ----------------------------------------------------------------------
class TestPlayerMonitorDepth:
    def test_stall_detected_via_progressing(self):
        kernel, player = make_player(packet_count=200, corrupt_indices=[30])
        monitor = make_monitor(PLAYER, player, name="p0.awareness")
        player.stall_on_corrupt = True
        player.command("play")
        kernel.run(until=40.0)
        assert player.stalled
        observables = {e.observable for e in monitor.errors}
        assert "progressing" in observables

    def test_slowdown_detected_via_pace(self):
        kernel, player = make_player(packet_count=300)
        monitor = make_monitor(PLAYER, player, name="p0.awareness")
        player.decode_slowdown = 3.0
        player.command("play")
        kernel.run(until=30.0)
        observables = {e.observable for e in monitor.errors}
        assert "pace" in observables

    def test_healthy_seek_stress_no_false_alarm(self):
        import random

        kernel, player = make_player(packet_count=500, corrupt_indices=[40, 41])
        monitor = make_monitor(PLAYER, player, name="p0.awareness")
        rng = random.Random(9)
        player.command("play")

        def seek_loop():
            if player.state != "stopped":
                player.command("seek", position=rng.uniform(0.0, 180.0))
            kernel.schedule(3.0, seek_loop)

        kernel.schedule(3.0, seek_loop)
        kernel.run(until=60.0)
        assert monitor.errors == []

    def test_end_of_media_is_not_a_stall(self):
        kernel, player = make_player(packet_count=50)  # media ends at 20.0
        monitor = make_monitor(PLAYER, player, name="p0.awareness")
        player.command("play")
        kernel.run(until=60.0)
        assert player.state == "playing"  # nobody pressed stop
        assert monitor.errors == []

    def test_resync_covers_position_and_pace_state(self):
        """A monitor restarted after missing a seek must adopt the
        player's current position and re-arm progress/pace — not replay
        expectations from the pre-stop state."""
        kernel, player = make_player(packet_count=500)
        monitor = make_monitor(PLAYER, player, name="p0.awareness")
        player.command("play")
        kernel.run(until=10.0)
        monitor.stop()
        kernel.run(until=12.0)
        player.command("seek", position=120.0)  # missed by the monitor
        kernel.run(until=15.0)
        monitor.start()
        machine = monitor.executor.machine
        assert monitor.resyncs == 1
        assert machine.get("position") == pytest.approx(player.position)
        assert machine.get("last_progress") == pytest.approx(15.0)
        kernel.run(until=40.0)
        assert monitor.errors == []


# ----------------------------------------------------------------------
# printer: the observables move and the monitor sees the jam
# ----------------------------------------------------------------------
class TestPrinterDepth:
    def test_page_rate_tracks_throughput(self):
        printer = Printer(suo_id="pr0")
        rates = []
        printer.kernel.bus.subscribe(
            "suo.pr0.output",
            lambda _topic, event: rates.append((printer.kernel.now, event[1]))
            if event[0] == "page_rate" else None,
        )
        printer.submit(pages=12)
        printer.kernel.run(until=20.0)
        assert rates, "the periodic publisher must sample while printing"
        assert max(rate for _t, rate in rates) > 0.5  # steady path near nominal

    def test_jam_decays_page_rate_to_zero(self):
        printer = Printer(suo_id="pr0")
        printer.submit(pages=30)
        printer.kernel.run(until=10.0)
        assert printer.page_rate() > 0.5
        printer.inject_silent_jam()
        printer.kernel.run(until=25.0)
        assert printer.page_rate() == 0.0
        assert printer.status == "printing"  # the lie the monitor catches

    def test_job_done_published_per_job(self):
        printer = Printer(suo_id="pr0")
        done = []
        printer.kernel.bus.subscribe(
            "suo.pr0.output",
            lambda _topic, event: done.append(event[1])
            if event[0] == "job_done" else None,
        )
        printer.submit(pages=2)
        printer.submit(pages=1)
        printer.kernel.run(until=30.0)
        assert done == [1, 2]

    def test_jam_detected_via_throughput_floor(self):
        printer = Printer(suo_id="pr0")
        monitor = make_monitor(PRINTER, printer, name="pr0.awareness")
        printer.submit(pages=30)
        printer.kernel.run(until=10.0)
        printer.inject_silent_jam()
        printer.kernel.run(until=40.0)
        observables = {e.observable for e in monitor.errors}
        assert "page_rate" in observables
        assert "progressing" in observables

    def test_queue_depth_consistency_no_false_alarm_under_bursts(self):
        printer = Printer(suo_id="pr0")
        monitor = make_monitor(PRINTER, printer, name="pr0.awareness")
        for at in (5.0, 15.0, 25.0):
            printer.kernel.schedule_at(
                at, lambda: [printer.submit(pages=n) for n in (2, 4, 3, 2)]
            )
        printer.kernel.run(until=90.0)
        assert monitor.errors == []
        assert printer.status == "idle"

    def test_resync_covers_queue_and_rate_state(self):
        """A monitor restarted mid-job adopts the printer's queue depth
        and re-arms the progress/throughput expectations."""
        printer = Printer(suo_id="pr0")
        monitor = make_monitor(PRINTER, printer, name="pr0.awareness")
        printer.submit(pages=20)
        printer.kernel.run(until=8.0)
        monitor.stop()
        printer.submit(pages=3)  # missed by the monitor
        printer.kernel.run(until=14.0)
        monitor.start()
        machine = monitor.executor.machine
        assert monitor.resyncs == 1
        assert machine.get("jobs") == len(printer.queue)
        assert machine.get("printing_since") == pytest.approx(14.0)
        printer.kernel.run(until=60.0)
        assert monitor.errors == []

    def test_buffer_probe_gauge_survives_pipeline_rebuild(self):
        """The observation layer sees the player's buffer through a
        gauge callable, so seeks/restarts that rebuild the stores do
        not leave the probe sampling a dead buffer."""
        from repro.observation import BufferProbe
        from repro.sim.trace import Trace

        kernel, player = make_player(packet_count=200)
        trace = Trace(clock=lambda: kernel.now)
        probe = BufferProbe(trace, kernel, interval=1.0)
        probe.watch_gauge("player.packets", player.buffer_level)
        probe.start()
        player.command("play")
        kernel.run(until=5.0)
        player.command("seek", position=30.0)  # stores rebuilt
        kernel.run(until=10.0)
        fills = [r.value["fill"] for r in trace.records if r.kind == "buffer"]
        assert len(fills) >= 9
        assert any(fill > 0 for fill in fills[-3:])  # still live post-seek

    def test_restarted_monitor_redetects_a_standing_jam(self):
        """Re-sync must not mask a fault: after restart the re-armed
        progress window elapses with no pages and the jam is re-found."""
        printer = Printer(suo_id="pr0")
        monitor = make_monitor(PRINTER, printer, name="pr0.awareness")
        printer.submit(pages=30)
        printer.kernel.run(until=10.0)
        printer.inject_silent_jam()
        printer.kernel.run(until=30.0)
        assert monitor.errors, "jam detected before the restart"
        monitor.stop()
        printer.kernel.run(until=32.0)
        monitor.start()
        before = len(monitor.errors)
        printer.kernel.run(until=60.0)
        assert len(monitor.errors) > before
