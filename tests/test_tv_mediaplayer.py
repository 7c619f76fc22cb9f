"""Tests for the media-player SUO (the MPlayer analogue)."""

import pytest

from repro.sim import Kernel
from repro.statemachine import Event, ModelChecker
from repro.tv import (
    MediaPlayer,
    MediaSource,
    build_player_model,
    expected_player_state,
)


def make_player(**source_kwargs):
    kernel = Kernel()
    source = MediaSource(**source_kwargs)
    return kernel, MediaPlayer(kernel, source)


class TestCommands:
    def test_initial_state_stopped(self):
        _, player = make_player()
        assert player.state == "stopped"
        assert player.position == 0.0

    def test_play_starts_rendering(self):
        kernel, player = make_player(packet_count=50)
        player.command("play")
        kernel.run(until=10.0)
        assert player.state == "playing"
        assert player.frames_rendered > 0
        assert player.position > 0.0

    def test_pause_freezes_position(self):
        kernel, player = make_player(packet_count=200)
        player.command("play")
        kernel.run(until=10.0)
        player.command("pause")
        paused_at = player.position
        kernel.run(until=20.0)
        assert player.position == pytest.approx(paused_at, abs=0.5)

    def test_stop_resets(self):
        kernel, player = make_player(packet_count=50)
        player.command("play")
        kernel.run(until=5.0)
        player.command("stop")
        assert player.state == "stopped"
        assert player.position == 0.0

    def test_seek_moves_position(self):
        kernel, player = make_player(packet_count=200)
        player.command("play")
        kernel.run(until=5.0)
        player.command("seek", position=30.0)
        assert player.position == pytest.approx(30.0)

    def test_unknown_command_rejected(self):
        _, player = make_player()
        with pytest.raises(ValueError):
            player.command("rewind_time_itself")

    def test_output_topic_fires(self):
        kernel, player = make_player(packet_count=50)
        events = []
        kernel.bus.subscribe(
            "suo.player.output", lambda _topic, event: events.append(event[0])
        )
        player.command("play")
        kernel.run(until=5.0)
        assert "state" in events
        assert "position" in events


class TestFaults:
    def test_corrupt_packet_concealed_by_default(self):
        kernel, player = make_player(packet_count=60, corrupt_indices=[10])
        player.command("play")
        kernel.run(until=60.0)
        assert not player.stalled
        assert player.frames_rendered >= 50  # one packet concealed

    def test_stall_on_corrupt_wedges_decoder(self):
        kernel, player = make_player(packet_count=60, corrupt_indices=[10])
        player.stall_on_corrupt = True
        player.command("play")
        kernel.run(until=60.0)
        assert player.stalled
        assert player.frames_rendered <= 11

    def test_decode_slowdown_reduces_throughput(self):
        kernel_fast, fast = make_player(packet_count=300)
        fast.command("play")
        kernel_fast.run(until=40.0)

        kernel_slow, slow = make_player(packet_count=300)
        slow.decode_slowdown = 4.0
        slow.command("play")
        kernel_slow.run(until=40.0)
        assert slow.frames_rendered < fast.frames_rendered


class TestPlayerModel:
    def test_model_follows_command_cycle(self):
        spec = build_player_model()
        assert expected_player_state(spec) == "stopped"
        spec.inject("play")
        assert expected_player_state(spec) == "playing"
        spec.inject("pause")
        assert expected_player_state(spec) == "paused"
        spec.inject("play")
        assert expected_player_state(spec) == "playing"
        spec.inject("stop")
        assert expected_player_state(spec) == "stopped"

    def test_model_check_over_full_alphabet(self):
        alphabet = [
            Event(name) for name in ("pause", "play", "progress", "seek", "stop")
        ]
        report = ModelChecker(build_player_model(), alphabet).run()
        assert report.truncated is False
        assert report.states_explored == 7
        assert report.ok()

    def test_model_ignores_invalid_transitions(self):
        spec = build_player_model()
        spec.inject("pause")  # pause while stopped: no transition
        assert expected_player_state(spec) == "stopped"

    def test_model_and_player_agree_without_faults(self):
        kernel, player = make_player(packet_count=500)
        spec = build_player_model()
        commands = ["play", "pause", "play", "seek", "pause", "play", "stop"]
        time = 0.0
        for command in commands:
            time += 3.0
            kernel.run(until=time)
            if command == "seek":
                player.command("seek", position=10.0)
            else:
                player.command(command)
            spec.advance(time)
            spec.inject(command)
            assert expected_player_state(spec) == player.state
