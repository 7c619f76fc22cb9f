"""Awareness for a media player: the Sect. 5 MPlayer experiments.

The paper's second SUO: an open-source media player monitored for both
*correctness* (a corrupt packet wedges the decoder; the control state
diverges from the model) and *performance* (a decoder slowdown silently
halves throughput).

Run:  python examples/media_player_awareness.py
"""

from repro.products import PLAYER, make_monitor
from repro.sim import Kernel
from repro.tv import MediaPlayer, MediaSource


def correctness_demo() -> None:
    print("== correctness: decoder wedged by a corrupt packet ==")
    kernel = Kernel()
    player = MediaPlayer(kernel, MediaSource(packet_count=200, corrupt_indices=[30]))
    player.stall_on_corrupt = True  # the injected fault
    monitor = make_monitor(PLAYER, player)

    kernel.run(until=1.0)
    player.command("play")
    kernel.run(until=30.0)
    print(f"  player state: {player.state!r}, stalled={player.stalled}, "
          f"frames={player.frames_rendered}")

    # the user gives up and pauses/stops; the dead pipeline stops obeying
    player.command("pause")
    player._cmd_stop = lambda: None  # the stall also wedged the stop path
    kernel.run(until=35.0)
    player.command("stop")
    kernel.run(until=50.0)
    for error in monitor.errors:
        print(f"  ERROR on {error.observable!r}: expected {error.expected!r}, "
              f"observed {error.actual!r}")


def performance_demo() -> None:
    print("\n== performance: silent decoder slowdown ==")

    def run(slowdown):
        kernel = Kernel()
        player = MediaPlayer(kernel, MediaSource(packet_count=400))
        player.decode_slowdown = slowdown
        player.command("play")
        kernel.run(until=60.0)
        return player.frames_rendered

    nominal = run(1.0)
    slowed = run(3.0)
    print(f"  frames in 60s: nominal={nominal}, slowed={slowed} "
          f"({slowed / nominal:.0%} of nominal)")
    print("  a throughput observable with a time-based comparator catches "
          "this class of degradation.")


if __name__ == "__main__":
    correctness_demo()
    performance_demo()
