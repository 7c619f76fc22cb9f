"""Remote control: the user-input boundary of the TV.

The awareness framework observes "key presses from the remote control"
(Sect. 3) as its primary input events.  :class:`RemoteControl` delivers
key presses into the TV and publishes them on the runtime bus — the "SUO
modification" of Fig. 2 that sends input events to the Input Observer.

:class:`KeySequence` provides scripted scenarios (the 27-key-press
scenario of Sect. 4.4 is such a script) and :class:`RandomUser` generates
seeded random zapping sessions for the stress and coverage experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Sequence

from ..sim.kernel import Kernel
from ..sim.process import Delay, Interrupted, Process
from ..sim.random import RandomStreams

#: Every key the simulated remote can produce.
KEYS = (
    "power",
    "ch_up",
    "ch_down",
    "vol_up",
    "vol_down",
    "mute",
    "ttx",
    "menu",
    "back",
    "dual",
    "swap",
    "sleep",
    "epg",
    "ok",
    "lock",
) + tuple(f"digit{d}" for d in range(10))


@dataclass(frozen=True)
class KeyPress:
    """One delivered key press."""

    time: float
    key: str
    index: int


class RemoteControl:
    """Delivers key presses to a handler and mirrors them to observers.

    Every press is published on ``topic`` on the kernel's runtime bus
    before the handler runs; observers subscribe there, which is how
    fleet-scale monitors watch many remotes without per-object wiring.
    """

    def __init__(
        self, kernel: Kernel, handler: Callable[[str], None], topic: str
    ) -> None:
        self.kernel = kernel
        self.handler = handler
        self.topic = topic
        self._publish = kernel.bus.publisher(topic)
        self.presses: List[KeyPress] = []

    def press(self, key: str) -> KeyPress:
        """Press a key *now* (at current kernel time)."""
        if key not in KEYS:
            raise ValueError(f"unknown key {key!r}")
        press = KeyPress(self.kernel.now, key, len(self.presses))
        self.presses.append(press)
        self._publish(press)
        self.handler(key)
        return press

    def schedule_press(self, delay: float, key: str) -> None:
        """Press a key ``delay`` time units from now."""
        self.kernel.schedule(
            delay, lambda: self.press(key), name=f"key:{key}", transient=True
        )


class KeySequence:
    """A scripted scenario: keys pressed at a fixed cadence."""

    def __init__(
        self,
        remote: RemoteControl,
        keys: Sequence[str],
        interval: float = 5.0,
        start: float = 1.0,
    ) -> None:
        self.remote = remote
        self.keys = list(keys)
        self.interval = interval
        self.start = start

    def schedule(self) -> None:
        """Queue every key press on the kernel."""
        at = self.start
        for key in self.keys:
            self.remote.kernel.schedule(
                max(0.0, at - self.remote.kernel.now),
                (lambda k: (lambda: self.remote.press(k)))(key),
                name=f"seq:{key}",
                transient=True,
            )
            at += self.interval

    def press_times(self) -> List[float]:
        """The times at which the keys will be pressed."""
        return [self.start + i * self.interval for i in range(len(self.keys))]


class RandomUser:
    """A seeded random user zapping around (coverage/stress workloads)."""

    def __init__(
        self,
        remote: RemoteControl,
        streams: RandomStreams,
        stream_name: str = "user",
        mean_gap: float = 4.0,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        self.remote = remote
        self.rng = streams.stream(stream_name)
        self.mean_gap = mean_gap
        self.keys = list(keys) if keys is not None else list(KEYS)
        self._process: Optional[Process] = None
        self.pressed: List[str] = []

    def start(self) -> None:
        self._process = Process(
            self.remote.kernel, self._body(), name="random-user"
        )

    def stop(self) -> None:
        if self._process is not None and self._process.alive:
            self._process.kill("user left")

    def _body(self) -> Generator[Any, Any, None]:
        try:
            while True:
                yield Delay(self.rng.expovariate(1.0 / self.mean_gap))
                key = self.rng.choice(self.keys)
                self.pressed.append(key)
                self.remote.press(key)
        except Interrupted:
            return
