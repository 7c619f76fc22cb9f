"""Probes: the low-level observation mechanisms of Sect. 4.1.

The paper lists what a TV monitor wants to see: "key presses from the
remote control, internal modes of components, load of processors and
busses, buffers, function calls to audio/video output, sound level".
Each probe here captures one of those and writes time-stamped records
into a shared :class:`~repro.sim.trace.Trace` — the simulation analogue
of the on-chip debug/trace infrastructure.

Probes are *attachment only*: none of them changes SUO behaviour (beyond
negligible overhead accounting), the property that makes the approach
viable for third-party and legacy components.

Input and output probes attach to the runtime bus (``attach_bus``): they
watch a ``suo.<suo_id>.*`` topic namespace without holding a reference
to the SUO at all, which is how probes observe fleet members too.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from ..koala.binding import Configuration
from ..koala.component import Component
from ..runtime.bus import EventBus, Subscription
from ..sim.kernel import Kernel
from ..sim.trace import Trace


class InputProbe:
    """Mirrors remote-control key presses into the trace."""

    def __init__(self, trace: Trace, name: str = "input") -> None:
        self.trace = trace
        self.name = name
        self.count = 0

    def attach_bus(self, bus: EventBus, suo_id: str = "tv") -> Subscription:
        """Observe one SUO's key presses via the runtime bus."""
        return bus.subscribe(
            f"suo.{suo_id}.input", lambda _topic, press: self._on_press(press)
        )

    def _on_press(self, press) -> None:
        self.count += 1
        self.trace.emit(self.name, "key", {"key": press.key, "index": press.index})


class OutputProbe:
    """Mirrors user-visible outputs (screen/sound events) into the trace."""

    def __init__(self, trace: Trace, name: str = "output") -> None:
        self.trace = trace
        self.name = name
        self.count = 0

    def attach_bus(self, bus: EventBus, suo_id: str = "tv") -> Subscription:
        """Observe one SUO's output events via the runtime bus."""
        return bus.subscribe(
            f"suo.{suo_id}.output", lambda _topic, event: self._on_output(event)
        )

    def _on_output(self, event) -> None:
        self.count += 1
        self.trace.emit(self.name, f"out:{event.name}", event.value)


class ModeProbe:
    """Watches component mode changes across a configuration."""

    def __init__(self, trace: Trace, name: str = "modes") -> None:
        self.trace = trace
        self.name = name
        self.current: Dict[str, str] = {}

    def attach(self, configuration: Configuration) -> None:
        for component in configuration:
            self.current[component.name] = component.mode
            component.watch_mode(self._on_mode)
            self._attach_nested(component)

    def _attach_nested(self, component: Component) -> None:
        # Facade components (teletext) hold nested sub-components whose
        # modes matter to the consistency checker.
        for attr in ("acquirer", "renderer"):
            nested = getattr(component, attr, None)
            if isinstance(nested, Component):
                self.current[nested.name] = nested.mode
                nested.watch_mode(self._on_mode)

    def _on_mode(self, component: Component, old: str, new: str) -> None:
        self.current[component.name] = new
        self.trace.emit(
            self.name, "mode", {"component": component.name, "from": old, "to": new}
        )


class LoadProbe:
    """Periodically samples processor/bus/memory load from the SoC."""

    def __init__(
        self,
        trace: Trace,
        kernel: Kernel,
        soc,
        interval: float = 1.0,
        name: str = "load",
    ) -> None:
        self.trace = trace
        self.kernel = kernel
        self.soc = soc
        self.interval = interval
        self.name = name
        self.samples = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._sample, name="load-probe")

    def _sample(self) -> None:
        if not self._running:
            return
        self.samples += 1
        self.trace.emit(self.name, "load", self.soc.snapshot())
        self._schedule()


class BufferProbe:
    """Watches the fill level and drop counts of pipeline stores."""

    def __init__(self, trace: Trace, kernel: Kernel, interval: float = 1.0) -> None:
        self.trace = trace
        self.kernel = kernel
        self.interval = interval
        self.stores: List[Any] = []
        self._gauges: List[Any] = []
        self._running = False

    def watch(self, store) -> None:
        self.stores.append(store)

    def watch_gauge(self, name: str, level: Callable[[], int]) -> None:
        """Watch a level *provider* instead of a store reference.

        Some pipelines (the media player) tear their stores down and
        rebuild them across seeks and restarts; a held store reference
        would silently sample a dead buffer.  A gauge callable — e.g.
        ``player.buffer_level`` — survives the rebuild.
        """
        self._gauges.append((name, level))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._sample, name="buffer-probe")

    def _sample(self) -> None:
        if not self._running:
            return
        for store in self.stores:
            self.trace.emit(
                "buffers",
                "buffer",
                {
                    "name": store.name,
                    "fill": len(store),
                    "drops": store.drop_count,
                },
            )
        for name, level in self._gauges:
            self.trace.emit("buffers", "buffer", {"name": name, "fill": level()})
        self._schedule()
