"""AwarenessMonitor: the complete Fig. 2 assembly.

Builds and wires every framework component — channels across the process
boundary, Model Executor, Comparator, Controller, Configuration — along
the figure's interfaces.  Each datagram is one
:class:`~repro.core.contract.Observation`, wired directly to its one
consumer; the two observer roles need no objects of their own:

* SUO  →(IInputEvent)→  input channel → :meth:`AwarenessMonitor._on_input`
  (the Input Observer) →(IEventInfo)→ Model Executor
* SUO  →(IOutputEvent)→ output channel →
  :meth:`Comparator.on_output_event` (the Output Observer: it keeps the
  latest value per observable in ``Comparator.latest``)
* Model Executor →(IModelExecutor)→ Comparator
* Model Executor →(IConfigInfo)→ Configuration
* Comparator →(IErrorNotify)→ Controller (→ the outer Fig. 1 loop)

:func:`repro.products.make_monitor` adds the "SUO modifications" a
product descriptor names: the small adaptation that makes a system send
its input and output events across the boundary.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.contract import Observation
from ..sim.kernel import Kernel
from ..sim.random import RandomStreams
from ..statemachine.machine import Machine
from .channel import MessageChannel
from .comparator import Comparator
from .config import AwarenessConfig
from .controller import Controller
from .executor import EventTranslator, ExpectedProvider, ModelExecutor


class AwarenessMonitor:
    """One awareness monitor attached to one SUO."""

    def __init__(
        self,
        kernel: Kernel,
        machine: Machine,
        translator: EventTranslator,
        providers: Dict[str, ExpectedProvider],
        config: Optional[AwarenessConfig] = None,
        channel_delay: float = 0.05,
        channel_jitter: float = 0.02,
        streams: Optional[RandomStreams] = None,
        name: str = "awareness",
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.config = config or AwarenessConfig()
        streams = streams or RandomStreams(0)

        self.input_channel = MessageChannel(
            kernel, f"{name}.in", delay=channel_delay, jitter=channel_jitter, streams=streams
        )
        self.output_channel = MessageChannel(
            kernel, f"{name}.out", delay=channel_delay, jitter=channel_jitter, streams=streams
        )

        self.executor = ModelExecutor(
            machine, translator, providers, self.config, name=f"{name}.executor"
        )
        self.controller = Controller(f"{name}.controller")
        self.comparator = Comparator(
            kernel, self.config, self.executor, self.controller.on_error,
            name=f"{name}.comparator",
        )

        # wiring along Fig. 2 interfaces --------------------------------
        self.input_channel.connect(self._on_input)
        self.output_channel.connect(self.comparator.on_output_event)
        self.controller.manage(self.comparator)

        #: Re-sync handshake run on every restart (see
        #: :meth:`attach_resync`); ``resyncs`` counts invocations.
        self._resync: Optional[Callable[[], None]] = None
        self._was_stopped = False
        self.resyncs = 0

    # ------------------------------------------------------------------
    def attach_resync(self, handshake: Callable[[], None]) -> None:
        """Install the restart re-sync handshake.

        A monitor stopped mid-session misses inputs, so on restart its
        model executor would replay expectations from a stale state and
        false-alarm on every divergence it "missed" (the monitor-churn
        scenario made this visible).  The handshake re-seeds the model —
        and the comparator's last-seen outputs — from the SUO's
        *current* observable state before components restart.
        """
        self._resync = handshake

    def start(self) -> None:
        if self.controller.running:
            return
        if self._was_stopped and self._resync is not None:
            # Drop datagrams still in flight from before the stop: the
            # snapshot below already reflects them, and replaying them
            # would double-apply inputs to the re-seeded model.
            self.input_channel.flush_pending()
            self.output_channel.flush_pending()
            self._resync()
            self.resyncs += 1
        self.controller.start()

    def stop(self) -> None:
        if self.controller.running:
            self._was_stopped = True
        self.controller.stop()

    @property
    def errors(self):
        return self.controller.errors

    # -- Input Observer ---------------------------------------------------
    def _on_input(self, observation: Observation) -> None:
        """An input event crossed the boundary: step the model
        (IEventInfo), then let the comparator re-check (IModelExecutor)."""
        comparator = self.comparator
        if comparator.running and self.executor.on_input(observation):
            comparator.on_model_step()
