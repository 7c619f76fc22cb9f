"""Model Executor (Fig. 2).

Runs the executable specification model on the input events the
monitor's Input Observer role reports.  The paper generates C code from
Stateflow and runs it in this component; we execute the
:class:`~repro.statemachine.machine.Machine` directly — same observable
semantics, swap-friendly ("allowing quick experiments with different
models").

The executor also *controls the Configuration component* (per Fig. 2's
IConfigInfo arrow): models can mark unstable phases during which
comparison is disabled, via an ``unstable_when`` predicate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.contract import Observation
from ..statemachine.machine import Machine
from .config import AwarenessConfig

#: Maps an observed input event to a model event: (name, params).
EventTranslator = Callable[[Observation], Optional[Tuple[str, Dict[str, Any]]]]
#: Computes one expected observable from the model.
ExpectedProvider = Callable[[Machine], Any]


class ModelExecutor:
    """Keeps the specification model in lock-step with observed inputs."""

    def __init__(
        self,
        machine: Machine,
        translator: EventTranslator,
        providers: Dict[str, ExpectedProvider],
        config: AwarenessConfig,
        unstable_when: Optional[Callable[[Machine], bool]] = None,
        name: str = "model-executor",
    ) -> None:
        self.machine = machine
        self.translator = translator
        self.providers = dict(providers)
        self.config = config
        self.unstable_when = unstable_when
        self.name = name
        self.steps = 0
        self.ignored_events = 0

    # -- IEventInfo callback ------------------------------------------------
    def on_input(self, observation: Observation) -> bool:
        """An observed input event: advance and step the model.

        Returns whether the model stepped (the monitor then notifies the
        comparator over IModelExecutor).
        """
        translated = self.translator(observation)
        if translated is None:
            self.ignored_events += 1
            return False
        event_name, params = translated
        if observation.time > self.machine.time:
            self.machine.advance(observation.time)
        self.machine.inject(event_name, **params)
        self.steps += 1
        self._update_stability()
        return True

    # -- time sync (for time-based comparison) ------------------------------
    def sync_time(self, now: float) -> None:
        """Advance model time so timeouts fire before a timed comparison."""
        if now > self.machine.time:
            self.machine.advance(now)
            self._update_stability()

    # -- ISpecInfo ----------------------------------------------------------
    def expected(self, observable: str) -> Any:
        provider = self.providers.get(observable)
        if provider is None:
            raise KeyError(f"no expected-value provider for {observable!r}")
        return provider(self.machine)

    def expected_all(self) -> Dict[str, Any]:
        return {name: provider(self.machine) for name, provider in self.providers.items()}

    # -- IConfigInfo ----------------------------------------------------------
    def _update_stability(self) -> None:
        if self.unstable_when is None:
            return
        self.config.enable_compare(not self.unstable_when(self.machine))
