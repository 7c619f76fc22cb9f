"""repro — reproduction of "Dependability for high-tech systems: an
industry-as-laboratory approach" (Brinksma & Hooman, DATE 2008).

The package implements the Trader project's model-based run-time
awareness stack on a fully simulated substrate:

* :mod:`repro.core`         — the Fig. 1 closed loop (detect → diagnose →
  recover) and recovery policies;
* :mod:`repro.awareness`    — the Fig. 2 framework (observers, model
  executor, comparator, controller, mode-consistency checking);
* :mod:`repro.statemachine` — executable timed state machines (the
  Stateflow analogue), model checking, test generation;
* :mod:`repro.tv`           — the simulated high-end TV (the SUO), its
  specification model, software block map, and fault injection;
* :mod:`repro.diagnosis`    — spectrum-based fault localization;
* :mod:`repro.recovery`     — recoverable units, communication/recovery
  managers, load balancing, adaptive memory arbitration;
* :mod:`repro.perception`   — user-perceived failure severity;
* :mod:`repro.devtools`     — stress testing, warning prioritization,
  architecture-level FMEA;
* :mod:`repro.platform` / :mod:`repro.koala` / :mod:`repro.sim` — the
  SoC, component-model, and discrete-event simulation substrates;
* :mod:`repro.runtime`     — the typed event bus every layer publishes
  on, the MonitorFleet engine that multiplexes
  hundreds of monitored SUOs on one kernel, and the streaming
  telemetry aggregators that keep thousand-SUO campaigns in bounded
  memory;
* :mod:`repro.scenarios`   — declarative workload scenarios
  (ScenarioSpec → MonitorFleet compiler, a ≥10-entry named library,
  deterministic placement plans for sharded execution);
* :mod:`repro.campaign`    — the unified campaign API: Campaign
  (scenario × seed plans) executed through one backend class,
  DistributedBackend (one kernel per shard on an inline, process,
  socket or service executor, merged telemetry, backend-invariant
  telemetry digests); SerialBackend is its one-shard inline preset.
"""

__version__ = "1.0.0"

from .core import (
    AwarenessLoop,
    Diagnosis,
    ErrorReport,
    LadderStep,
    MonitorHierarchy,
    Observation,
    RecoveryAction,
    RecoveryPolicy,
)

__all__ = [
    "AwarenessLoop",
    "Diagnosis",
    "ErrorReport",
    "LadderStep",
    "MonitorHierarchy",
    "Observation",
    "RecoveryAction",
    "RecoveryPolicy",
    "__version__",
]
