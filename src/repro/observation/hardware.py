"""Hardware-assisted monitors: range checking, call stacks, memory watch.

Sect. 4.1: hardware-related observation "aims at exploiting mechanisms
already available in hardware, such as the on-chip debug and trace
infrastructure, to monitor values for range checking, call stacks
(functions, parameters, and result values), and memory arbiters."

These monitors are zero-intrusion from the SUO's point of view: the range
checker derives its configuration from the declared interface contracts
(the 'programmed comparators' of a debug unit), the call-stack monitor is
a shadow stack fed by the same interception fabric, and the memory watch
reads arbiter performance counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..koala.binding import Configuration
from ..koala.reflection import Aspect, CallContext, JoinPoint, Weaver
from ..platform.memory import MemoryArbiter
from ..sim.kernel import Kernel


@dataclass(frozen=True)
class RangeViolation:
    """A value escaped its declared interface bounds."""

    time: float
    component: str
    operation: str
    detail: str


class RangeChecker:
    """Checks every observed call against declared interface ranges."""

    def __init__(self, configuration: Configuration, clock: Callable[[], float]) -> None:
        self.configuration = configuration
        self.clock = clock
        self.violations: List[RangeViolation] = []
        self.checked_calls = 0
        self._weaver = Weaver(configuration)

    def install(self) -> None:
        aspect = Aspect("range-checker", JoinPoint(), after=self._check)
        self._weaver.weave(aspect)

    def uninstall(self) -> None:
        self._weaver.unweave("range-checker")

    def _check(self, context: CallContext) -> None:
        self.checked_calls += 1
        port = context.component.provides.get(context.port)
        if port is None:
            return
        operation = port.itype.operations.get(context.operation)
        if operation is None:
            return
        problem = operation.check_args(context.kwargs)
        if problem is None and context.error is None:
            problem = operation.check_result(context.result)
        if problem is not None:
            self.violations.append(
                RangeViolation(
                    time=self.clock(),
                    component=context.component.name,
                    operation=context.operation,
                    detail=problem,
                )
            )


@dataclass
class StackFrame:
    """One entry of the shadow call stack."""

    component: str
    operation: str
    kwargs: Dict[str, Any]


class CallStackMonitor:
    """Shadow call stack with depth watermark and overflow alarm."""

    def __init__(self, configuration: Configuration, max_depth: int = 64) -> None:
        self.configuration = configuration
        self.max_depth = max_depth
        self.stack: List[StackFrame] = []
        self.max_observed_depth = 0
        self.overflows = 0
        self.call_log_size = 0
        self._weaver = Weaver(configuration)

    def install(self) -> None:
        aspect = Aspect("call-stack", JoinPoint(), around=self._track)
        self._weaver.weave(aspect)

    def uninstall(self) -> None:
        self._weaver.unweave("call-stack")

    def _track(self, context: CallContext, proceed: Callable[[], Any]) -> Any:
        frame = StackFrame(context.component.name, context.operation, dict(context.kwargs))
        self.stack.append(frame)
        self.call_log_size += 1
        self.max_observed_depth = max(self.max_observed_depth, len(self.stack))
        if len(self.stack) > self.max_depth:
            self.overflows += 1
        try:
            return proceed()
        finally:
            self.stack.pop()

    def current_depth(self) -> int:
        return len(self.stack)


@dataclass(frozen=True)
class MemoryAlarm:
    """Arbiter latency exceeded its configured bound for a client."""

    time: float
    client: str
    mean_latency: float
    bound: float


class MemoryArbiterWatch:
    """Periodically reads arbiter counters and raises latency alarms."""

    def __init__(
        self,
        kernel: Kernel,
        arbiter: MemoryArbiter,
        latency_bound: float,
        interval: float = 5.0,
    ) -> None:
        self.kernel = kernel
        self.arbiter = arbiter
        self.latency_bound = latency_bound
        self.interval = interval
        self.alarms: List[MemoryAlarm] = []
        self.on_alarm: List[Callable[[MemoryAlarm], None]] = []
        self._running = False
        self._last_totals: Dict[str, tuple] = {}

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule()

    def stop(self) -> None:
        self._running = False

    def _schedule(self) -> None:
        self.kernel.schedule(self.interval, self._sample, name="mem-watch")

    def _sample(self) -> None:
        if not self._running:
            return
        for client, stats in self.arbiter.stats.items():
            previous = self._last_totals.get(client, (0, 0.0))
            delta_requests = stats.requests - previous[0]
            delta_latency = stats.total_latency - previous[1]
            self._last_totals[client] = (stats.requests, stats.total_latency)
            if delta_requests == 0:
                continue
            mean = delta_latency / delta_requests
            if mean > self.latency_bound:
                alarm = MemoryAlarm(
                    time=self.kernel.now,
                    client=client,
                    mean_latency=mean,
                    bound=self.latency_bound,
                )
                self.alarms.append(alarm)
                for listener in self.on_alarm:
                    listener(alarm)
        self._schedule()
