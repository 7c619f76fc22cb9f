"""Bindings and configurations (Koala 'compositions').

A :class:`Configuration` is a named set of components plus the bindings
between their requires and provides ports.  It validates interface-type
compatibility at bind time — Koala's compile-time wiring check — and can
render the composition as a graph for the architecture-level reliability
analysis in :mod:`repro.devtools.fmea`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Set, Tuple

from .component import Component, ComponentError
from .interface import Port


class Configuration:
    """A component composition with validated bindings."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.components: Dict[str, Component] = {}
        self.bindings: List[Tuple[Port, Port]] = []

    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        if component.name in self.components:
            raise ComponentError(f"duplicate component name {component.name!r}")
        self.components[component.name] = component
        return component

    def get(self, name: str) -> Component:
        return self.components[name]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.components.values())

    def bind(
        self,
        consumer: str,
        requires_port: str,
        producer: str,
        provides_port: str,
    ) -> None:
        """Bind ``consumer.requires_port`` to ``producer.provides_port``."""
        consumer_component = self.components[consumer]
        producer_component = self.components[producer]
        req = consumer_component.requires.get(requires_port)
        if req is None:
            raise ComponentError(f"{consumer} has no requires port {requires_port!r}")
        prov = producer_component.provides.get(provides_port)
        if prov is None:
            raise ComponentError(f"{producer} has no provides port {provides_port!r}")
        if req.itype is not prov.itype and req.itype.name != prov.itype.name:
            raise ComponentError(
                f"interface mismatch binding {req.full_name()} "
                f"({req.itype.name}) to {prov.full_name()} ({prov.itype.name})"
            )
        if req.peer is not None:
            raise ComponentError(f"{req.full_name()} already bound")
        req.peer = prov
        self.bindings.append((req, prov))

    def unbind(self, consumer: str, requires_port: str) -> None:
        """Detach a binding (used by the communication manager in recovery)."""
        req = self.components[consumer].requires[requires_port]
        self.bindings = [(r, p) for (r, p) in self.bindings if r is not req]
        req.peer = None

    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return wiring problems (unbound requires ports)."""
        problems = []
        for component in self:
            for port in component.requires.values():
                if port.peer is None:
                    problems.append(f"unbound requires port {port.full_name()}")
        return problems

    def start_all(self) -> None:
        for component in self:
            component.start()

    def stop_all(self) -> None:
        for component in self:
            component.stop()

    # ------------------------------------------------------------------
    def dependency_graph(self) -> Dict[str, Set[str]]:
        """Adjacency mapping: ``B in graph[A]`` when A requires something
        B provides; every component is a key.

        This is the input to the architecture-level FMEA (Sect. 4.7): error
        propagation follows these edges.
        """
        graph: Dict[str, Set[str]] = {name: set() for name in self.components}
        for req, prov in self.bindings:
            graph[req.component.name].add(prov.component.name)
        return graph

    def dependents_of(self, name: str) -> List[str]:
        """Components that (transitively) depend on ``name``; empty for
        a name that is not in the configuration."""
        dependents: Dict[str, Set[str]] = {}
        for req, prov in self.bindings:
            dependents.setdefault(prov.component.name, set()).add(req.component.name)
        seen = {name}
        queue = deque([name])
        while queue:
            for consumer in dependents.get(queue.popleft(), ()):
                if consumer not in seen:
                    seen.add(consumer)
                    queue.append(consumer)
        return sorted(seen - {name})
