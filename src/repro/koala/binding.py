"""Bindings and configurations (Koala 'compositions').

A :class:`Configuration` is a named set of components plus the bindings
between their requires and provides ports.  It validates interface-type
compatibility at bind time — Koala's compile-time wiring check — and can
render the composition as a graph for the architecture-level reliability
analysis in :mod:`repro.devtools.fmea`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from .component import Component, ComponentError
from .interface import Port

if TYPE_CHECKING:
    import networkx as nx


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
    def dependency_graph(self) -> "nx.DiGraph":
        """Directed graph: edge A→B when A requires something B provides.

        This is the input to the architecture-level FMEA (Sect. 4.7): error
        propagation follows these edges.  networkx is imported here, not
        at module level, so the simulation path never loads it.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for component in self:
            graph.add_node(component.name)
        for req, prov in self.bindings:
            graph.add_edge(req.component.name, prov.component.name, interface=req.itype.name)
        return graph

    def dependents_of(self, name: str) -> List[str]:
        """Components that (transitively) depend on ``name``."""
        import networkx as nx

        graph = self.dependency_graph()
        reversed_graph = graph.reverse()
        return sorted(nx.descendants(reversed_graph, name))
