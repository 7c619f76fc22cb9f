"""Test-script generation from executable models.

Sect. 4.2 mentions "test scripts to improve model quality"; this module
derives them mechanically.  It explores the machine (like the checker) to
build the reachable labelled transition system, then extracts a small set
of event sequences (*scenarios*) that together cover every reachable
edge — transition-coverage test scripts.  The diagnosis experiments reuse
these scenarios as key-press sequences over the TV.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .events import Event
from .machine import Machine


#: One transition-coverage key: ``(source-config, target-config, event)``
#: — an edge of the reachable labelled transition system.
CoverageKey = Tuple[str, str, str]

#: The reachable LTS: state key -> successor key -> the event names of
#: the edges between them, in the order the exploration found them.
Lts = Dict[str, Dict[str, List[str]]]


@dataclass
class Scenario:
    """One generated test: the event names to inject in order."""

    name: str
    events: List[str]
    covers: Set[Tuple[str, str, str]] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class CoverageReport:
    """Covered vs uncovered transition keys against one machine's
    reachable LTS — the shared oracle for the test generator, the
    scenario fuzzer, and any future coverage tool."""

    covered: frozenset
    uncovered: frozenset

    @property
    def total(self) -> int:
        return len(self.covered) + len(self.uncovered)

    @property
    def ratio(self) -> float:
        """Covered / reachable (vacuously 1.0 on an edgeless model)."""
        total = self.total
        return len(self.covered) / total if total else 1.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "covered": len(self.covered),
            "uncovered": len(self.uncovered),
            "ratio": self.ratio,
            "uncovered_keys": sorted(self.uncovered),
        }


class TestGenerator:
    """Builds transition-covering scenarios for a machine."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        machine: Machine,
        alphabet: List[Event],
        max_states: int = 5000,
    ) -> None:
        self.machine = machine
        self.alphabet = list(alphabet)
        self.max_states = max_states
        self._graph: Optional[Lts] = None
        self._initial_key: Optional[str] = None
        self._fired_names: Optional[frozenset] = None

    # ------------------------------------------------------------------
    def _explore(self) -> Lts:
        """Build the reachable LTS: nodes are state keys, edges are events."""
        machine = self.machine
        initial = machine.snapshot()
        initial_key = self._key()
        self._initial_key = initial_key
        graph: Lts = {initial_key: {}}
        visited = {initial_key: initial}
        frontier = deque([initial_key])
        while frontier and len(visited) < self.max_states:
            key = frontier.popleft()
            snapshot = visited[key]
            successors = graph[key]
            for event in self.alphabet:
                machine.restore(snapshot)
                if not machine.dispatch(event.with_time(machine.time)):
                    continue
                new_key = self._key()
                if new_key not in visited:
                    visited[new_key] = machine.snapshot()
                    graph[new_key] = {}
                    frontier.append(new_key)
                successors.setdefault(new_key, []).append(event.name)
        machine.restore(initial)
        return graph

    def _key(self) -> str:
        machine = self.machine
        active = machine.active.full_name() if machine.active else ""
        return active + "|" + repr(sorted(machine.vars.items()))

    def _ensure_explored(self) -> Lts:
        """Explore once, caching the LTS and the set of machine
        transitions the walk exercised (by fire-count delta, so one
        O(transitions) diff instead of per-dispatch bookkeeping)."""
        if self._graph is None:
            before = dict(self.machine.fire_counts)
            self._graph = self._explore()
            self._fired_names = frozenset(
                t.name
                for t, count in self.machine.fire_counts.items()
                if count > before.get(t, 0)
            )
        return self._graph

    # ------------------------------------------------------------------
    # the public coverage oracle
    # ------------------------------------------------------------------
    def coverage_keys(self) -> frozenset:
        """Every reachable transition key ``(source, target, event)``.

        This is exactly the edge set :meth:`generate`'s greedy walk
        covers — exposed so other tools (the scenario fuzzer's coverage
        signal, future dashboards) measure against the same universe
        instead of re-deriving their own.
        """
        graph = self._ensure_explored()
        return frozenset(
            (source, target, event)
            for source, successors in graph.items()
            for target, events in successors.items()
            for event in events
        )

    def transition_names(self) -> frozenset:
        """Names of the machine's transitions the reachable LTS can fire.

        Coarser than :meth:`coverage_keys` (one name may label many LTS
        edges) but directly comparable with live ``Machine.fire_counts`` data —
        the granularity :mod:`repro.fuzz` reads off running monitors.
        """
        self._ensure_explored()
        assert self._fired_names is not None
        return self._fired_names

    def uncovered_report(self, covered) -> CoverageReport:
        """Split the reachable keys against an observed ``covered`` set.

        ``covered`` may hold LTS edge triples (from :attr:`Scenario.
        covers`) or transition names (from live machines); whichever
        universe its elements belong to decides the comparison.
        """
        covered = set(covered)
        if covered and all(isinstance(key, str) for key in covered):
            universe = self.transition_names()
        else:
            universe = self.coverage_keys()
        return CoverageReport(
            covered=frozenset(universe & covered),
            uncovered=frozenset(universe - covered),
        )

    # ------------------------------------------------------------------
    def generate(self, max_scenarios: int = 50) -> List[Scenario]:
        """Greedy transition coverage: repeatedly walk to an uncovered edge."""
        graph = self._ensure_explored()
        uncovered: Set[Tuple[str, str, str]] = set(self.coverage_keys())
        scenarios: List[Scenario] = []
        counter = 0
        while uncovered and counter < max_scenarios:
            counter += 1
            scenario = self._cover_some(graph, uncovered, f"scenario_{counter}")
            if scenario is None or not scenario.events:
                break
            scenarios.append(scenario)
        return scenarios

    def _cover_some(
        self,
        graph: Lts,
        uncovered: Set[Tuple[str, str, str]],
        name: str,
    ) -> Optional[Scenario]:
        """One walk from the initial state chaining nearby uncovered edges.

        ``uncovered`` shrinks in place as the walk covers edges; keeping
        one mutable set (instead of re-deriving ``uncovered - covers``
        per hop) is what makes covering an E-edge graph roughly linear
        in E rather than quadratic.
        """
        assert self._initial_key is not None
        events: List[str] = []
        covers: Set[Tuple[str, str, str]] = set()
        position = self._initial_key
        for _ in range(len(uncovered) + 1):
            target_edge = self._nearest_uncovered(graph, position, uncovered)
            if target_edge is None:
                break
            path_events, end = target_edge
            events.extend(e for _, _, e in path_events)
            covers.update(path_events)
            uncovered.difference_update(path_events)
            position = end
        if not events:
            return None
        return Scenario(name=name, events=events, covers=covers)

    def _nearest_uncovered(
        self,
        graph: Lts,
        start: str,
        uncovered: Set[Tuple[str, str, str]],
    ) -> Optional[Tuple[List[Tuple[str, str, str]], str]]:
        """BFS for the closest uncovered edge; returns (edge-path, end node).

        Parent-pointer BFS: the path is reconstructed only for the one
        edge returned, so expanding a node costs O(out-degree) instead
        of copying a growing path for every neighbour.
        """
        if not uncovered:
            return None
        parents: Dict[str, Tuple[str, Tuple[str, str, str]]] = {}
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for successor, events in graph[node].items():
                for event in events:
                    edge = (node, successor, event)
                    if edge in uncovered:
                        path = [edge]
                        step = node
                        while step != start:
                            step, parent_edge = parents[step]
                            path.append(parent_edge)
                        path.reverse()
                        return path, successor
                    if successor not in seen:
                        seen.add(successor)
                        parents[successor] = (node, edge)
                        queue.append(successor)
        return None

    # ------------------------------------------------------------------
    def replay(self, scenario: Scenario) -> List[str]:
        """Run a scenario on the machine; returns visited configurations."""
        initial = self.machine.snapshot()
        configs = [self.machine.configuration()]
        for event_name in scenario.events:
            self.machine.inject(event_name)
            configs.append(self.machine.configuration())
        self.machine.restore(initial)
        return configs
