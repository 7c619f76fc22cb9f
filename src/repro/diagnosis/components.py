"""Component-level online spectra: SFL at the granularity recovery acts on.

Sect. 4.4 ranks *code blocks*; the recovery ladder (Fig. 1) rebinds
*components*.  This module bridges the two for the fleet: while a member
is under suspicion, a :class:`ComponentSpectra` collector folds the
member's ``suo.<id>.*`` bus traffic into per-component activity spectra —
which components were exercised in each window of simulated time, and
which windows a monitor error landed in — and ranks the components by
spectrum similarity on demand, exactly the coefficient machinery of
:mod:`repro.diagnosis.similarity`.

Two evidence sources feed each window:

* **activity** — inputs and outputs classified to the component that
  produced or consumed them (a ``vol_up`` press exercises the audio
  component; a rendered frame proves decoder *and* renderer ran);
* **manifestation** — when an error report lands, the component
  *responsible for the deviating observable* is recorded in that window
  (where the mapping is unambiguous: a ``sound`` divergence implicates
  audio, a ``progressing`` stall implicates the decoder).  This is what
  keeps omission faults localizable: a wedged decoder produces *no*
  activity exactly while it is the problem, so pure hit-correlation
  would rank it last.  Ambiguous observables (``screen``, ``status``)
  deliberately attribute nothing and leave the verdict to correlation.

Determinism: windows are delimited by *simulated* time, events are
member-local and keyed to ``(campaign seed, suo_id)``, and ranking ties
break on component name — so a member's ranking is byte-identical
whichever shard it runs on.

Memory is O(components): windows fold into the classic 2x2 contingency
counters incrementally, never retaining the per-window sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..runtime.bus import EventBus, Subscription
from .similarity import Coefficient, get_coefficient
from .spectra import SpectraCounts

_EMPTY: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RankedComponent:
    """One entry of the component suspicion ranking."""

    component: str
    score: float
    #: 1-based best-case rank (number of strictly higher scores + 1),
    #: the same tie convention :class:`~repro.diagnosis.sfl.RankedBlock`
    #: uses for blocks.
    rank: int
    #: Whether the component was active in *every* erroneous window —
    #: the single-fault coverage criterion the ranking orders on first.
    covers_failures: bool = True


class ComponentSpectra:
    """Online per-component spectra for one fleet member.

    Subscribes to the member's whole ``suo.<id>.*`` namespace and folds
    every event, classified by the kind's :class:`~repro.products.Product`,
    into the open *window* (a fixed slice of simulated time).  A window is
    erroneous when a monitor error report landed in it.  Contingency
    counters update incrementally at window close, so state never grows
    with campaign length.
    """

    def __init__(
        self,
        product: Any,
        suo_id: str,
        bus: EventBus,
        clock: Callable[[], float],
        window: float = 1.0,
        coefficient: str = "ochiai",
    ) -> None:
        if not product.components:
            raise ValueError(f"no component vocabulary for SUO kind {product.kind!r}")
        if window <= 0:
            raise ValueError("window must be positive")
        self.kind = product.kind
        self.suo_id = suo_id
        self.components = product.components
        self.window = window
        self.coefficient_name = coefficient
        self.coefficient: Coefficient = get_coefficient(coefficient)
        self._classify = product.classify
        self._error_map = {
            o.spec.name: o.errors for o in product.observables if o.errors
        }
        self._clock = clock
        self._prefix_len = len(f"suo.{suo_id}.")
        # closed-window state (incrementally folded)
        self.steps = 0
        self.error_steps = 0
        self._hits: Dict[str, int] = {c: 0 for c in self.components}
        self._a11: Dict[str, int] = {c: 0 for c in self.components}
        # open-window state
        self._window_index: Optional[int] = None
        self._active: set = set()
        self._erroneous = False
        self._subscription: Optional[Subscription] = bus.subscribe(
            f"suo.{suo_id}.*", self._on_event
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        index = int(self._clock() / self.window)
        if self._window_index is None:
            self._window_index = index
            return
        if index == self._window_index:
            return
        self._close_window()
        # windows the clock skipped were clean and inactive
        self.steps += index - self._window_index - 1
        self._window_index = index

    def _close_window(self) -> None:
        self.steps += 1
        if self._erroneous:
            self.error_steps += 1
        for component in self._active:
            self._hits[component] += 1
            if self._erroneous:
                self._a11[component] += 1
        self._active.clear()
        self._erroneous = False

    def _on_event(self, topic: str, event: Any) -> None:
        self._advance()
        kind = topic[self._prefix_len:]
        if kind == "error":
            self._erroneous = True
            observable = getattr(event, "observable", None)
            self._active.update(self._error_map.get(observable, _EMPTY))
        else:
            self._active.update(self._classify(kind, event))

    def detach(self) -> None:
        """Stop ingesting; accumulated spectra stay queryable."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    # ------------------------------------------------------------------
    # queries (all include the open window, folded virtually)
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, SpectraCounts]:
        """2x2 contingency counts per component that was ever active."""
        self._advance()
        steps = self.steps
        errors = self.error_steps
        hits = dict(self._hits)
        a11 = dict(self._a11)
        if self._active or self._erroneous:
            steps += 1
            if self._erroneous:
                errors += 1
            for component in self._active:
                hits[component] += 1
                if self._erroneous:
                    a11[component] += 1
        result: Dict[str, SpectraCounts] = {}
        for component in self.components:
            if hits[component] == 0:
                continue
            c11 = a11[component]
            c10 = hits[component] - c11
            c01 = errors - c11
            c00 = steps - hits[component] - c01
            result[component] = SpectraCounts(a11=c11, a10=c10, a01=c01, a00=c00)
        return result

    def ranking(self) -> List[RankedComponent]:
        """Components by descending suspicion (empty without evidence).

        Without any erroneous window there is nothing to correlate
        against, so the ranking is empty and the caller falls back to
        undirected recovery.

        Single-fault exoneration: a component absent from some failing
        window cannot be the (single) standing fault — the fault *was*
        exercised in every window that failed — so components covering
        every erroneous window rank ahead of partially-covering ones
        whatever their similarity scores (tiny samples otherwise let a
        rarely-active bystander win on perfect precision).  Within each
        group the coefficient orders by similarity as usual.
        """
        counts = self.counts()
        if not counts:
            return []
        if self.error_steps == 0 and not self._erroneous:
            return []
        # a01 == 0 <=> the component was active in every erroneous window
        scored = sorted(
            (
                (1 if c.a01 > 0 else 0, -self.coefficient(c), component)
                for component, c in counts.items()
            ),
        )
        ranked: List[RankedComponent] = []
        higher = 0
        index = 0
        while index < len(scored):
            tie_end = index
            tie_key = scored[index][:2]
            while tie_end < len(scored) and scored[tie_end][:2] == tie_key:
                tie_end += 1
            for exonerated, negated_score, component in scored[index:tie_end]:
                ranked.append(
                    RankedComponent(
                        component,
                        -negated_score,
                        higher + 1,
                        covers_failures=not exonerated,
                    )
                )
            higher = tie_end
            index = tie_end
        return ranked

    def confidence(self, ranking: Optional[List[RankedComponent]] = None) -> float:
        """Separation between the top suspect and the runner-up.

        A tie at the top (or a zero-scored top) yields 0.0 — exactly the
        "low confidence" condition under which the recovery ladder falls
        back to a full rebind rather than gambling on one of several
        equally suspicious components.  When the top suspect is the
        *only* component covering every failing window, the separation
        is structural and the full score counts; otherwise it is the
        score margin over the runner-up in the same coverage group.
        """
        if ranking is None:
            ranking = self.ranking()
        if not ranking or ranking[0].score <= 0.0:
            return 0.0
        top = ranking[0]
        if len(ranking) == 1:
            return top.score
        second = ranking[1]
        if second.rank == top.rank:
            return 0.0
        if top.covers_failures and not second.covers_failures:
            return top.score
        return top.score - second.score

    def top_suspect(self) -> Tuple[Optional[str], float]:
        """The top-ranked component and the confidence margin."""
        ranking = self.ranking()
        if not ranking:
            return None, 0.0
        return ranking[0].component, self.confidence(ranking)

    def rank_of(self, component: str) -> Optional[int]:
        """Best-case rank of ``component`` (None when never active)."""
        for entry in self.ranking():
            if entry.component == component:
                return entry.rank
        return None
