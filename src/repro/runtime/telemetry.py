"""Streaming fleet telemetry: bounded-memory observation of campaigns.

A fleet keeps no per-event record: it hashes each ``suo.*`` event into
its trace digest and drops it, because retaining every record is
exactly the "observation degrades the system" failure the paper's
overhead constraint (Sect. 2) warns about, applied to memory instead of
time.

This module provides the queryable view: aggregators that subscribe
to the runtime bus and fold the event stream into fixed-size state —

* :class:`CounterSet`        — named monotonic counters;
* :class:`WindowedRate`      — event rate over a sliding window of
  *simulated* time, kept in a fixed ring of buckets;
* :class:`ReservoirHistogram`— Vitter Algorithm-R sample of a value
  stream (seeded, hence deterministic) plus exact count/sum/min/max;
* :class:`SuoTally`          — per-SUO input/output/stimulus/error counts;
* :class:`FleetTelemetry`    — the hub: one ``suo.*`` subscription that
  feeds all of the above and renders a canonical :meth:`summary` whose
  :meth:`digest` is byte-stable for a fixed seed.

Everything is keyed to simulated time, never wall-clock, so two runs of
the same seeded scenario produce byte-identical summaries.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, Optional

from .bus import EventBus, Subscription

#: Decimal places every float in a telemetry or span summary is rounded
#: to, so the canonical JSON (and its digest) is byte-stable.
DIGITS = 9


class CounterSet:
    """Named monotonic counters with a canonical sorted view."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def as_dict(self) -> Dict[str, int]:
        """Counters in sorted-key order (canonical for digesting)."""
        return {name: self._counts[name] for name in sorted(self._counts)}

    def __len__(self) -> int:
        return len(self._counts)


class WindowedRate:
    """Event rate over a sliding window of simulated time.

    A fixed ring of ``buckets`` equal slices covers the trailing
    ``window`` time units; adding an event advances the ring (zeroing
    slices the clock skipped) and bumps the current slice.  Memory is
    O(buckets) regardless of traffic.

    ``rate()`` divides the in-window count by the window actually
    *covered* so far, so early in a run (elapsed < window) the rate is
    not diluted by empty future slices.
    """

    __slots__ = ("window", "buckets", "_width", "_counts", "_head", "_total",
                 "_clock", "_started")

    def __init__(
        self,
        clock: Callable[[], float],
        window: float = 10.0,
        buckets: int = 20,
    ) -> None:
        if window <= 0 or buckets <= 0:
            raise ValueError("window and buckets must be positive")
        self.window = window
        self.buckets = buckets
        self._width = window / buckets
        self._counts = [0] * buckets
        self._head = 0  # absolute index of the newest bucket
        self._total = 0
        self._clock = clock
        self._started = clock()

    def _advance(self, now: float) -> None:
        index = int(now / self._width)
        if index <= self._head:
            return
        steps = index - self._head
        if steps >= self.buckets:
            self._counts = [0] * self.buckets
            self._total = 0
        else:
            for offset in range(1, steps + 1):
                slot = (self._head + offset) % self.buckets
                self._total -= self._counts[slot]
                self._counts[slot] = 0
        self._head = index

    def add(self, amount: int = 1) -> None:
        """Credit ``amount`` events to the bucket covering the clock."""
        self._advance(self._clock())
        self._counts[self._head % self.buckets] += amount
        self._total += amount

    def count(self) -> int:
        """Events inside the trailing window."""
        self._advance(self._clock())
        return self._total

    def rate(self) -> float:
        """Events per simulated time unit over the covered window."""
        now = self._clock()
        self._advance(now)
        covered = min(max(now - self._started, self._width), self.window)
        return self._total / covered


class ReservoirHistogram:
    """Seeded Algorithm-R reservoir over a value stream, plus exact
    count/sum/min/max.

    The reservoir holds at most ``capacity`` samples whatever the stream
    length; quantiles are computed from the sample, the scalar stats are
    exact.  With a seeded ``rng`` the retained sample — and therefore the
    whole summary — is deterministic for a fixed input stream.
    """

    __slots__ = ("capacity", "_rng", "_samples", "count", "total",
                 "min", "max")

    def __init__(self, capacity: int = 512, rng: Optional[random.Random] = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rng = rng or random.Random(0)
        self._samples: List[float] = []
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        index = self.count
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if index < self.capacity:
            self._samples.append(value)
        else:
            slot = self._rng.randrange(index + 1)
            if slot < self.capacity:
                self._samples[slot] = value

    @property
    def retained(self) -> int:
        return len(self._samples)

    def samples(self) -> List[float]:
        """The retained sample, in retention order (rounded for
        canonical JSON).  Shard workers ship this so
        :func:`merge_summaries` can re-sample the merged reservoir."""
        return [round(value, DIGITS) for value in self._samples]

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained sample (0 when empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def stats(self) -> Dict[str, Any]:
        """Canonical JSON-friendly stat block (rounded for stability)."""
        return {
            "count": self.count,
            "mean": round(self.mean(), DIGITS),
            "min": round(self.min, DIGITS) if self.min is not None else 0.0,
            "p50": round(self.quantile(0.50), DIGITS),
            "p90": round(self.quantile(0.90), DIGITS),
            "p99": round(self.quantile(0.99), DIGITS),
            "max": round(self.max, DIGITS) if self.max is not None else 0.0,
            "retained": self.retained,
        }


class RecoveryStats:
    """Bounded aggregate of recovery-ladder activity (PR 4).

    Fed from ``suo.<id>.recovery`` events published by the scenario
    recovery harness: every executed rung counts into ``actions``; a
    completed episode additionally carries its time-to-recover, sampled
    into a seeded reservoir and folded into exact per-wave scalars.
    Everything is keyed to simulated time, so the per-wave count/min/max
    core is placement-invariant under sharding (each member recovers on
    exactly one shard, on its own deterministic timeline).
    """

    __slots__ = ("actions", "ttr", "waves")

    def __init__(self, capacity: int = 512, rng: Optional[random.Random] = None) -> None:
        self.actions = CounterSet()
        self.ttr = ReservoirHistogram(capacity=capacity, rng=rng)
        #: wave label -> exact {count, min, max, sum} over its TTRs.
        self.waves: Dict[str, Dict[str, float]] = {}

    def observe(self, event: Any) -> None:
        """Fold one recovery event (a dict with action/wave/ttr keys)."""
        if not isinstance(event, dict):
            return
        action = event.get("action")
        if action:
            self.actions.inc(str(action))
        ttr = event.get("ttr")
        if ttr is None:
            return
        ttr = float(ttr)
        self.ttr.add(ttr)
        wave = str(event.get("wave", "?"))
        entry = self.waves.get(wave)
        if entry is None:
            self.waves[wave] = {"count": 1, "min": ttr, "max": ttr, "sum": ttr}
        else:
            entry["count"] += 1
            entry["min"] = min(entry["min"], ttr)
            entry["max"] = max(entry["max"], ttr)
            entry["sum"] += ttr

    def summary(self, samples: bool = False) -> Dict[str, Any]:
        """Canonical JSON-friendly view (see :meth:`FleetTelemetry.summary`)."""
        ttr = self.ttr.stats()
        if samples:
            ttr["samples"] = self.ttr.samples()
        return {
            "recovered": self.ttr.count,
            "actions": self.actions.as_dict(),
            "ttr": ttr,
            "waves": {
                wave: {
                    "count": int(entry["count"]),
                    "min": round(entry["min"], DIGITS),
                    "max": round(entry["max"], DIGITS),
                    "mean": round(entry["sum"] / entry["count"], DIGITS),
                }
                for wave, entry in sorted(self.waves.items())
            },
        }


class DiagnosisStats:
    """Bounded aggregate of diagnosis-guided rebind outcomes (PR 5).

    Fed from the same ``suo.<id>.recovery`` events as
    :class:`RecoveryStats`: every rebind published by the scenario
    recovery harness carries its localization outcome — targeted or
    full, which component the SFL ranking suspected, the rank the true
    faulty component achieved, and (for targeted rebinds) whether the
    suspect was a hit.  Everything except the TTR quantiles is exact
    integer counting over per-member timelines, hence shard-invariant.
    """

    __slots__ = ("rebinds", "suspects", "ranks", "hits", "misses", "ttr")

    def __init__(self, capacity: int = 512, rng: Optional[random.Random] = None) -> None:
        #: mode ("targeted" / "full") -> rebind count.
        self.rebinds = CounterSet()
        #: suspect component -> times the ranking nominated it.
        self.suspects = CounterSet()
        #: str(rank of the true faulty component) -> completed-episode
        #: count (folded at the closing rebind, once per episode).
        self.ranks = CounterSet()
        #: Targeted rebinds whose suspect was / was not the true fault.
        self.hits = 0
        self.misses = 0
        #: Time-to-recover of episodes *closed* by each rebind mode —
        #: the targeted-vs-full TTR delta the ROADMAP asks to measure.
        self.ttr: Dict[str, ReservoirHistogram] = {
            "targeted": ReservoirHistogram(capacity=capacity, rng=rng),
            "full": ReservoirHistogram(capacity=capacity, rng=rng),
        }

    def observe(self, event: Any) -> None:
        """Fold one recovery event; ignores rungs without diagnosis."""
        if not isinstance(event, dict) or event.get("action") != "rebind":
            return
        mode = event.get("mode")
        if mode is None:
            return
        mode = str(mode)
        self.rebinds.inc(mode)
        suspect = event.get("suspect")
        if suspect:
            self.suspects.inc(str(suspect))
        # Count the rank once per EPISODE, on the rebind that closes it
        # (carries the TTR) — a targeted miss followed by the closing
        # full rebind must not count the episode twice, or the gated
        # accuracy would under-report whenever any miss occurs.  An
        # episode whose true component never entered the ranking counts
        # as "unranked": dropping it would shrink the accuracy
        # denominator exactly when localization fails worst.
        if event.get("ttr") is not None:
            rank = event.get("true_rank")
            if isinstance(rank, int) and not isinstance(rank, bool) and rank > 0:
                self.ranks.inc(str(rank))
            else:
                self.ranks.inc("unranked")
        hit = event.get("hit")
        if hit is True:
            self.hits += 1
        elif hit is False:
            self.misses += 1
        ttr = event.get("ttr")
        if ttr is not None and mode in self.ttr:
            self.ttr[mode].add(float(ttr))

    def summary(self, samples: bool = False) -> Dict[str, Any]:
        """Canonical JSON-friendly view (see :meth:`FleetTelemetry.summary`)."""
        ranked = self.ranks.total()
        rank_first = self.ranks.get("1")
        total = self.rebinds.total()
        ttr: Dict[str, Any] = {}
        for mode in sorted(self.ttr):
            block = self.ttr[mode].stats()
            if samples:
                block["samples"] = self.ttr[mode].samples()
            ttr[mode] = block
        return {
            "rebinds": self.rebinds.as_dict(),
            "suspects": self.suspects.as_dict(),
            "rank_of_true": self.ranks.as_dict(),
            "hits": self.hits,
            "misses": self.misses,
            "localization_accuracy": (
                round(rank_first / ranked, DIGITS) if ranked else 0.0
            ),
            "targeted_rebind_rate": (
                round(self.rebinds.get("targeted") / total, DIGITS) if total else 0.0
            ),
            "ttr": ttr,
        }


class SuoTally:
    """Fixed-size per-SUO ledger: one int per event kind."""

    __slots__ = ("inputs", "outputs", "stimuli", "errors", "other")

    def __init__(self) -> None:
        self.inputs = 0
        self.outputs = 0
        self.stimuli = 0
        self.errors = 0
        self.other = 0

    def bump(self, kind: str) -> None:
        if kind == "output":
            self.outputs += 1
        elif kind == "input":
            self.inputs += 1
        elif kind == "stimulus":
            self.stimuli += 1
        elif kind == "error":
            self.errors += 1
        else:
            self.other += 1

    @property
    def events(self) -> int:
        return self.inputs + self.outputs + self.stimuli + self.errors + self.other


class FleetTelemetry:
    """The streaming-aggregation hub for one ``suo.*`` namespace.

    One wildcard subscription feeds every aggregator; memory is bounded
    by O(members + buckets + reservoir capacity), independent of how many
    events the campaign dispatches.  :meth:`summary` renders the whole
    state into a canonical dict keyed only to simulated time, and
    :meth:`digest` hashes it — the bounded-memory analogue of
    ``MonitorFleet.trace_digest``.

    Latency observation is push-based: wire message channels through
    :meth:`observe_latency` (``MonitorFleet`` does this for every
    monitor's input/output channel) to sample delivery latencies into the
    reservoir histogram.
    """

    def __init__(
        self,
        bus: EventBus,
        clock: Callable[[], float],
        rng: Optional[random.Random] = None,
        namespace: str = "suo",
        window: float = 10.0,
        buckets: int = 20,
        reservoir: int = 512,
    ) -> None:
        self.namespace = namespace
        self.kinds = CounterSet()
        self.per_suo: Dict[str, SuoTally] = {}
        self.events_total = 0
        self.event_rate = WindowedRate(clock, window=window, buckets=buckets)
        self.latency = ReservoirHistogram(capacity=reservoir, rng=rng)
        self.recovery = RecoveryStats(capacity=reservoir, rng=rng)
        self.diagnosis = DiagnosisStats(capacity=reservoir, rng=rng)
        self._clock = clock
        #: concrete topic -> (kind, SuoTally): parsing and tally lookup
        #: happen once per distinct topic, not once per event.
        self._topic_cache: Dict[str, Any] = {}
        self._subscription: Optional[Subscription] = bus.subscribe(
            f"{namespace}.*", self._on_event
        )

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def tally(self, suo_id: str) -> SuoTally:
        """The (created-on-demand) ledger for one SUO.

        ``MonitorFleet`` hands each admitted member its tally so member
        counters and telemetry are one shared state, not two copies.
        """
        tally = self.per_suo.get(suo_id)
        if tally is None:
            tally = self.per_suo[suo_id] = SuoTally()
        return tally

    def _on_event(self, topic: str, event: Any) -> None:
        entry = self._topic_cache.get(topic)
        if entry is None:
            # topic == "<namespace>.<suo_id>.<kind>"
            try:
                _, suo_id, kind = topic.split(".", 2)
            except ValueError:
                suo_id, kind = topic[len(self.namespace) + 1:], "other"
            entry = self._topic_cache[topic] = (kind, self.tally(suo_id))
        kind, tally = entry
        self.events_total += 1
        self.kinds.inc(kind)
        self.event_rate.add()
        tally.bump(kind)
        if kind == "recovery":
            self.recovery.observe(event)
            self.diagnosis.observe(event)

    def observe_latency(self, seconds: float) -> None:
        """Sample one delivery latency (simulated seconds)."""
        self.latency.add(seconds)

    def detach(self) -> None:
        """Stop ingesting; aggregated state stays queryable."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    # ------------------------------------------------------------------
    # canonical output
    # ------------------------------------------------------------------
    def errors_by_suo(self) -> Dict[str, int]:
        """Per-SUO error tallies (only SUOs that reported any), sorted."""
        return {
            suo_id: tally.errors
            for suo_id, tally in sorted(self.per_suo.items())
            if tally.errors
        }

    def summary(self, per_suo: bool = False, samples: bool = False) -> Dict[str, Any]:
        """The canonical aggregate view: pure simulated-time state.

        Deliberately excludes anything wall-clock, so a fixed seed yields
        a byte-identical summary run over run.  With ``per_suo`` the full
        per-member ledger is included (one small dict per SUO).  With
        ``samples`` the latency block also carries the retained reservoir
        sample, which makes the summary *mergeable*: shard workers ship
        sampled summaries so :func:`merge_summaries` can re-sample one
        combined reservoir.
        """
        latency = self.latency.stats()
        if samples:
            latency["samples"] = self.latency.samples()
        result: Dict[str, Any] = {
            "time": round(self._clock(), DIGITS),
            "suos": len(self.per_suo),
            "events_total": self.events_total,
            "events_by_kind": self.kinds.as_dict(),
            "window_rate": round(self.event_rate.rate(), DIGITS),
            "latency": latency,
            "errors_total": self.kinds.get("error"),
            "errors_by_suo": self.errors_by_suo(),
            "recovery": self.recovery.summary(samples=samples),
            "diagnosis": self.diagnosis.summary(samples=samples),
        }
        if per_suo:
            result["per_suo"] = {
                suo_id: {
                    "inputs": tally.inputs,
                    "outputs": tally.outputs,
                    "stimuli": tally.stimuli,
                    "errors": tally.errors,
                    "other": tally.other,
                }
                for suo_id, tally in sorted(self.per_suo.items())
            }
        return result

    def digest(self) -> str:
        """SHA-256 over the canonical summary (bounded-memory witness)."""
        return summary_digest(self.summary(per_suo=True))


# ----------------------------------------------------------------------
# summary merging (sharded campaigns)
# ----------------------------------------------------------------------
def summary_digest(summary: Dict[str, Any]) -> str:
    """SHA-256 over a canonical JSON rendering of one summary dict."""
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def mergeable_summary(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The shard-invariant projection of a summary.

    Counters, per-SUO tallies, and the exact latency scalars (count,
    min, max) are *placement-invariant*: partitioning a fleet across
    shards and merging reproduces them bit for bit, because every
    member's event stream is keyed to ``(campaign seed, suo_id)`` and
    the quantities are order-independent sums over it.  Reservoir
    quantiles, means, and windowed rates are deliberately excluded —
    they depend on which samples a particular reservoir retained or on
    float summation order, so including them would make the digest
    depend on the execution backend rather than on the campaign.
    """
    latency = summary.get("latency", {})
    recovery = summary.get("recovery", {})
    ttr = recovery.get("ttr", {})
    diagnosis = summary.get("diagnosis", {})
    diagnosis_ttr = diagnosis.get("ttr", {})
    core: Dict[str, Any] = {
        "time": summary["time"],
        "suos": summary["suos"],
        "events_total": summary["events_total"],
        "events_by_kind": summary["events_by_kind"],
        "errors_total": summary["errors_total"],
        "errors_by_suo": summary["errors_by_suo"],
        "latency": {
            "count": latency.get("count", 0),
            "min": latency.get("min", 0.0),
            "max": latency.get("max", 0.0),
        },
        # Recovery counts and per-wave TTR count/min/max are exact sums
        # and extrema over per-member timelines, hence shard-invariant;
        # TTR means/quantiles are excluded like the latency ones.
        "recovery": {
            "recovered": recovery.get("recovered", 0),
            "actions": recovery.get("actions", {}),
            "ttr": {
                "count": ttr.get("count", 0),
                "min": ttr.get("min", 0.0),
                "max": ttr.get("max", 0.0),
            },
            "waves": {
                wave: {
                    "count": entry.get("count", 0),
                    "min": entry.get("min", 0.0),
                    "max": entry.get("max", 0.0),
                }
                for wave, entry in sorted(recovery.get("waves", {}).items())
            },
        },
        # Diagnosis outcomes are exact integer counts over per-member
        # timelines (each episode rebinds on exactly one shard); the
        # per-mode TTR count/min/max are extrema like the latency ones,
        # while accuracy/rate ratios and quantiles stay excluded.
        "diagnosis": {
            "rebinds": diagnosis.get("rebinds", {}),
            "suspects": diagnosis.get("suspects", {}),
            "rank_of_true": diagnosis.get("rank_of_true", {}),
            "hits": diagnosis.get("hits", 0),
            "misses": diagnosis.get("misses", 0),
            "ttr": {
                mode: {
                    "count": block.get("count", 0),
                    "min": block.get("min", 0.0),
                    "max": block.get("max", 0.0),
                }
                for mode, block in sorted(diagnosis_ttr.items())
            },
        },
    }
    if "per_suo" in summary:
        core["per_suo"] = summary["per_suo"]
    return core


def merge_digest(summary: Dict[str, Any]) -> str:
    """Backend-invariant digest: hash of :func:`mergeable_summary`.

    This is the witness a sharded campaign and its serial twin agree on
    (``CampaignReport.telemetry_digest``)."""
    return summary_digest(mergeable_summary(summary))


def _merge_dicts(parts: List[Dict[str, int]]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return {key: merged[key] for key in sorted(merged)}


def _merge_stat_blocks(
    blocks: List[Dict[str, Any]], reservoir: int
) -> Dict[str, Any]:
    """Merge N :meth:`ReservoirHistogram.stats` blocks into one.

    Count/min/max are exact; the mean is re-derived from count-weighted
    totals; quantiles come from a deterministic fixed-seed re-sample of
    the concatenated retained samples (see :func:`merge_summaries`).
    """
    counts = [block.get("count", 0) for block in blocks]
    total_count = sum(counts)
    merged: Dict[str, Any] = {"count": total_count}
    nonzero = [block for block in blocks if block.get("count", 0) > 0]
    if nonzero:
        total = sum(block.get("mean", 0.0) * block.get("count", 0) for block in nonzero)
        merged["mean"] = round(total / total_count, DIGITS)
        merged["min"] = min(block.get("min", 0.0) for block in nonzero)
        merged["max"] = max(block.get("max", 0.0) for block in nonzero)
    else:
        merged.update({"mean": 0.0, "min": 0.0, "max": 0.0})
    # Fixed-seed Algorithm R over the concatenated shard samples: the
    # same sketch FleetTelemetry keeps, so a single-summary merge
    # reproduces its quantiles exactly.
    resampler = ReservoirHistogram(capacity=reservoir, rng=random.Random(0))
    for block in blocks:
        for value in block.get("samples", ()):
            resampler.add(value)
    for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
        merged[name] = round(resampler.quantile(q), DIGITS)
    merged["retained"] = resampler.retained
    merged["samples"] = resampler.samples()
    return merged


def _merge_recovery(
    parts: List[Dict[str, Any]], reservoir: int
) -> Dict[str, Any]:
    """Fold N per-shard recovery blocks into one (exact counts/extrema,
    re-derived means, deterministically re-sampled TTR quantiles)."""
    waves: Dict[str, Dict[str, Any]] = {}
    for part in parts:
        for wave, entry in part.get("waves", {}).items():
            merged = waves.get(wave)
            count = entry.get("count", 0)
            if count <= 0:
                continue
            if merged is None:
                waves[wave] = dict(entry)
            else:
                total = merged["count"] + count
                merged["min"] = min(merged["min"], entry.get("min", 0.0))
                merged["max"] = max(merged["max"], entry.get("max", 0.0))
                merged["mean"] = round(
                    (merged["mean"] * merged["count"]
                     + entry.get("mean", 0.0) * count) / total,
                    DIGITS,
                )
                merged["count"] = total
    return {
        "recovered": sum(part.get("recovered", 0) for part in parts),
        "actions": _merge_dicts([part.get("actions", {}) for part in parts]),
        "ttr": _merge_stat_blocks(
            [part.get("ttr", {}) for part in parts], reservoir
        ),
        "waves": {wave: waves[wave] for wave in sorted(waves)},
    }


def _merge_diagnosis(
    parts: List[Dict[str, Any]], reservoir: int
) -> Dict[str, Any]:
    """Fold N per-shard diagnosis blocks into one (exact counters, exact
    per-mode TTR extrema, deterministically re-sampled quantiles, and
    accuracy/rate ratios re-derived from the merged counts)."""
    rebinds = _merge_dicts([part.get("rebinds", {}) for part in parts])
    ranks = _merge_dicts([part.get("rank_of_true", {}) for part in parts])
    ranked = sum(ranks.values())
    total = sum(rebinds.values())
    modes = sorted({mode for part in parts for mode in part.get("ttr", {})})
    return {
        "rebinds": rebinds,
        "suspects": _merge_dicts([part.get("suspects", {}) for part in parts]),
        "rank_of_true": ranks,
        "hits": sum(part.get("hits", 0) for part in parts),
        "misses": sum(part.get("misses", 0) for part in parts),
        "localization_accuracy": (
            round(ranks.get("1", 0) / ranked, DIGITS) if ranked else 0.0
        ),
        "targeted_rebind_rate": (
            round(rebinds.get("targeted", 0) / total, DIGITS) if total else 0.0
        ),
        "ttr": {
            mode: _merge_stat_blocks(
                [part.get("ttr", {}).get(mode, {}) for part in parts],
                reservoir,
            )
            for mode in modes
        },
    }


def merge_summaries(
    summaries: List[Dict[str, Any]],
    reservoir: int = 512,
) -> Dict[str, Any]:
    """Pure companion to :meth:`FleetTelemetry.summary`: fold N shard
    summaries into one fleet summary.

    Merge rules, field by field:

    * counters and tallies (``events_total``, ``events_by_kind``,
      ``errors_*``, ``per_suo``, ``suos``) **sum** — exact, because each
      member lives on exactly one shard;
    * ``time`` takes the max (shards share the simulated clock, so for a
      completed campaign these are equal);
    * ``window_rate`` sums — the windowed-rate buckets of every shard
      align on *simulated* time, so rates over the same trailing window
      are additive (up to the 1e-9 canonical rounding);
    * ``latency`` (and ``recovery.ttr``) count/min/max are exact; the
      mean is re-derived from count-weighted totals; quantiles are
      re-computed from a reservoir **re-sampled deterministically**
      (fixed-seed Algorithm R) from the concatenated retained samples of
      the inputs — the same bounded sketch a serial run would produce,
      not a biased average of quantiles;
    * ``recovery`` counts/actions and per-wave TTR count/min/max sum or
      take extrema exactly (each member recovers on exactly one shard);
      per-wave means are count-weighted;
    * ``diagnosis`` counters (rebind modes, suspects, rank-of-true,
      hits/misses) sum exactly; the accuracy and targeted-rate ratios
      are re-derived from the merged counts; per-mode TTR blocks merge
      like the latency block.

    Merging a single summary is the identity on counters, tallies, and
    quantiles, so serial campaigns route through the same code path.
    """
    if not summaries:
        raise ValueError("merge_summaries needs at least one summary")
    merged: Dict[str, Any] = {
        "time": max(s["time"] for s in summaries),
        "suos": sum(s["suos"] for s in summaries),
        "events_total": sum(s["events_total"] for s in summaries),
        "events_by_kind": _merge_dicts([s["events_by_kind"] for s in summaries]),
        "window_rate": round(sum(s["window_rate"] for s in summaries), DIGITS),
        "latency": _merge_stat_blocks(
            [s.get("latency", {}) for s in summaries], reservoir
        ),
        "errors_total": sum(s["errors_total"] for s in summaries),
        "errors_by_suo": _merge_dicts([s["errors_by_suo"] for s in summaries]),
        "recovery": _merge_recovery(
            [s.get("recovery", {}) for s in summaries], reservoir
        ),
        "diagnosis": _merge_diagnosis(
            [s.get("diagnosis", {}) for s in summaries], reservoir
        ),
    }
    if any("per_suo" in s for s in summaries):
        per_suo: Dict[str, Dict[str, int]] = {}
        for s in summaries:
            for suo_id, tally in s.get("per_suo", {}).items():
                if suo_id in per_suo:
                    for field in tally:
                        per_suo[suo_id][field] += tally[field]
                else:
                    per_suo[suo_id] = dict(tally)
        merged["per_suo"] = {key: per_suo[key] for key in sorted(per_suo)}
    return merged
