"""Causal spans: stitch each fault episode into a deterministic tree.

The telemetry hub answers "how many / how fast" in aggregate; this
module answers "what happened to THIS member, in order": a
:class:`SpanRecorder` subscribes to the runtime bus and reconstructs
every fault episode as a causal span tree —

    fault injection
    └─ latent      (injection → first comparator deviation)
       └─ detect   (first deviation → the error report firing)
          └─ sfl-rank  (the spectrum ranking consulted at rebind)
             └─ rung*  (each recovery action, with its downtime)
                └─ repair  (the episode closing, carrying its TTR)

keyed entirely to **simulated** time, so the same seeded campaign
reconstructs byte-identical trees run over run — and shard over shard.

Overhead discipline (the paper's Sect. 2 constraint, enforced by
``bench_e13_overhead``): the recorder is off by default and costs
nothing on the hot path when on.  It never touches the ``suo.*``
firehose — it subscribes to each member's **exact** ``suo.<id>.error``
topic (errors are rare by construction) plus one ``obs.*`` wildcard
carrying the span *markers* the recovery harness and diagnoser publish.
Markers live on their own ``obs.<suo_id>.span`` namespace precisely so
that no existing ``suo.*`` subscriber — the fleet trace digest, the
telemetry hub — can see them: with the recorder disabled the markers
publish into silence (an O(1) empty-table dispatch) and every existing
digest stays byte-identical.

Memory is bounded: full episode records live in a ring buffer (newest
``ring`` episodes) plus a seeded Algorithm-R reservoir (a uniform sample
of the whole campaign); per-episode SHA-256 digests are kept for all
completed episodes (~80 bytes each) because they are the shard-invariant
determinism witness — :func:`span_forest_digest` hashes the sorted
digest triples, and a serial run and any sharding of it agree on it.

Exporters: :func:`chrome_trace` renders episodes as Chrome
``trace_event`` JSON (load it at ``chrome://tracing`` or in Perfetto);
:func:`text_timeline` renders a plain-text episode timeline.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..runtime.bus import EventBus, Subscription
from ..runtime.telemetry import DIGITS

#: Marker kinds the recorder understands (the ``ev`` key of dicts
#: published on ``obs.<suo_id>.span``).
MARKER_KINDS = ("inject", "sfl-rank", "rung", "repair")

#: How many retained sample episodes a mergeable block ships, and the
#: default reservoir capacity.  Sized so the library drills (≤ a few
#: dozen episodes) retain everything — which makes the merged sample
#: list identical between a serial run and any sharding of it — while a
#: million-episode soak still ships a bounded block.
DEFAULT_RESERVOIR = 64
DEFAULT_RING = 256


def _round(value: Optional[float]) -> Optional[float]:
    return round(value, DIGITS) if value is not None else None


class _Episode:
    """One fault episode being stitched (mutable while open)."""

    __slots__ = (
        "suo_id", "wave", "fault", "component", "injected_at",
        "first_deviation_at", "detected_at", "observable", "detections",
        "ranks", "rungs", "repaired_at", "repair_mode", "ttr",
    )

    def __init__(
        self,
        suo_id: str,
        wave: Any,
        fault: Optional[str],
        component: Optional[str],
        injected_at: float,
    ) -> None:
        self.suo_id = suo_id
        self.wave = wave
        self.fault = fault
        self.component = component
        self.injected_at = injected_at
        self.first_deviation_at: Optional[float] = None
        self.detected_at: Optional[float] = None
        self.observable: Optional[str] = None
        self.detections = 0
        self.ranks: List[Dict[str, Any]] = []
        self.rungs: List[Dict[str, Any]] = []
        self.repaired_at: Optional[float] = None
        self.repair_mode: Optional[str] = None
        self.ttr: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """Canonical JSON-friendly record (floats rounded so the digest
        is stable across float-repr differences)."""
        return {
            "suo": self.suo_id,
            "wave": self.wave,
            "fault": self.fault,
            "component": self.component,
            "injected_at": _round(self.injected_at),
            "first_deviation_at": _round(self.first_deviation_at),
            "detected_at": _round(self.detected_at),
            "observable": self.observable,
            "detections": self.detections,
            "ranks": self.ranks,
            "rungs": self.rungs,
            "repaired_at": _round(self.repaired_at),
            "repair_mode": self.repair_mode,
            "ttr": _round(self.ttr),
        }


def episode_digest(record: Dict[str, Any]) -> str:
    """SHA-256 over one canonical episode record."""
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def span_forest_digest(digests: List[List[Any]]) -> str:
    """Order-invariant digest over ``(suo, wave, digest)`` triples.

    Sorting before hashing is what makes this the sharding witness:
    shards complete episodes in interleaved order, but the triple *set*
    is a placement-invariant fact of the campaign."""
    hasher = hashlib.sha256()
    for suo, wave, digest in sorted(
        (str(s), str(w), str(d)) for s, w, d in digests
    ):
        hasher.update(f"{suo}\t{wave}\t{digest}\n".encode("utf-8"))
    return hasher.hexdigest()


class SpanRecorder:
    """Deterministic episode stitcher over one fleet's bus.

    Subscribe with :meth:`attach_member` per member (``MonitorFleet``
    does this on admission once the recorder is attached); the ``obs.*``
    marker subscription is made at construction.  All state is keyed to
    the ``clock`` (simulated time), never wall-clock.
    """

    def __init__(
        self,
        bus: EventBus,
        clock: Callable[[], float],
        seed: int = 0,
        ring: int = DEFAULT_RING,
        reservoir: int = DEFAULT_RESERVOIR,
    ) -> None:
        if ring <= 0 or reservoir <= 0:
            raise ValueError("ring and reservoir must be positive")
        self._bus = bus
        self._clock = clock
        self.ring = ring
        self.reservoir = reservoir
        self._rng = random.Random(f"spans:{seed}")
        #: suo_id -> open episodes, oldest first (mirrors the recovery
        #: harness's own episode queue, so rungs/repairs match up).
        self._open: Dict[str, List[_Episode]] = {}
        #: Newest ``ring`` completed episodes, full records.
        self.episodes: deque = deque(maxlen=ring)
        #: Seeded uniform sample of ALL completed episodes.
        self._samples: List[Dict[str, Any]] = []
        #: (suo, wave, digest) per completed episode — the witness.
        self.digests: List[List[str]] = []
        self.completed = 0
        self.errors_claimed = 0
        #: Errors on members with no open episode (false alarms, or
        #: residual deviation after a repair) — counted, not dropped.
        self.orphan_errors = 0
        #: Markers that matched no open episode, by kind.
        self.orphan_markers: Dict[str, int] = {}
        self.markers: Dict[str, int] = {}
        self._subscriptions: List[Subscription] = [
            bus.subscribe("obs.*", self._on_marker)
        ]
        self._attached: set = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_member(self, suo_id: str) -> None:
        """Subscribe to one member's exact error topic (idempotent).

        Exact topics keep the recorder off the ``suo.*`` hot path: the
        handler runs only when an error is actually published."""
        if suo_id in self._attached:
            return
        self._attached.add(suo_id)
        self._subscriptions.append(
            self._bus.subscribe(
                f"suo.{suo_id}.error",
                lambda topic, report, suo_id=suo_id: self._on_error(
                    suo_id, report
                ),
            )
        )

    def detach(self) -> None:
        """Stop ingesting; stitched state stays queryable."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions = []

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _on_marker(self, topic: str, event: Any) -> None:
        if not isinstance(event, dict):
            return
        kind = event.get("ev")
        if kind not in MARKER_KINDS:
            return
        # topic == "obs.<suo_id>.span"
        suo_id = topic.split(".", 2)[1] if topic.count(".") >= 2 else topic
        self.markers[kind] = self.markers.get(kind, 0) + 1
        now = self._clock()
        if kind == "inject":
            self._open.setdefault(suo_id, []).append(
                _Episode(
                    suo_id,
                    event.get("wave"),
                    event.get("fault"),
                    event.get("component"),
                    now,
                )
            )
            return
        episode = self._match(suo_id, event.get("wave"))
        if episode is None:
            self.orphan_markers[kind] = self.orphan_markers.get(kind, 0) + 1
            return
        if kind == "sfl-rank":
            episode.ranks.append(
                {
                    "at": _round(now),
                    "suspect": event.get("suspect"),
                    "confidence": event.get("confidence"),
                    "true_rank": event.get("true_rank"),
                    "source": event.get("source", "spectra"),
                }
            )
        elif kind == "rung":
            rung: Dict[str, Any] = {
                "at": _round(now),
                "action": event.get("action"),
                "downtime": event.get("downtime"),
            }
            for key in ("mode", "hit"):
                if key in event:
                    rung[key] = event[key]
            episode.rungs.append(rung)
        elif kind == "repair":
            self._close(suo_id, episode, event, now)

    def _match(self, suo_id: str, wave: Any) -> Optional[_Episode]:
        """The oldest open episode the marker belongs to.

        Markers carry the wave of the episode the harness is working
        (its oldest open one); fall back to the oldest open episode when
        the wave is absent — same queue discipline as the harness."""
        queue = self._open.get(suo_id)
        if not queue:
            return None
        if wave is not None:
            for episode in queue:
                if episode.wave == wave:
                    return episode
        return queue[0]

    def _on_error(self, suo_id: str, report: Any) -> None:
        queue = self._open.get(suo_id)
        if not queue:
            self.orphan_errors += 1
            return
        self.errors_claimed += 1
        # First undetected episode claims the detection (oldest first —
        # stacked faults detect in arrival order); later errors are
        # re-detections of the episode still being worked.
        for episode in queue:
            if episode.detected_at is None:
                when = getattr(report, "time", None)
                episode.detected_at = when if when is not None else self._clock()
                episode.observable = getattr(report, "observable", None)
                context = getattr(report, "context", None) or {}
                first = context.get("first_deviation_at")
                episode.first_deviation_at = (
                    first if first is not None else episode.detected_at
                )
                episode.detections = 1
                return
        queue[0].detections += 1

    def _close(
        self, suo_id: str, episode: _Episode, event: Dict[str, Any], now: float
    ) -> None:
        self._open[suo_id].remove(episode)
        episode.repaired_at = now
        episode.repair_mode = event.get("mode")
        ttr = event.get("ttr")
        episode.ttr = float(ttr) if ttr is not None else now - episode.injected_at
        record = episode.as_dict()
        digest = episode_digest(record)
        index = self.completed
        self.completed += 1
        self.episodes.append(record)
        self.digests.append([record["suo"], str(record["wave"]), digest])
        # Algorithm R over the full completed stream (seeded: the same
        # campaign retains the same sample run over run).
        if index < self.reservoir:
            self._samples.append(record)
        else:
            slot = self._rng.randrange(index + 1)
            if slot < self.reservoir:
                self._samples[slot] = record

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def open_episodes(self) -> int:
        return sum(len(queue) for queue in self._open.values())

    def forest_digest(self) -> str:
        """Order-invariant digest over every completed episode."""
        return span_forest_digest(self.digests)

    def sample_episodes(self) -> List[Dict[str, Any]]:
        """The reservoir sample, sorted canonically (suo, wave)."""
        return sorted(
            self._samples, key=lambda r: (str(r["suo"]), str(r["wave"]))
        )

    def mergeable(self) -> Dict[str, Any]:
        """JSON-friendly block a shard worker ships home.

        Counters and the digest triples are exact and shard-invariant;
        the sample list is a bounded best-effort carry (identical to the
        serial run's whenever the campaign fits the reservoir, which the
        library drills do)."""
        return {
            "completed": self.completed,
            "open": self.open_episodes,
            "errors_claimed": self.errors_claimed,
            "orphan_errors": self.orphan_errors,
            "markers": {k: self.markers[k] for k in sorted(self.markers)},
            "digests": sorted(self.digests),
            "forest_digest": self.forest_digest(),
            "samples": self.sample_episodes(),
        }


def merge_span_blocks(
    blocks: List[Dict[str, Any]], reservoir: int = DEFAULT_RESERVOIR
) -> Dict[str, Any]:
    """Fold N per-shard :meth:`SpanRecorder.mergeable` blocks into one.

    Counters sum exactly (each member's episodes complete on exactly one
    shard); digest triples union and re-sort, so the merged
    ``forest_digest`` equals the serial run's; samples concatenate in
    canonical (suo, wave) order and truncate deterministically at
    ``reservoir``."""
    if not blocks:
        raise ValueError("merge_span_blocks needs at least one block")
    markers: Dict[str, int] = {}
    for block in blocks:
        for kind, count in block.get("markers", {}).items():
            markers[kind] = markers.get(kind, 0) + count
    digests = sorted(
        triple for block in blocks for triple in block.get("digests", [])
    )
    samples = sorted(
        (record for block in blocks for record in block.get("samples", [])),
        key=lambda r: (str(r["suo"]), str(r["wave"])),
    )[:reservoir]
    return {
        "completed": sum(block.get("completed", 0) for block in blocks),
        "open": sum(block.get("open", 0) for block in blocks),
        "errors_claimed": sum(
            block.get("errors_claimed", 0) for block in blocks
        ),
        "orphan_errors": sum(
            block.get("orphan_errors", 0) for block in blocks
        ),
        "markers": {k: markers[k] for k in sorted(markers)},
        "digests": digests,
        "forest_digest": span_forest_digest(digests),
        "samples": samples,
    }


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def _span_children(record: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The episode's child spans as (name, start, end, args) dicts —
    shared layout between the Chrome and text exporters."""
    spans: List[Dict[str, Any]] = []
    injected = record.get("injected_at") or 0.0
    first = record.get("first_deviation_at")
    detected = record.get("detected_at")
    repaired = record.get("repaired_at")
    if first is not None:
        spans.append(
            {"name": "latent", "start": injected, "end": first, "args": {}}
        )
    if detected is not None:
        spans.append(
            {
                "name": "detect",
                "start": first if first is not None else detected,
                "end": detected,
                "args": {
                    "observable": record.get("observable"),
                    "detections": record.get("detections"),
                },
            }
        )
    for rank in record.get("ranks", []):
        spans.append(
            {
                "name": "sfl-rank",
                "start": rank.get("at"),
                "end": rank.get("at"),
                "args": {
                    "suspect": rank.get("suspect"),
                    "confidence": rank.get("confidence"),
                    "true_rank": rank.get("true_rank"),
                },
            }
        )
    for rung in record.get("rungs", []):
        start = rung.get("at") or 0.0
        spans.append(
            {
                "name": f"rung:{rung.get('action')}",
                "start": start,
                "end": start + (rung.get("downtime") or 0.0),
                "args": {
                    key: rung[key] for key in ("mode", "hit") if key in rung
                },
            }
        )
    if repaired is not None:
        spans.append(
            {
                "name": "repair",
                "start": repaired,
                "end": repaired,
                "args": {"mode": record.get("repair_mode"),
                         "ttr": record.get("ttr")},
            }
        )
    return spans


def chrome_trace(episodes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Render episode records as Chrome ``trace_event`` JSON.

    Simulated seconds map to trace microseconds; each SUO gets its own
    thread lane (named via metadata events), each episode a complete
    ("X") root span of duration TTR with its causal children nested
    inside, and the instantaneous nodes (ranking, repair) as instant
    ("i") events.  Load the result at ``chrome://tracing``/Perfetto.
    """
    events: List[Dict[str, Any]] = []
    lanes: Dict[str, int] = {}
    for record in episodes:
        suo = str(record.get("suo"))
        tid = lanes.get(suo)
        if tid is None:
            tid = lanes[suo] = len(lanes) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": suo},
                }
            )
        injected = record.get("injected_at") or 0.0
        repaired = record.get("repaired_at")
        duration = (
            (repaired - injected) if repaired is not None
            else (record.get("ttr") or 0.0)
        )
        events.append(
            {
                "name": (
                    f"episode w{record.get('wave')} "
                    f"{record.get('fault') or '?'}"
                ),
                "cat": "episode",
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round(injected * 1e6, 3),
                "dur": round(max(duration, 0.0) * 1e6, 3),
                "args": {
                    "component": record.get("component"),
                    "ttr": record.get("ttr"),
                    "repair_mode": record.get("repair_mode"),
                },
            }
        )
        for span in _span_children(record):
            start = span["start"] or 0.0
            end = span["end"] if span["end"] is not None else start
            if end > start:
                events.append(
                    {
                        "name": span["name"],
                        "cat": "span",
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": round(start * 1e6, 3),
                        "dur": round((end - start) * 1e6, 3),
                        "args": span["args"],
                    }
                )
            else:
                events.append(
                    {
                        "name": span["name"],
                        "cat": "span",
                        "ph": "i",
                        "s": "t",
                        "pid": 1,
                        "tid": tid,
                        "ts": round(start * 1e6, 3),
                        "args": span["args"],
                    }
                )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated seconds x 1e6"},
    }


def text_timeline(episodes: List[Dict[str, Any]]) -> str:
    """Render episode records as a plain-text timeline, one indented
    block per episode, events in simulated-time order."""
    lines: List[str] = []
    for record in episodes:
        ttr = record.get("ttr")
        outcome = f"TTR={ttr:.3f}s" if ttr is not None else "(open)"
        lines.append(
            f"{record.get('suo')} wave {record.get('wave')} "
            f"fault={record.get('fault') or '?'} "
            f"component={record.get('component') or '?'} "
            f"{outcome}"
        )
        timeline: List[Any] = [
            (record.get("injected_at") or 0.0, "inject", "")
        ]
        for span in _span_children(record):
            start = span["start"] or 0.0
            detail = " ".join(
                f"{key}={value}" for key, value in span["args"].items()
                if value is not None
            )
            timeline.append((start, span["name"], detail))
        for at, name, detail in sorted(timeline, key=lambda row: row[0]):
            suffix = f"  {detail}" if detail else ""
            lines.append(f"  t={at:12.6f}  {name}{suffix}")
    return "\n".join(lines)
