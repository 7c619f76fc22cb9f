"""Boundary spans, profiles and per-layer metrics for the benchmark.

Spans are recorded from outside the program: :meth:`Tracer.install`
monkeypatches wrappers over public layer entry points (``execute_cell``,
``CompiledScenario.run``, ``CampaignCheckpoint.record_shard``, ...)
before any cell runs, so the traced run takes the real code path.  Each
span keeps its name, start, end, parent and the cell (or service job)
it belongs to; spans stay in memory until the pass ends.

Times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux and so comparable between the client and the server processes of
the service workload.

This module imports only the standard library at import time; the
program's modules are imported when :meth:`Tracer.install` runs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Spans that bound one cell: the benchmark's call of ``run_cell`` for the
#: batch workloads, submit → ``end`` record for a service job.
ROOT_SPANS = ("bench.cell", "client.job")

#: Package buckets for profile self time; ``other`` holds the remaining
#: ``repro`` packages and ``stdlib`` everything outside ``repro``.
PACKAGES = (
    "sim", "runtime", "statemachine", "awareness", "tv", "platform", "koala",
    "printer", "diagnosis", "recovery", "obs", "scenarios", "campaign",
    "service", "other", "stdlib",
)


def _payload(record: Dict[str, Any], result: Any) -> None:
    # Sized after the pass (see Tracer.finish) so the json encoding is not
    # charged to the enclosing spans.
    record["args"]["_payload"] = result


def _markers(record: Dict[str, Any], result: Any) -> None:
    record["args"]["markers"] = sum(result.get("markers", {}).values())


#: (module[:class], attribute, span name, after-hook) for every layer
#: boundary traced in a simulating process.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.campaign.core", "execute_cell", "campaign.execute_cell", None),
    ("repro.campaign.core", "build_plan", "scenarios.build_plan", None),
    ("repro.campaign.core", "partition_plan", "scenarios.partition_plan", None),
    ("repro.campaign.core", "merge_shard_results", "campaign.merge", None),
    ("repro.campaign.backends", "execute_plan", "campaign.execute_plan", _payload),
    ("repro.scenarios.compile:CompiledScenario", "__init__", "scenarios.compile", None),
    ("repro.scenarios.compile:CompiledScenario", "run", "sim.run", None),
    ("repro.scenarios.compile:CompiledScenario", "run_segmented", "sim.run", None),
    ("repro.runtime.telemetry:FleetTelemetry", "summary", "runtime.summary", None),
    ("repro.obs.spans:SpanRecorder", "mergeable", "obs.mergeable", _markers),
    ("repro.campaign.checkpoint:CampaignCheckpoint", "begin_cell",
     "campaign.checkpoint.begin_cell", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint", "record_shard",
     "campaign.checkpoint.record_shard", None),
    ("repro.campaign.checkpoint:CampaignCheckpoint", "finish_cell",
     "campaign.checkpoint.finish_cell", None),
)

#: The service job thread reaches the same layers through names it
#: imported into ``repro.service.jobs``.
SERVER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.service.jobs", "execute_cell", "campaign.execute_cell", None),
    ("repro.service.jobs", "execute_plan_segmented", "campaign.execute_plan", _payload),
)


class Tracer:
    """In-memory span recorder with monkeypatched layer wrappers."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: ``module:attr`` of every target that no longer exists.
        self.missing: List[str] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(
        self, name: str, parent: Optional[Dict[str, Any]], cell: Optional[str],
        args: Dict[str, Any],
    ) -> Dict[str, Any]:
        return {
            "id": f"{self.pid}:{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "name": name,
            # A span belongs to its parent's cell; only a root names one.
            "cell": parent["cell"] if parent else cell,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "start": 0.0,
            "end": 0.0,
            "args": args,
        }

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None, **args: Any) -> Iterator[Dict[str, Any]]:
        """Time a block as a child of the thread's innermost open span."""
        stack = self._stack()
        record = self._record(name, stack[-1] if stack else None, cell, args)
        stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)

    def add(
        self, name: str, start: float, end: float, cell: Optional[str],
        parent: Optional[Dict[str, Any]] = None, **args: Any,
    ) -> Dict[str, Any]:
        """Record a span timed by the caller (the client's service calls)."""
        record = self._record(name, parent, cell, args)
        record["start"], record["end"] = start, end
        self.spans.append(record)
        return record

    # -- wrappers ------------------------------------------------------
    def install(self, targets: Sequence[Tuple[str, str, str, Optional[Callable]]] = TARGETS) -> None:
        self.missing = []
        for target, attr, name, after in targets:
            self._wrap(target, attr, name, after)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: str, attr: str, name: str, after: Optional[Callable]) -> None:
        module_name, _, class_name = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{target}.{attr}")
            return
        # A server-side execute_cell is a root span; the service passes the
        # job id as the campaign id, and the client files its spans under it.
        names_cell = name == "campaign.execute_cell"
        span = self.span

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell = kwargs.get("campaign_id") if names_cell else None
            with span(name, cell=cell) as record:
                result = original(*args, **kwargs)
            if after is not None:
                after(record, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._local.gc_start = perf_counter()
            return
        start = getattr(self._local, "gc_start", None)
        if start is None:
            return
        stack = self._stack()
        self.add("gc", start, perf_counter(), None, stack[-1] if stack else None,
                 generation=info.get("generation"))

    def finish(self) -> List[Dict[str, Any]]:
        """Size the shard payloads and return JSON-safe spans."""
        for record in self.spans:
            payload = record["args"].pop("_payload", None)
            if payload is not None:
                record["args"]["bytes"] = len(json.dumps(payload, sort_keys=True))
        return self.spans


# ----------------------------------------------------------------------
# Chrome trace_event export
# ----------------------------------------------------------------------
def to_chrome(spans: Sequence[Dict[str, Any]], labels: Dict[int, str]) -> Dict[str, Any]:
    """Complete ("X") events in microseconds plus process-name metadata."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        for pid, label in labels.items()
    ]
    for span in spans:
        args = dict(span["args"])
        args.update(id=span["id"], parent=span["parent"], cell=span["cell"])
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": span["start"] * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def from_chrome(data: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Spans back out of a file written by :func:`to_chrome`."""
    spans = []
    for event in data["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = dict(event["args"])
        spans.append({
            "id": args.pop("id"),
            "parent": args.pop("parent"),
            "cell": args.pop("cell"),
            "name": event["name"],
            "pid": event["pid"],
            "tid": event["tid"],
            "start": event["ts"] / 1e6,
            "end": (event["ts"] + event["dur"]) / 1e6,
            "args": args,
        })
    return spans


def link_processes(client: Sequence[Dict[str, Any]], server: Sequence[Dict[str, Any]]) -> None:
    """Parent each server-side root span to the client job of its cell."""
    jobs = {span["cell"]: span["id"] for span in client if span["name"] == "client.job"}
    for span in server:
        if span["parent"] is None and span["cell"] in jobs:
            span["parent"] = jobs[span["cell"]]


# ----------------------------------------------------------------------
# span-tree arithmetic
# ----------------------------------------------------------------------
def _children(spans: Sequence[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    return children


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Duration minus the part of the interval that child spans cover."""
    children = _children(spans)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for lo, hi in sorted((c["start"], c["end"]) for c in children[span["id"]]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


def check_tree(spans: Sequence[Dict[str, Any]], eps: float = 1e-6) -> List[str]:
    """Every way the spans fail to form a well-formed tree (empty if none).

    Parents exist, children lie inside their parent's interval, self time
    is never negative, and in each process the self times of one cell's
    spans add up to no more than that cell's wall time.
    """
    problems = []
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"{span['name']} {span['id']}: parent {parent} missing")
            continue
        outer = by_id[parent]
        if span["start"] < outer["start"] - eps or span["end"] > outer["end"] + eps:
            problems.append(
                f"{span['name']} {span['id']} lies outside its parent {outer['name']}"
            )
    own = self_times(spans)
    for span_id, value in own.items():
        if value < -eps:
            problems.append(f"{by_id[span_id]['name']} {span_id}: self time {value}")
    walls = {
        span["cell"]: span["end"] - span["start"]
        for span in spans if span["name"] in ROOT_SPANS
    }
    totals: Dict[Tuple[Any, int], float] = defaultdict(float)
    for span in spans:
        if span["cell"] in walls:
            totals[span["cell"], span["pid"]] += own[span["id"]]
    for (cell, pid), total in totals.items():
        if total > walls[cell] + eps:
            problems.append(
                f"cell {cell} pid {pid}: self times {total} exceed wall {walls[cell]}"
            )
    return problems


def layer_metrics(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Per-cell medians of the boundary-span metrics, plus GC totals."""
    by_id = {span["id"]: span for span in spans}
    children = _children(spans)
    cells: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span["name"] in ROOT_SPANS:
            cells[span["cell"]] = defaultdict(float, {
                "sim.events": span["args"].get("dispatched", 0),
                "service.stream_records": span["args"].get("records", 0),
                "service.stream_bytes": span["args"].get("bytes", 0),
            })
    submits: Dict[str, float] = {}
    starts: Dict[str, float] = {}
    client_pid = _root_pid(spans)
    for span in spans:
        cell = cells.get(span["cell"])
        if cell is None:
            continue
        name, duration = span["name"], span["end"] - span["start"]
        if name in ("scenarios.build_plan", "scenarios.partition_plan"):
            cell["scenarios.plan_s"] += duration
        elif name == "scenarios.compile":
            cell["scenarios.compile_s"] += duration
        elif name == "sim.run":
            parent = by_id.get(span["parent"])
            if parent is None or parent["name"] != "sim.run":
                cell["sim.run_s"] += duration
        elif name == "runtime.summary":
            cell["runtime.summary_s"] += duration
            cell["runtime.summary_calls"] += 1
        elif name == "campaign.execute_plan":
            inner = sum(
                c["end"] - c["start"] for c in children[span["id"]]
                if c["name"] in ("scenarios.compile", "sim.run")
            )
            cell["campaign.payload_s"] += duration - inner
            cell["campaign.payload_bytes"] += span["args"].get("bytes", 0)
        elif name == "campaign.merge":
            cell["campaign.merge_s"] += duration
        elif name.startswith("campaign.checkpoint."):
            cell["campaign.checkpoint_s"] += duration
            cell["campaign.checkpoint_writes"] += 1
        elif name == "obs.mergeable":
            cell["obs.mergeable_s"] += duration
            cell["obs.spans"] += span["args"].get("markers", 0)
        elif name == "client.submit":
            cell["service.submit_s"] += duration
            submits[span["cell"]] = span["start"]
        elif name == "campaign.execute_cell" and span["pid"] != client_pid:
            starts[span["cell"]] = min(starts.get(span["cell"], span["start"]), span["start"])
        elif name == "gc":
            cell["gc.pause_s"] += duration
    for key, submitted in submits.items():
        if key in starts:
            cells[key]["service.queue_s"] = starts[key] - submitted
    names = (
        "scenarios.plan_s", "scenarios.compile_s", "sim.run_s", "sim.events",
        "runtime.summary_s", "runtime.summary_calls", "campaign.payload_s",
        "campaign.payload_bytes", "campaign.merge_s", "campaign.checkpoint_s",
        "campaign.checkpoint_writes", "obs.mergeable_s", "obs.spans",
        "service.submit_s", "service.queue_s", "service.stream_records",
        "service.stream_bytes", "gc.pause_s",
    )
    metrics = {
        name: statistics.median(cell[name] for cell in cells.values()) if cells else 0.0
        for name in names
    }
    metrics["gc.gen2_collections"] = sum(
        1 for span in spans if span["name"] == "gc" and span["args"].get("generation") == 2
    )
    return metrics


def _root_pid(spans: Sequence[Dict[str, Any]]) -> Optional[int]:
    for span in spans:
        if span["name"] in ROOT_SPANS:
            return span["pid"]
    return None


# ----------------------------------------------------------------------
# profile pass
# ----------------------------------------------------------------------
def package_of(filename: str) -> str:
    """The ``repro`` package a profiled function lives in."""
    parts = filename.replace("\\", "/").split("/")
    if "repro" not in parts[:-1]:
        return "stdlib"
    index = len(parts) - 1 - parts[::-1].index("repro")
    package = parts[index + 1] if index + 2 < len(parts) else ""
    return package if package in PACKAGES else "other"


def profile_metrics(stats: Any, cells: int) -> Dict[str, float]:
    """Self seconds per cell and exact call counts, by package.

    ``stats`` is a :class:`pstats.Stats`; ``cells`` is how many cells the
    profile covered.
    """
    self_s = dict.fromkeys(PACKAGES, 0.0)
    calls = dict.fromkeys(PACKAGES, 0)
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) in stats.stats.items():
        package = package_of(filename)
        self_s[package] += tottime
        calls[package] += ncalls
    metrics: Dict[str, float] = {}
    for package in PACKAGES:
        metrics[f"self_s.{package}"] = self_s[package] / max(cells, 1)
        metrics[f"calls.{package}"] = calls[package]
    return metrics
