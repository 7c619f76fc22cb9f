"""``repro.obs`` — causal observability over the awareness runtime.

The paper's central constraint is that observation must not degrade the
observed product (Sect. 2), yet its whole argument rests on being able
to *see* the awareness → diagnosis → recovery chain working.  Until this
package, the repo could only report that chain as aggregate counters
(``telemetry_summary["recovery"]`` / ``["diagnosis"]``) and every
perf/detection trend lived in one overwritable ``BENCH_runtime.json``
snapshot.  ``repro.obs`` adds the missing layer in three pieces:

* :mod:`repro.obs.spans`   — :class:`SpanRecorder`: a deterministic,
  sim-time-keyed subscriber that stitches each fault episode into a
  causal span tree (injection → first comparator deviation → detection
  → SFL ranking → each recovery rung → repair/TTR), with bounded memory
  and exporters to Chrome ``trace_event`` JSON and a plain-text episode
  timeline.  **Off by default**; when off, the only cost is a handful
  of marker publishes on the silent ``obs.*`` namespace — the ``suo.*``
  event stream, trace digest, and telemetry digest are byte-identical.
* :mod:`repro.obs.history` — :class:`RunHistory`: an append-only SQLite
  store of every ``benchmarks/run_all.py`` report and every
  :class:`~repro.campaign.CampaignReport`, each carrying its git rev,
  bench mode, digests, and span-derived per-episode rows — the
  queryable cross-PR record the ROADMAP's campaign-as-a-service item
  asks for.
* :mod:`repro.obs.gates`   — the gate table every run_all report is
  held to, its trend rows over that history (N-run rolling perf floor,
  detection-rate drift) included, and the one evaluator that
  ``run_all``, CI, the CLI and the service share;
  :mod:`repro.obs.trend` compares two runs.

``python -m repro.obs`` exposes ``record`` / ``query`` / ``trend`` /
``compare`` / ``export-trace`` so CI and humans can diff two revisions'
detection, diagnosis accuracy, TTR, and events/s.  See
docs/OBSERVABILITY.md.
"""

from .history import RunHistory, current_git_rev
from .spans import (
    SpanRecorder,
    chrome_trace,
    merge_span_blocks,
    span_forest_digest,
    text_timeline,
)
from .gates import evaluate
from .trend import compare_bench_runs

__all__ = [
    "RunHistory",
    "SpanRecorder",
    "chrome_trace",
    "compare_bench_runs",
    "current_git_rev",
    "evaluate",
    "merge_span_blocks",
    "span_forest_digest",
    "text_timeline",
]
