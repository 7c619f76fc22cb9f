"""``python -m repro.obs`` — record, query, trend, compare, export-trace.

The observability subsystem's human/CI surface.  Everything operates on
one append-only SQLite history file (``--db``, default
``BENCH_history.sqlite`` in the working directory) and the same report
dicts ``benchmarks/run_all.py`` produces, so a CI step and a developer
at a shell ask identical questions:

    python -m repro.obs record --bench-report /tmp/bench.json
    python -m repro.obs record --scenario recovery-ladder-drill --seed 7
    python -m repro.obs query
    python -m repro.obs trend                # nonzero exit on a violation
    python -m repro.obs compare              # latest two recorded runs
    python -m repro.obs export-trace --scenario player-decoder-drill \\
        --out episode_trace.json             # Chrome trace + timeline

``trend`` and ``compare`` exit 0 with a notice when the history is too
short — a fresh checkout or a just-created CI cache must not fail its
first run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any, Dict, List, Optional

from .history import RunHistory
from .spans import chrome_trace, text_timeline
from .gates import (
    MAX_DRIFT,
    TREND_MAX_REGRESSION,
    TREND_WINDOW,
    evaluate,
    failures,
    render,
)
from .trend import compare_bench_runs

DEFAULT_DB = "BENCH_history.sqlite"


def _run_campaign(name: str, seed: int, shards: Optional[int]):
    """Run one library scenario with span recording enabled; returns
    the CampaignReport (its ``spans`` block carries the episodes)."""
    from ..campaign import DistributedBackend, ProcessWorkerExecutor, run_cell
    from ..scenarios import get_scenario

    spec = replace(get_scenario(name), record_spans=True)
    backend = (
        DistributedBackend(ProcessWorkerExecutor(), shards=shards)
        if shards else None
    )
    return run_cell(spec, seed, backend=backend)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _cmd_record(args: argparse.Namespace) -> int:
    with RunHistory(args.db) as history:
        if args.bench_report:
            with open(args.bench_report, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            run_id = history.record_run(
                report, label=args.label, git_rev=args.git_rev
            )
            print(
                f"recorded run {run_id} (mode={report.get('mode')}) "
                f"into {args.db}"
            )
            return 0
        report = _run_campaign(args.scenario, args.seed, args.shards)
        campaign_id = history.record_campaign(report, git_rev=args.git_rev)
        spans = report.spans or {}
        print(
            f"recorded campaign {campaign_id}: {report.scenario} seed "
            f"{report.seed} ({report.backend}) — "
            f"{spans.get('completed', 0)} episodes, span digest "
            f"{(spans.get('forest_digest') or '')[:12]} into {args.db}"
        )
        return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with RunHistory(args.db) as history:
        counts = history.counts()
        print(
            f"{args.db}: {counts['runs']} runs, {counts['campaigns']} "
            f"campaigns, {counts['episodes']} episodes"
        )
        runs = history.runs(limit=args.limit)
        if runs:
            print("runs (newest first):")
            for row in runs:
                rev = (row["git_rev"] or "-")[:10]
                label = row["label"] or "-"
                print(
                    f"  #{row['id']:<4} {row['recorded_at']}  "
                    f"rev={rev:<10} mode={row['mode'] or '-':<5} {label}"
                )
        campaigns = history.campaigns(scenario=args.scenario, limit=args.limit)
        if campaigns:
            print("campaigns (newest first):")
            for row in campaigns:
                print(
                    f"  #{row['id']:<4} {row['scenario']:<24} "
                    f"seed={row['seed']} {row['backend']:<18} "
                    f"detection={row['detection_rate']:.4f} "
                    f"recovered={row['recovered']} "
                    f"spans={(row['span_digest'] or '-')[:12]}"
                )
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    with RunHistory(args.db) as history:
        reports = history.run_reports(limit=TREND_WINDOW + 1)
    if len(reports) < 2:
        print(
            f"insufficient history for a trend ({len(reports)} run(s) "
            f"recorded, need 2+) — nothing to gate"
        )
        return 0
    current, priors = reports[0], reports[1:]
    records = [record for record in evaluate(current, priors) if record.trend]
    print(
        f"trend over {len(priors) + 1} runs "
        f"(window {TREND_WINDOW}, regression {TREND_MAX_REGRESSION:.0%}, "
        f"drift {MAX_DRIFT}):"
    )
    for line in render(records):
        print(f"  {line}")
    if failures(records):
        return 1
    print("  ok — no perf or detection drift")
    return 0


def _load_compare_pair(args: argparse.Namespace):
    if args.reports:
        loaded = []
        for path in args.reports:
            with open(path, "r", encoding="utf-8") as handle:
                loaded.append(json.load(handle))
        return loaded[0], loaded[1], f"{args.reports[0]} -> {args.reports[1]}"
    with RunHistory(args.db) as history:
        if args.runs:
            old = history.run_report(args.runs[0])
            new = history.run_report(args.runs[1])
            if old is None or new is None:
                missing = args.runs[0] if old is None else args.runs[1]
                raise SystemExit(f"run #{missing} not found in {args.db}")
            return old, new, f"run #{args.runs[0]} -> run #{args.runs[1]}"
        rows = history.runs(limit=2)
        if len(rows) < 2:
            return None, None, None
        new_id, old_id = rows[0]["id"], rows[1]["id"]
        return (
            history.run_report(old_id),
            history.run_report(new_id),
            f"run #{old_id} -> run #{new_id}",
        )


def _cmd_compare(args: argparse.Namespace) -> int:
    old, new, label = _load_compare_pair(args)
    if old is None:
        print("insufficient history to compare (need 2+ recorded runs)")
        return 0
    print(f"comparing {label}:")
    for line in compare_bench_runs(old, new):
        print(line)
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from ..campaign import run_cell_detailed
    from ..scenarios import get_scenario

    spec = replace(get_scenario(args.scenario), record_spans=True)
    cell = run_cell_detailed(spec, args.seed)
    recorder = cell.span_recorder
    episodes: List[Dict[str, Any]] = list(recorder.episodes)
    trace = chrome_trace(episodes)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{args.scenario} seed {args.seed}: {recorder.completed} episodes "
        f"({recorder.open_episodes} still open), span digest "
        f"{recorder.forest_digest()[:12]}"
    )
    print(f"wrote {len(trace['traceEvents'])} trace events to {args.out}")
    if args.timeline and episodes:
        print(text_timeline(episodes))
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_db(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", default=DEFAULT_DB,
            help=f"history SQLite file (default: {DEFAULT_DB})",
        )

    record = commands.add_parser(
        "record", help="append a bench report or a fresh campaign run"
    )
    add_db(record)
    source = record.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--bench-report", help="a run_all JSON report file to append"
    )
    source.add_argument(
        "--scenario", help="library scenario to run (spans enabled)"
    )
    record.add_argument("--seed", type=int, default=7)
    record.add_argument(
        "--shards", type=int, default=0,
        help="run sharded with this many shards (default: serial)",
    )
    record.add_argument("--label", help="free-form label (e.g. CI sha)")
    record.add_argument(
        "--git-rev", help="override the recorded git revision"
    )
    record.set_defaults(func=_cmd_record)

    query = commands.add_parser("query", help="list recorded runs/campaigns")
    add_db(query)
    query.add_argument("--scenario", help="filter campaigns by scenario")
    query.add_argument("--limit", type=int, default=10)
    query.set_defaults(func=_cmd_query)

    trend = commands.add_parser(
        "trend", help="apply trend rules to the newest recorded run"
    )
    add_db(trend)
    trend.set_defaults(func=_cmd_trend)

    compare = commands.add_parser(
        "compare", help="diff two runs (default: the latest two recorded)"
    )
    add_db(compare)
    compare.add_argument(
        "--runs", type=int, nargs=2, metavar=("OLD", "NEW"),
        help="two recorded run ids to compare",
    )
    compare.add_argument(
        "--reports", nargs=2, metavar=("OLD.json", "NEW.json"),
        help="compare two report files instead of the history store",
    )
    compare.set_defaults(func=_cmd_compare)

    export = commands.add_parser(
        "export-trace",
        help="run a scenario with spans and export a Chrome trace",
    )
    export.add_argument("--scenario", default="player-decoder-drill")
    export.add_argument("--seed", type=int, default=7)
    export.add_argument("--out", default="episode_trace.json")
    export.add_argument(
        "--no-timeline", dest="timeline", action="store_false",
        help="skip printing the plain-text episode timeline",
    )
    export.set_defaults(func=_cmd_export_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
