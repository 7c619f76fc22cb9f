"""``python -m repro.fuzz`` — run, shrink, corpus, export-scenario.

The fuzzing subsystem's human/CI surface.  The corpus persists in the
same append-only SQLite store ``python -m repro.obs`` uses (``--db``,
default ``BENCH_history.sqlite``), so CI's cached history file carries
fuzz coverage forward between builds:

    python -m repro.fuzz run --seed 1 --candidates 40
    python -m repro.fuzz run --budget 30 --ci       # time-boxed CI lane
    python -m repro.fuzz shrink --spec repro.json --seed 0
    python -m repro.fuzz corpus
    python -m repro.fuzz export-scenario --hash <spec-hash> --out spec.json

``run --ci`` exits nonzero when the runtime itself is implicated: a
failing candidate that could not be shrunk to a stable repro (shrinking
re-verifies the failure, so an unshrinkable one is nondeterministic), a
``crash`` verdict, or a serial-vs-sharded ``digest_divergence``.
Reproducible detection-gap findings (``missed_detection`` & co.) are
reported and persisted but do not fail the lane — they are the fuzzer's
*output*, to be triaged and pinned, not an infrastructure failure.

``run --known DIR`` first re-evaluates the pinned repro specs in DIR
(``benchmarks/fuzz_known/`` in CI) and seeds their failure signatures
into the corpus, so a cold-cache lane flags only *novel* failure
classes — the already-pinned ones stay documented, not re-reported.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import List, Optional

from ..obs.history import DEFAULT_DB, RunHistory
from ..scenarios.spec import ScenarioSpec, spec_hash
from .corpus import Corpus
from .engine import FuzzConfig, Fuzzer
from .oracle import evaluate_candidate
from .shrink import shrink


def _load_corpus(db: Optional[str]) -> tuple:
    """(corpus, history): fresh when --no-db, else loaded from the store."""
    if db is None:
        return Corpus(), None
    history = RunHistory(db)
    return Corpus.load(history), history


# ----------------------------------------------------------------------
def _seed_known(corpus: Corpus, directory: str, campaign_seed: int) -> None:
    """Re-evaluate pinned repro specs and seed their signatures.

    Each ``*.json`` spec in ``directory`` is a known, already-pinned
    finding (see ``benchmarks/fuzz_known/``).  Re-running it here is
    self-verifying: a spec that still fails registers its signature so
    the fuzz lane only flags *novel* failure classes; a spec that has
    been fixed registers nothing, so a reappearance of its signature
    fails CI again — exactly the regression semantics a pin should have.
    """
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(json.load(handle))
        spec.validate()
        result = evaluate_candidate(spec, campaign_seed, check_divergence=False)
        corpus.consider(result, origin="known")
        print(
            f"  known: {os.path.basename(path)} "
            f"[{result.verdict.kind}] {'|'.join(result.verdict.signature)}"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    corpus, history = _load_corpus(None if args.no_db else args.db)
    if args.known:
        _seed_known(corpus, args.known, args.campaign_seed)
    config = FuzzConfig(
        seed=args.seed,
        candidates=args.candidates,
        budget_seconds=args.budget,
        campaign_seed=args.campaign_seed,
        check_divergence=not args.no_divergence_check,
        shrink_attempts=args.shrink_attempts,
    )
    try:
        report = Fuzzer(config, corpus=corpus, history=history).run()
    finally:
        if history is not None:
            history.close()
    print(
        f"fuzz seed {config.seed}: {report.evaluated} candidates in "
        f"{report.wall_seconds:.1f}s ({report.candidates_per_sec:.1f}/s, "
        f"stopped by {report.stopped_by})"
    )
    print(
        f"  coverage: {report.coverage_keys} keys "
        f"{report.coverage_by_layer}"
    )
    print(f"  admitted {len(report.admitted)} corpus entries")
    for finding in report.findings:
        data = finding.as_dict()
        print(
            f"  FINDING [{data['verdict']}] "
            f"{'|'.join(data['signature'])}: "
            f"{data['original_members']} -> {data['shrunk_members']} "
            f"members after {data['shrink_attempts']} shrink probes "
            f"(hash {data['spec_hash'][:12]})"
        )
        print(f"    {data['detail']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.out}")
    if args.ci:
        # The lane turns red only for runtime-level breakage: a finding
        # that did not re-verify under shrinking (nondeterministic), a
        # crash, or a serial-vs-sharded digest divergence.  Detection
        # gaps (missed_detection & co.) are the fuzzer doing its job:
        # they land in the corpus and the report for triage and pinning
        # (``--known``), but an open research gap must not wedge CI.
        unshrunk = [
            finding for finding in report.findings
            if finding.shrunk.result.verdict.signature
            != finding.original.verdict.signature
        ]
        hard = [
            finding for finding in report.findings
            if finding.original.verdict.kind in ("crash", "digest_divergence")
        ]
        soft = [
            finding for finding in report.findings
            if finding not in unshrunk and finding not in hard
        ]
        if unshrunk:
            print(
                f"CI: {len(unshrunk)} finding(s) did not re-verify under "
                "shrinking — nondeterministic failure"
            )
        if hard:
            kinds = sorted({f.original.verdict.kind for f in hard})
            print(
                f"CI: {len(hard)} {'/'.join(kinds)} finding(s) — the "
                "campaign runtime itself is broken"
            )
        if soft:
            print(
                f"CI: {len(soft)} reproducible detection-gap finding(s) "
                "recorded in the corpus — triage with `python -m "
                "repro.fuzz corpus --failing`, pin via --known"
            )
        if unshrunk or hard:
            return 1
    return 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = ScenarioSpec.from_json(json.load(handle))
    spec.validate()
    result = evaluate_candidate(
        spec, args.seed, check_divergence=not args.no_divergence_check
    )
    if not result.failing:
        print(f"{spec.name}: verdict ok — nothing to shrink")
        return 0
    print(f"{spec.name}: {result.verdict.describe()}")
    shrunk = shrink(result, max_attempts=args.shrink_attempts)
    print(
        f"shrunk {spec.members} -> {shrunk.spec.members} members, "
        f"{spec.duration:.0f}s -> {shrunk.spec.duration:.0f}s horizon "
        f"({shrunk.accepted}/{shrunk.attempts} probes accepted)"
    )
    out = args.out or (args.spec + ".min")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(shrunk.spec.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote minimal repro to {out} (hash {spec_hash(shrunk.spec)[:12]})")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    corpus, history = _load_corpus(args.db)
    try:
        stats = corpus.stats()
        print(
            f"{args.db}: {stats['entries']} corpus entries, "
            f"{stats['coverage_keys']} coverage keys, "
            f"{stats['failure_signatures']} failure signatures"
        )
        print(f"  by layer: {stats['coverage_by_layer']}")
        print(f"  verdicts: {stats['verdicts']}")
        if args.failing:
            for entry in corpus.entries:
                if entry.verdict != "ok":
                    print(
                        f"  {entry.hash[:12]} [{entry.verdict}] "
                        f"{'|'.join(entry.signature)} "
                        f"({entry.spec.members} members, origin "
                        f"{entry.origin})"
                    )
    finally:
        if history is not None:
            history.close()
    return 0


def _cmd_export_scenario(args: argparse.Namespace) -> int:
    with RunHistory(args.db) as history:
        entries = history.fuzz_entries(limit=10_000)
    matches = [
        row for row in entries if row["spec_hash"].startswith(args.hash)
    ]
    if not matches:
        print(f"no corpus entry with hash prefix {args.hash!r} in {args.db}")
        return 1
    if len(matches) > 1:
        print(f"hash prefix {args.hash!r} is ambiguous ({len(matches)} rows)")
        return 1
    spec = ScenarioSpec.from_json(json.loads(matches[0]["spec"]))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(spec.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {spec.name} ({spec.members} members, verdict "
        f"{matches[0]['verdict']}) to {args.out}"
    )
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_db(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db", default=DEFAULT_DB,
            help=f"corpus/history SQLite file (default: {DEFAULT_DB})",
        )

    run = commands.add_parser(
        "run", help="fuzz: sample, evaluate, admit, shrink"
    )
    add_db(run)
    run.add_argument("--seed", type=int, default=0, help="grammar seed")
    run.add_argument(
        "--candidates", type=int, default=50,
        help="candidate budget (the determinism key)",
    )
    run.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock cap — stops early for CI time-boxing",
    )
    run.add_argument("--campaign-seed", type=int, default=0)
    run.add_argument(
        "--no-db", action="store_true",
        help="in-memory corpus only (determinism comparisons)",
    )
    run.add_argument(
        "--no-divergence-check", action="store_true",
        help="skip the 2-shard digest comparison per candidate",
    )
    run.add_argument("--shrink-attempts", type=int, default=150)
    run.add_argument(
        "--known", metavar="DIR",
        help="pre-seed the corpus from pinned repro specs (*.json) so "
             "already-known failure signatures are not re-flagged",
    )
    run.add_argument("--out", help="write the full JSON report here")
    run.add_argument(
        "--ci", action="store_true",
        help="exit nonzero on nondeterministic (unshrinkable), crash, "
             "or digest-divergence findings; detection gaps only report",
    )
    run.set_defaults(func=_cmd_run)

    shrink_cmd = commands.add_parser(
        "shrink", help="reduce a failing spec JSON to a minimal repro"
    )
    shrink_cmd.add_argument("--spec", required=True, help="spec JSON file")
    shrink_cmd.add_argument("--seed", type=int, default=0)
    shrink_cmd.add_argument("--shrink-attempts", type=int, default=150)
    shrink_cmd.add_argument("--no-divergence-check", action="store_true")
    shrink_cmd.add_argument("--out", help="default: <spec>.min")
    shrink_cmd.set_defaults(func=_cmd_shrink)

    corpus = commands.add_parser("corpus", help="corpus coverage stats")
    add_db(corpus)
    corpus.add_argument(
        "--failing", action="store_true",
        help="also list the failing entries",
    )
    corpus.set_defaults(func=_cmd_corpus)

    export = commands.add_parser(
        "export-scenario",
        help="write a corpus entry's spec JSON (by hash prefix)",
    )
    add_db(export)
    export.add_argument("--hash", required=True, help="spec-hash prefix")
    export.add_argument("--out", default="fuzz_scenario.json")
    export.set_defaults(func=_cmd_export_scenario)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
