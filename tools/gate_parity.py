"""Verdict parity between the gate table and the rules it replaced.

Usage: ``python tools/gate_parity.py REV [REPORT.json ...]``

``REV`` is a commit that still has ``benchmarks/run_all.py``'s
``evaluate_report`` and ``skipped_gates`` and ``repro.obs.trend``'s
``evaluate_trends`` (the parent of the change that introduced
``repro.obs.gates``).  The script

1. extracts ``REV`` with ``git archive`` into a temporary directory and
   runs its gate tests there, with this file as a pytest plugin that
   records every report (and prior window) those tests evaluate;
2. adds each ``REPORT.json`` under every mode x CPU count x shard
   count, alone and after a prior window with twice its fleet speed;
3. evaluates every case with ``REV``'s functions and with
   :func:`repro.obs.gates.evaluate` from this checkout, and compares
   the set of failure messages, the set of trend failures, and the
   gates skipped for the mode and CPU count.

It prints one line per difference and exits 1 if there is any.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE_TESTS = (
    "tests/test_run_all_gate.py", "tests/test_obs_history.py",
    "tests/test_obs_cli.py",
)
CASES = "parity_cases.jsonl"

#: Evaluates the cases file with REV's gate functions (run inside REV).
PARENT_SIDE = """
import json, sys
sys.path.insert(0, "benchmarks")
from run_all import evaluate_report, skipped_gates
from repro.obs.trend import evaluate_trends
out = []
for line in open(sys.argv[1]):
    case = json.loads(line)
    report, priors = case["report"], case["priors"]
    out.append({
        "failures": sorted(set(evaluate_report(report, priors))),
        "trend": sorted(set(evaluate_trends(report, priors))),
        "skipped": sorted({entry["gate"] for entry in skipped_gates(report)}),
    })
json.dump(out, sys.stdout)
"""


# ----------------------------------------------------------------------
# the pytest plugin (runs inside REV's test run)
# ----------------------------------------------------------------------
def _record(report, priors):
    with open(CASES, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"report": report, "priors": priors or []}))
        handle.write("\n")


def pytest_configure(config):
    import repro.obs.trend as trend

    evaluate_trends = trend.evaluate_trends

    def recording_trends(current, priors, *args, **kwargs):
        _record(copy.deepcopy(current), copy.deepcopy(priors))
        return evaluate_trends(current, priors, *args, **kwargs)

    trend.evaluate_trends = recording_trends
    sys.path.insert(0, "benchmarks")
    import run_all

    evaluate_report, skipped_gates = run_all.evaluate_report, run_all.skipped_gates

    def recording_report(report, *args, **kwargs):
        priors = kwargs.get("priors", args[0] if args else None)
        _record(copy.deepcopy(report), copy.deepcopy(priors))
        return evaluate_report(report, *args, **kwargs)

    def recording_skips(report):
        _record(copy.deepcopy(report), None)
        return skipped_gates(report)

    run_all.evaluate_report = recording_report
    run_all.skipped_gates = recording_skips


# ----------------------------------------------------------------------
# the comparison
# ----------------------------------------------------------------------
def _report_cases(path):
    base = json.load(open(path, encoding="utf-8"))
    for mode in ("quick", "full"):
        for cpus in (1, 2, 4, 8):
            for shards in (2, 4):
                report = copy.deepcopy(base)
                report["mode"] = mode
                report["sharded"].update(cpu_count=cpus, shards=shards)
                fast = copy.deepcopy(report)
                fast["fleet"]["events_per_sec"] *= 2
                yield {"report": report, "priors": []}
                yield {"report": report, "priors": [fast] * 3}


def _new_side(cases):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.obs.gates import evaluate

    host_skips = {
        "perf floor fleet": "perf-floor", "perf floor scenarios": "perf-floor",
        "bench_e16-speedup": "bench_e16-speedup",
    }
    out = []
    for case in cases:
        records = evaluate(case["report"], case["priors"])
        failed = [r for r in records if r.status == "fail"]
        out.append({
            "failures": sorted({r.message for r in failed}),
            "trend": sorted({r.message for r in failed if r.trend}),
            "skipped": sorted({
                host_skips[r.gate] for r in records
                if r.status == "skip" and r.gate in host_skips
                and r.message.startswith(("quick mode on", "sharded wall-clock"))
            }),
        })
    return out


def main(argv):
    rev, reports = argv[0], argv[1:]
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(tmp, "src"), os.path.dirname(os.path.abspath(__file__))]
        ))
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "gate_parity",
             "-p", "no:cacheprovider", *GATE_TESTS],
            cwd=tmp, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        with open(os.path.join(tmp, CASES), encoding="utf-8") as handle:
            cases = [json.loads(line) for line in handle]
        for path in reports:
            cases.extend(_report_cases(path))
        with open(os.path.join(tmp, CASES), "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(case) + "\n" for case in cases)
        parent = json.loads(subprocess.run(
            [sys.executable, "-", CASES], input=PARENT_SIDE, text=True, cwd=tmp,
            env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            check=True, capture_output=True,
        ).stdout)
    new = _new_side(cases)
    differences = 0
    for index, (old, now) in enumerate(zip(parent, new)):
        for field in ("failures", "trend", "skipped"):
            if old[field] != now[field]:
                differences += 1
                print(
                    f"case {index} {field}: {rev} only "
                    f"{sorted(set(old[field]) - set(now[field]))}, new only "
                    f"{sorted(set(now[field]) - set(old[field]))}"
                )
    print(f"{len(cases)} cases, {sum(bool(o['failures']) for o in parent)} "
          f"failing at {rev}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
