"""Smoke tests for the benchmark: ``bench/run.py --smoke`` on every workload.

They check the benchmark itself, not the program's speed: every metric
``BENCHMARK.json`` names is emitted with its unit, the traced spans form
a well-formed tree, a wrong golden digest fails cells, and a directory
without the program's source is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def _start(out: Path, *args: str, cwd: Path = ROOT) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "bench/run.py", "--smoke", "--out", str(out), *args],
        cwd=str(cwd), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Each workload once, traced, two benchmark processes at a time."""
    base = tmp_path_factory.mktemp("bench")
    runs = {}
    for pair in (WORKLOADS[:2], WORKLOADS[2:]):
        started = {
            name: _start(base / name, "--workload", name, "--trace", "1")
            for name in pair
        }
        for name, process in started.items():
            stdout, stderr = process.communicate(timeout=120)
            runs[name] = (process.returncode, stdout, stderr, base / name)
    return runs


def _results(out: Path) -> dict:
    (path,) = out.glob("results-*.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_contract_metric_is_emitted_with_its_unit(smoke, workload):
    code, stdout, stderr, out = smoke[workload]
    assert code == 0, stderr
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    per_layer = {metric["name"]: metric["unit"] for metric in CONTRACT["per_layer"]}
    assert {name: value["unit"] for name, value in last["metrics"].items()} == per_layer
    result = _results(out)["workloads"][workload]
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            assert isinstance(result[section][metric["name"]], (int, float))
            assert f"\n{workload} {metric['name']} " in stdout
            line = stdout.split(f"\n{workload} {metric['name']} ")[1].split("\n")[0]
            assert line.endswith(f" {metric['unit']}")
    for metric in CONTRACT["end_to_end"]:
        assert result["end_to_end"][metric["name"]] > 0, metric["name"]
    assert result["end_to_end"]["ok_ratio"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(smoke, workload):
    out = smoke[workload][3]
    (path,) = out.glob("trace-*.json")
    spans = tracing.from_chrome(json.loads(path.read_text()))
    roots = [span for span in spans if span["name"] in tracing.ROOT_SPANS]
    assert roots and {span["name"] for span in spans} >= {
        "campaign.execute_cell", "scenarios.compile", "sim.run", "campaign.merge",
    }
    assert tracing.check_tree(spans) == []
    if workload == "service-loop":
        jobs = {span["id"] for span in roots}
        server = [span for span in spans if span["pid"] != roots[0]["pid"]]
        assert any(span["parent"] in jobs for span in server)


def test_check_tree_reports_a_child_outside_its_parent():
    spans = [
        {"id": "1:1", "parent": None, "name": "bench.cell", "cell": "c",
         "pid": 1, "tid": 1, "start": 0.0, "end": 1.0, "args": {}},
        {"id": "1:2", "parent": "1:1", "name": "sim.run", "cell": "c",
         "pid": 1, "tid": 1, "start": 0.5, "end": 1.5, "args": {}},
        {"id": "1:3", "parent": "1:9", "name": "gc", "cell": "c",
         "pid": 1, "tid": 1, "start": 0.1, "end": 0.2, "args": {}},
    ]
    problems = tracing.check_tree(spans)
    assert any("outside its parent" in problem for problem in problems)
    assert any("missing" in problem for problem in problems)
    assert any("exceed wall" in problem for problem in problems)


def test_a_wrong_golden_digest_fails_the_cell(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    for key, entry in golden.items():
        if key.startswith("bench-tv-fleet#"):
            entry["telemetry"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    process = _start(tmp_path / "out", "--workload", "tv-fleet", "--golden", str(path))
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 1
    last = json.loads(stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == last["attempted"]
    assert last["metrics"]["ok_ratio"]["value"] == 0.0
    assert "FAILED tv-fleet bench-tv-fleet#" in stderr and "!= golden" in stderr


def _write_results(directory: Path, failed_in_run: int = -1) -> None:
    """Five identical service-loop results; run ``failed_in_run`` lost a cell."""
    directory.mkdir()
    for seed in range(5):
        failed = int(seed == failed_in_run)
        metrics = {metric["name"]: 1.0 for metric in CONTRACT["end_to_end"]}
        metrics["ok_ratio"] = (160 - failed) / 160
        result = {"end_to_end": metrics, "failed": failed, "cell_digests": {}}
        (directory / f"results-{seed}.json").write_text(json.dumps({
            "provenance": {"seed": seed}, "workloads": {"service-loop": result},
        }))


def test_compare_flags_a_single_failed_cell(tmp_path, capsys):
    _write_results(tmp_path / "a")
    _write_results(tmp_path / "b")
    _write_results(tmp_path / "c", failed_in_run=3)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[-1] for row in rows if " ok_ratio " in row] == ["exact", "MISMATCH"]


def test_the_run_length_is_fixed_by_the_contract(tmp_path):
    process = _start(tmp_path / "out", "--workload", "tv-fleet", "--seconds", "3")
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 2 and "run_seconds" in stderr
    assert '"correct"' not in stdout


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    process = _start(tmp_path / "out", "--workload", "tv-fleet", cwd=tmp_path)
    stdout, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"correct"' not in stdout
