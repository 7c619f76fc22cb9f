"""What a simulating process pays at start.

Every batch cell, the service and every spawned worker import the same
four packages.  Only the offline tools (test generation, FMEA, the
dependency graph) need networkx, and only a caller who asks needs the
exercise-script search, so neither may run on that import path.  Each
check runs in a fresh interpreter: the test process itself has long
since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.campaign import run_cell
from repro.scenarios import get_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

SIMULATION_IMPORTS = "import repro, repro.campaign, repro.scenarios, repro.service"

#: GC-tracked objects after importing the simulation packages and one
#: full collection: 24,263 on CPython 3.11.7 and 23,769 on 3.12.1, up
#: from 42,191 when networkx and the exercise search ran at import.
MAX_IMPORT_OBJECTS = 27_000

NETWORKX_BLOCKER = '''
import importlib.abc
import sys


class BlockNetworkx(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None


sys.meta_path.insert(0, BlockNetworkx())
'''


def _run_fresh(code):
    """Run ``code`` in a new interpreter on ``src``; its last stdout
    line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_simulation_imports_stay_lean():
    result = _run_fresh(f"""
import gc, json, sys
{SIMULATION_IMPORTS}
from repro.scenarios.exercise import tv_exercise_script
info = tv_exercise_script.cache_info()
gc.collect()
print(json.dumps({{
    "networkx": sorted(m for m in sys.modules if m.split(".")[0] == "networkx"),
    "search_calls": info.hits + info.misses,
    "objects": len(gc.get_objects()),
}}))
""")
    assert result["networkx"] == []
    assert result["search_calls"] == 0
    assert result["objects"] <= MAX_IMPORT_OBJECTS, result["objects"]


def test_a_cell_runs_without_networkx():
    result = _run_fresh(NETWORKX_BLOCKER + f"""
import json
{SIMULATION_IMPORTS}
from repro.campaign import run_cell
from repro.scenarios import get_scenario
report = run_cell(get_scenario("fuzz-latent-volume"), 3)
print(json.dumps({{"digest": report.telemetry_digest}}))
""")
    report = run_cell(get_scenario("fuzz-latent-volume"), 3)
    assert result["digest"] == report.telemetry_digest
