"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest perfbench

Run from the repository root.  Smoke passes run every workload at tiny
size through the same child process as a real run, with every output
checked against the goldens.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import stability
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def runner():
    made = []

    def make(workload: str) -> run.Runner:
        r = run.Runner(ROOT, workload, seed=7, tiny=True)
        made.append(r)
        return r

    yield make
    for r in made:
        r.close()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_matches_goldens(runner, workload):
    result = runner(workload).spawn("pass")
    assert result["failures"] == []
    assert result["attempted"] >= len(result["latencies"]) >= 3
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0


def test_traced_pass_reports_every_layer_and_entry(runner):
    result = runner("cli").spawn("traced")
    assert result["failures"] == []
    names = {f"{m}.{a}" for m, a in tracer.ENTRIES}
    assert set(result["entries"]) == names
    layers = run.per_layer([result], [result])
    assert set(layers) == set(run.PER_LAYER)
    assert layers["cli.monoid_ms"] > 0 or layers["cli.equiv_ms"] > 0


def test_traced_run_alternates_which_pass_runs_first():
    class Recording:
        def __init__(self):
            self.modes = []

        def spawn(self, mode):
            self.modes.append(mode)
            return {}

    rec = Recording()
    plain, traced, _ = run.measure(rec, 0, traced=True)
    assert len(plain) == len(traced) == run.MIN_TRACED_PAIRS
    assert rec.modes == ["pass", "traced", "traced", "pass"] * (run.MIN_TRACED_PAIRS // 2)


def test_recorder_patches_imports_by_value_and_restores():
    from spaceform import degree, endomorphisms

    original = endomorphisms.composition_table
    assert degree.composition_table is original
    rec = tracer.Recorder().install()
    try:
        assert degree.composition_table is endomorphisms.composition_table
        assert degree.composition_table is not original
    finally:
        rec.uninstall()
    assert degree.composition_table is original


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


def test_recorded_sets_of_runs_agree():
    """The two sets of ten runs in baselines.json pass stability.py's acceptance rules."""
    recorded = json.loads((Path(__file__).parent / "baselines.json").read_text())
    sets = recorded["runs"]
    assert len(sets) == 2
    assert all(len(runs) == 10 for s in sets for runs in s.values())
    assert stability.evaluate(BENCH, sets) == []


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
