"""Smoke test for the benchmark: tiny grids, every metric, planted failures.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the package's test suite (pyproject's testpaths is ``tests``).
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), "--seconds", "0.2", *args],
                          capture_output=True, text=True, timeout=150)


def result_of(*args: str) -> dict:
    done = run("--size", "tiny", *args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    result = result_of("--workload", workload, "--seed", "0", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_unseen_seed_passes_the_oracle_checks():
    result = result_of("--workload", "infer-sweep", "--seed", "7", "--trace", "0")
    assert result["correct"] and result["failed"] == 0


def test_planted_wrong_reference_is_a_failed_op(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    refs["tiny"]["paper-suite"]["exp-f1"]["mse"] *= 1.001
    planted = tmp_path / "references.json"
    planted.write_text(json.dumps(refs))
    result = result_of("--workload", "paper-suite", "--seed", "0", "--trace", "0",
                       "--references", str(planted))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] // len(refs["tiny"]["paper-suite"])


def test_full_size_matches_the_planned_counts(tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    planned = {
        "paper-suite": {"writes": 3600, "accumulates": 0, "reads": 2400,
                        "fuzzifications": 12900, "probes": 2300},
        "train-scaled": {"writes": 1000, "accumulates": 1000},
        "infer-sweep": {"writes": 0, "accumulates": 0, "probes": 22000},
    }
    for name, want in planned.items():
        got = workloads.build(name, "full", 0, tmp_path / name, None).expected_counts()
        assert {k: got[k] for k in want} == want


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0",
               script=tmp_path / HERE.name / "run.py")
    assert done.returncode != 0
    assert "correct" not in done.stdout
