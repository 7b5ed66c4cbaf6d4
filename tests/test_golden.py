"""The five named experiments on both devices against ``tests/golden.json``.

``scripts/golden.py`` wrote the record; this test re-runs the ten configs.
Stored arrays are written by elementwise IEEE operations and ``repr`` is
exact, so ``model.json`` and every surface CSV must hash the same, and the
flagged and saturation counts must be equal. The MSE passes through matrix
products and the baseline MSE through a sum; both are compared within 1e-12
relative. Per-point errors are not recorded.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"


def _golden_script():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_named_runs_match_the_golden_record(tmp_path):
    want = json.loads(GOLDEN.read_text())
    got = _golden_script().record(tmp_path)
    assert sorted(got) == sorted(want)
    for run, w in want.items():
        g = got[run]
        assert g["sha256"] == w["sha256"], run
        assert (g["flagged"], g["saturation_count"]) == (w["flagged"], w["saturation_count"]), run
        for key in ("mse", "baseline_mse"):
            assert float.fromhex(g[key]) == pytest.approx(float.fromhex(w[key]), rel=1e-12,
                                                          abs=0.0), (run, key)
