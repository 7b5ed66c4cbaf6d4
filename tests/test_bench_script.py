"""Smoke runs of ``scripts/bench.py`` (tiny sizes, well under 2 s) and ``scripts/loc.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"


def test_bench_script_writes_every_layer(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "bench.json"
    assert bench.main(["--tiny", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert {"git_sha", "numpy", "python", "nproc"} <= set(record)
    names = set(record["layers"])
    for mode in ("exact", "ideal"):
        for when in ("first", "warm"):
            assert f"read_{mode}.{when}.8x12" in names
            assert f"read_{mode}.{when}.16x16" in names
        assert f"evaluate_mse.{mode}.lattice4x4" in names
    assert "evaluate_mse.pipeline.random20" in names
    for count in (8, 16):
        assert f"fuzzify_gaussian.{count}" in names
        assert f"defuzzify_centroid.{count}" in names
    for size in ("8x12", "16x16"):
        assert f"save_delta_csv.{size}" in names
        assert f"model_json.{size}" in names
    assert {"generate_dataset.exp-f1.n40", "generate_dataset.exp-2input.n40"} <= names
    assert {"train_block.exp-f1.n40", "train_block.exp-2input.n40",
            "train_block.relation-hardware.16x16.n20"} <= names
    for run in ("exp-2input", "train-scaled.16x16"):
        persist = record["layers"][f"persist.{run}"]
        assert persist["parent_maxrss_mb"] > 0 and persist["child_maxrss_mb"] > 0
    for v_th in ("v_th0", "v_th1"):
        for size, n in (("8x12", 40), ("16x16", 50)):
            assert f"write_pulse.{v_th}.{size}" in names
            assert f"train.{v_th}.{size}.n{n}" in names
            assert f"settle.{v_th}.{size}.n{n}" in names
    for stats in record["layers"].values():
        assert stats["median_s"] > 0 and stats["iqr_s"] >= 0 and stats["repeats"] >= 3


def test_loc_script_totals_the_modules_of_the_package():
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "loc.py"),
                          str(ROOT / "src" / "crossfuzzy")],
                         capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} >= {"__init__.py", "harness.py", "cli.py"}
    assert all(int(lines) > 0 for lines, _ in modules)
    assert int(total) == sum(int(lines) for lines, _ in modules)
    spec = importlib.util.spec_from_file_location("loc", ROOT / "scripts" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    source = ('"""Doc."""\n# a comment\n\nx = {\n    1: 2}  # trailing\n\n'
              'def f():\n    """Two\n    lines."""\n    return x\n')
    assert loc.code_lines(source) == 4  # x = {, 1: 2}, def f(), return x
