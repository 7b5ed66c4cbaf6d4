#!/usr/bin/env python3
"""Record the golden outputs of the five named experiments on two devices.

    python3 scripts/golden.py                 # rewrite tests/golden.json
    python3 scripts/golden.py --out /tmp/g.json

Each named experiment runs with its default config on the threshold-free
device (``v_th0``) and on the 1 V device (``v_th1``). Per run the record
holds the sha256 of ``model.json`` and of every surface CSV, the MSE and the
baseline MSE (the probe targets' variance) as ``float.hex``, and the flagged
and saturation counts. ``tests/test_golden.py`` re-runs the ten configs and
compares: hashes and counts exactly, the two MSEs within 1e-12 relative (they
pass through matrix products and sums, whose rounding may follow the BLAS).
A change that means to move these outputs re-records the file with this
script and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
try:
    import crossfuzzy as cf
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import crossfuzzy as cf

V_TH = (0.0, 1.0)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(out_dir: Path) -> dict:
    """Run the ten configs under ``out_dir`` and return their golden values, keyed by run."""
    runs = {}
    for name in cf.EXPERIMENT_NAMES:
        for v_th in V_TH:
            run = f"{name}.v_th{v_th:g}"
            cfg = cf.default_config(name, output_dir=str(Path(out_dir) / run))
            cfg = replace(cfg, device=replace(cfg.device, v_th=v_th))
            result = cf.run_experiment(name, cfg)
            files = [Path(result.model_path), *map(Path, result.surface_paths)]
            runs[run] = {
                "mse": result.mse.hex(),
                "baseline_mse": result.baseline_mse.hex(),
                "flagged": len(result.flagged_points),
                "saturation_count": result.saturation_count,
                "sha256": {p.name: _sha256(p) for p in files},
            }
    return runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tests" / "golden.json"),
                        help="JSON file to write")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = record(Path(tmp))
    Path(args.out).write_text(json.dumps(runs, indent=2) + "\n")
    print(f"{len(runs)} runs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
