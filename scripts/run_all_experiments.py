#!/usr/bin/env python3
"""Run the five built-in experiments and print a summary table.

The table gives each run's MSE beside its baseline, the MSE of predicting
the mean probe target, and its skill, ``1 - mse / baseline``: a skill at or
below 0 means the model predicts no better than that mean.
"""

import argparse
import sys
from pathlib import Path

try:
    from crossfuzzy.harness import EXPERIMENT_NAMES, default_config, run_experiment
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from crossfuzzy.harness import EXPERIMENT_NAMES, default_config, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-root", default="results", help="directory for per-run folders")
    args = parser.parse_args(argv)

    rows = []
    for name in EXPERIMENT_NAMES:
        cfg = default_config(name, output_dir=str(Path(args.output_root) / name))
        result = run_experiment(name, cfg)
        rows.append(result)
        print(f"{name}: mse={result.mse:.4f}  ({result.runtime_s:.1f}s)")

    print()
    print(f"{'experiment':<20} {'mse':>8} {'baseline':>8} {'skill':>7} {'n_train':>8} "
          f"{'saturated':>10} {'flagged':>8} {'time/s':>7}")
    for r in rows:
        skill = "n/a" if r.skill is None else f"{r.skill:.3f}"  # n/a: a constant target
        print(
            f"{r.name:<20} {r.mse:>8.4f} {r.baseline_mse:>8.4f} {skill:>7} {r.n_train:>8d} "
            f"{r.saturation_count:>10d} {len(r.flagged_points):>8d} {r.runtime_s:>7.1f}"
        )
    print(f"\nresults written under {args.output_root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
