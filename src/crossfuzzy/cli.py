"""Command-line front end.

Subcommands:
  train       train a model from a full JSON config and save it
  infer       run a saved model on a crisp or fuzzy input
  compose     chain the stages of saved models into one pipeline model
  experiment  run one of the named experiments, with optional overrides
  export      dump a model's stored-value surface to CSV

Every model file loads as a ``Pipeline``; a block's file is a one-stage
model. ``infer`` reads as evaluation does, through ``pipeline_rows``, the
one model read: ``pipeline_infer`` is its one-row case, and the output is
defuzzified with ``centroid_rows``, so the grades it prints are
sign-corrected and peak-normalized for every model. An input that reads out
no signal makes ``pipeline_infer`` raise ``EmptyOutputError``, which
``infer`` prints as one ``{"error": "untrained region: stage K read out no
signal"}`` line, exiting 1. ``compose`` chains the stages of
every model file it is given, in order; ``Pipeline`` refuses a chain whose
later stages take more than one input or whose grids do not overlap
(``fuzzy.check_overlap``).
``export`` needs ``--block`` when the model has more than one stage.

Config, model and ``--input`` JSON are read by the package's one strict
codec (``crossfuzzy.jsonio``): ``ExperimentConfig.from_json``,
``model_from_json`` and ``FuzzyNumber.from_json``. ``--input`` JSON is one
fuzzy number if it has a ``universe`` or ``grades`` key, else an object of
them keyed by input variable, under the path ``input``. Bad input of any
command exits 2 with one ``error: ...`` line on stderr, which names the
JSON path of a bad value and, for a model file, the file; so does a file
that cannot be read or written (missing, a directory, a name too long). An
``--input`` that names no readable file is parsed as the input itself. A
warning, such as a crisp input outside its universe, is one ``warning:
...`` line on stderr. ``train`` and ``experiment`` warn so when the run's
``skill`` is at or below 0: the model predicts the probes no better than
the mean of their targets. The exit status stays 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

from . import jsonio
from .crossbar import save_delta_csv
from .fuzzy import EmptyOutputError, FuzzyNumber, centroid_rows, fuzzify_gaussian
from .harness import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ExperimentResult,
    default_config,
    merge_json,
    run_experiment,
)
from .system import Pipeline, model_from_json, model_to_json, pipeline_infer


def _load_model(path: str) -> Pipeline:
    try:
        return model_from_json(json.loads(Path(path).read_text()))
    except ValueError as exc:  # a refusal of the file's JSON names the file
        raise ValueError(f"{path}: {exc}") from None


def _with_flags(cfg: ExperimentConfig, **flags) -> ExperimentConfig:
    """``cfg`` with each field a command-line flag gave (not None or empty) replaced."""
    return replace(cfg, **{k: v for k, v in flags.items() if v not in (None, "")})


def _run(cfg: ExperimentConfig) -> ExperimentResult:
    """``run_experiment`` of ``cfg``; a skill at or below 0 adds one warning line."""
    result = run_experiment(cfg.name, cfg)
    if result.skill is not None and result.skill <= 0:
        print(f"warning: {cfg.name}: skill {result.skill:.3g} <= 0: mse {result.mse:.4g} is no "
              f"better than {result.baseline_mse:.4g}, that of predicting the targets' mean",
              file=sys.stderr)
    return result


def _cmd_train(args) -> int:
    cfg = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    cfg = _with_flags(cfg, output_dir=args.output_dir)
    result = _run(cfg)
    print(json.dumps({"mse": result.mse, "model": result.model_path,
                      "result": str(Path(cfg.output_dir) / "result.json")}, indent=2))
    return 0


def _parse_input(model: Pipeline, raw: str, sigma: float | None):
    """Interpret --input: comma-separated crisp values, inline JSON, or a file holding either."""
    text = raw
    # isfile answers False where Path.is_file raises, as on a name too long for a file
    if not raw.lstrip().startswith("{") and os.path.isfile(raw):
        text = Path(raw).read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        one = "universe" in obj or "grades" in obj
        return jsonio.from_json(FuzzyNumber if one else Mapping[str, FuzzyNumber], obj, "input")
    values = [float(v) for v in text.split(",")]
    sections = model.sections
    if len(values) != len(sections):
        raise ValueError(f"model expects {len(sections)} input value(s), got {len(values)}")
    out = {}
    for sec, value in zip(sections, values):
        width = 0.05 * (sec.universe.hi - sec.universe.lo) if sigma is None else sigma
        out[sec.name] = fuzzify_gaussian(value, width, sec.universe)
    return out


def _cmd_infer(args) -> int:
    model = _load_model(args.model)
    inputs = _parse_input(model, args.input, args.sigma)
    try:
        output = pipeline_infer(model, inputs)
    except EmptyOutputError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    crisp = float(centroid_rows(output.universe, output.grades))
    print(json.dumps({"centroid": crisp, "output": output.to_json()}))
    return 0


def _cmd_compose(args) -> int:
    blocks = []
    for path in args.blocks:
        blocks += _load_model(path).blocks
    Path(args.output).write_text(json.dumps(model_to_json(Pipeline(blocks))))
    print(json.dumps({"pipeline": args.output, "stages": len(blocks)}))
    return 0


def _cmd_experiment(args) -> int:
    override = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = ExperimentConfig.from_json(merge_json(default_config(args.name).to_json(), override))
    cfg = _with_flags(cfg, fault_fraction=args.fault_fraction, fault_seed=args.seed,
                      output_dir=args.output_dir)
    result = _run(cfg)
    print(
        json.dumps(
            {
                "name": result.name,
                "mse": result.mse,
                "n_train": result.n_train,
                "saturation_count": result.saturation_count,
                "flagged_points": len(result.flagged_points),
                "runtime_s": round(result.runtime_s, 3),
                "result": str(Path(cfg.output_dir) / "result.json"),
            },
            indent=2,
        )
    )
    return 0


def _cmd_export(args) -> int:
    stages = _load_model(args.model).blocks
    if args.block is None and len(stages) > 1:
        raise ValueError("pipeline model: pick a stage with --block INDEX")
    index = args.block or 0
    if not 0 <= index < len(stages):
        raise ValueError(f"--block {index} is out of range: the model has {len(stages)} stage(s)")
    blk = stages[index]
    delta = blk.section_delta(args.section) if args.section else blk.snapshot_delta()
    save_delta_csv(args.surface, delta, blk.backend.params.r_off)
    print(json.dumps({"surface": args.surface, "shape": list(delta.shape)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossfuzzy",
        description="Memristor-crossbar fuzzy-relation learning and inference simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="run a saved model on an input")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--input",
        required=True,
        help="comma-separated crisp value(s), inline JSON fuzzy number, or a file holding either",
    )
    p.add_argument("--sigma", type=float, help="fuzzification width for crisp inputs")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("compose", help="chain the stages of saved models into a pipeline")
    p.add_argument("--blocks", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("name", choices=EXPERIMENT_NAMES)
    p.add_argument("--config", help="JSON file with config overrides")
    p.add_argument("--fault-fraction", type=float)
    p.add_argument("--seed", type=int, help="fault-mask seed")
    p.add_argument("--output-dir")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("export", help="dump a stored-value surface to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--block", type=int, help="stage index for pipeline models (from 0)")
    p.add_argument("--section", help="input-variable name for per-section surfaces")
    p.set_defaults(fn=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # a warning is one plain line, as an error is
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
