"""Command-line front end.

Subcommands:
  train       train a model from a full JSON config and save it
  infer       run a saved model on a crisp or fuzzy input
  compose     chain saved single-input blocks into a pipeline model
  experiment  run one of the named experiments, with optional overrides
  export      dump a model's stored-value surface to CSV
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .crossbar import save_delta_csv
from .fuzzy import EmptyOutputError, FuzzyNumber, defuzzify_centroid, fuzzify_gaussian
from .harness import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    default_config,
    merge_json,
    run_experiment,
)
from .system import Block, Pipeline, has_signal, model_from_json, model_to_json


def _from_json(build, obj, what: str):
    """``build(obj)``, where a JSON layout ``build`` cannot read fails as ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{what}: missing key {exc}") from None
    except (TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"{what}: malformed JSON ({exc})") from None


def _load_model(path: str) -> Block | Pipeline:
    return _from_json(model_from_json, json.loads(Path(path).read_text()), path)


def _with_flags(cfg: ExperimentConfig, **flags) -> ExperimentConfig:
    """``cfg`` with each field a command-line flag gave (not None or empty) replaced."""
    return replace(cfg, **{k: v for k, v in flags.items() if v not in (None, "")})


def _cmd_train(args) -> int:
    cfg = _from_json(ExperimentConfig.from_json, json.loads(Path(args.config).read_text()),
                     args.config)
    cfg = _with_flags(cfg, output_dir=args.output_dir)
    result = run_experiment(cfg.name, cfg)
    print(json.dumps({"mse": result.mse, "model": result.model_path,
                      "result": str(Path(cfg.output_dir) / "result.json")}, indent=2))
    return 0


def _parse_input(model: Block | Pipeline, raw: str, sigma: float | None):
    """Interpret --input: comma-separated crisp values, inline JSON, or a JSON file."""
    text = raw
    if not raw.lstrip().startswith("{") and Path(raw).is_file():
        text = Path(raw).read_text()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if "grades" in obj:
            return _from_json(FuzzyNumber.from_json, obj, "input")
        return {name: _from_json(FuzzyNumber.from_json, sub, f"input {name!r}")
                for name, sub in obj.items()}
    values = [float(v) for v in raw.split(",")]
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
        output = model.infer(inputs)
        if not has_signal(output):
            raise EmptyOutputError("no stored signal at this input")
        crisp = defuzzify_centroid(output)
    except EmptyOutputError as exc:
        print(json.dumps({"error": f"untrained region: {exc}"}))
        return 1
    print(json.dumps({"centroid": crisp, "output": output.to_json()}))
    return 0


def _cmd_compose(args) -> int:
    blocks = []
    for path in args.blocks:
        model = _load_model(path)
        if not isinstance(model, Block):
            raise ValueError(f"{path} is not a single-block model")
        blocks.append(model)
    pipe = Pipeline(blocks)
    Path(args.output).write_text(json.dumps(model_to_json(pipe)))
    print(json.dumps({"pipeline": args.output, "stages": len(blocks)}))
    return 0


def _cmd_experiment(args) -> int:
    override = json.loads(Path(args.config).read_text()) if args.config else {}
    defaults = default_config(args.name).to_json()
    cfg = _from_json(lambda obj: ExperimentConfig.from_json(merge_json(defaults, obj)),
                     override, args.config or args.name)
    cfg = _with_flags(cfg, fault_fraction=args.fault_fraction, fault_seed=args.seed,
                      output_dir=args.output_dir)
    result = run_experiment(args.name, cfg)
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
    model = _load_model(args.model)
    stages = model.blocks if isinstance(model, Pipeline) else [model]
    if args.block is None and isinstance(model, Pipeline):
        raise ValueError("pipeline model: pick a stage with --block INDEX")
    index = args.block or 0
    if not 0 <= index < len(stages):
        raise ValueError(f"--block {index} is out of range: the model has {len(stages)} stage(s)")
    model = stages[index]
    delta = model.section_delta(args.section) if args.section else model.snapshot_delta()
    save_delta_csv(args.surface, delta, model.device_params.r_off)
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
        help="comma-separated crisp value(s), inline JSON fuzzy number, or JSON file",
    )
    p.add_argument("--sigma", type=float, help="fuzzification width for crisp inputs")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("compose", help="chain saved blocks into a pipeline")
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
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
