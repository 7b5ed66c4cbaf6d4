"""The three benchmark workloads: set-up, one timed pass, and output checks.

paper-suite   the five named experiments with their default configs, through
              ``run_experiment``; one op per experiment.
train-scaled  one 500x500 single-input ``run_experiment`` (N = 1 000 pulses,
              200 probes), then the same dataset through a relation-backed
              ``Block``; one op per pass.
infer-sweep   reads only: reloaded models probed on a 100x100 lattice in both
              read modes and a pipeline on 2 000 random points; one op per
              probe.

Each workload is built from a seed. Seed 0 reproduces the named-experiment
configs bit for bit and is checked against recorded reference values; any
other seed shifts every dataset, evaluation and fault seed by
``SEED_STRIDE * seed`` and is checked only against the oracles in
``oracle.py``, which need no reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import crossfuzzy as cf
import crossfuzzy.cli  # noqa: F401  (users reach the package through the CLI; its import is set-up)
import oracle

SEED_STRIDE = 1000

# Tolerances. The closed-form training path that may replace sequential
# pulses differs from it by at most ~3e-10 of the stored value; each bound
# admits that and still catches a single missing or extra pulse (~1e-3 of
# the largest stored value) or a wrong read.
SURFACE_RTOL = 1e-7  # stored values, as a share of the largest stored value
POINT_ATOL = 1e-8  # per-probe squared error against the batched oracle
REF_RTOL = 1e-6  # MSE and surface summaries against recorded references

# "full" is what the benchmark times. "tiny" shrinks every grid so the smoke
# test runs in seconds; it is never timed.
SIZES = {
    "full": {"paper": None, "scaled_grid": 500, "scaled_n": 1000, "scaled_probes": 200,
             "lattice": 100, "pipe_probes": 2000},
    "tiny": {"paper": {"grid": 12, "grid2": 10, "n": 30, "probes": 10, "lattice": 4},
             "scaled_grid": 16, "scaled_n": 20, "scaled_probes": 10,
             "lattice": 6, "pipe_probes": 20},
}


# -- configs -------------------------------------------------------------------


def _offset_seeds(cfg: cf.ExperimentConfig, offset: int) -> cf.ExperimentConfig:
    if offset == 0:
        return cfg
    ev = cfg.eval if cfg.eval.seed is None else replace(cfg.eval, seed=cfg.eval.seed + offset)
    return replace(cfg, dataset=replace(cfg.dataset, seed=cfg.dataset.seed + offset), eval=ev,
                   fault_seed=cfg.fault_seed + offset)


def _shrink(cfg: cf.ExperimentConfig, tiny: dict | None) -> cf.ExperimentConfig:
    if tiny is None:
        return cfg
    grid = tiny["grid2"] if len(cfg.input_universes) > 1 else tiny["grid"]
    ev = (replace(cfg.eval, n=tiny["probes"]) if cfg.eval.kind == "random"
          else replace(cfg.eval, shape=(tiny["lattice"],) * len(cfg.eval.shape)))
    return replace(
        cfg,
        dataset=replace(cfg.dataset, n=tiny["n"]),
        input_universes={k: cf.Universe(u.lo, u.hi, grid) for k, u in cfg.input_universes.items()},
        output_universe=cf.Universe(cfg.output_universe.lo, cfg.output_universe.hi, tiny["grid"]),
        eval=ev,
    )


def paper_config(name: str, size: dict, seed: int, out_root: Path) -> cf.ExperimentConfig:
    cfg = cf.default_config(name, output_dir=str(out_root / name))
    return _offset_seeds(_shrink(cfg, size["paper"]), SEED_STRIDE * seed)


def _probes(spec: cf.EvalSpec) -> int:
    return spec.n if spec.kind == "random" else math.prod(spec.shape)


def _stages(cfg: cf.ExperimentConfig) -> int:
    return len(cfg.pipeline_targets) if cfg.pipeline_targets else 1


# -- output checks ---------------------------------------------------------------


def _model_blocks(model: dict) -> list[dict]:
    return model["blocks"] if model["kind"] == "pipeline" else [model]


def _surface_summary(model: dict) -> list[float]:
    deltas = [b["device"]["r_off"] - np.asarray(b["memristance"]) for b in _model_blocks(model)]
    return [float(sum(d.sum() for d in deltas)), float(max(d.max() for d in deltas))]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_surfaces(cfg_json: dict, model: dict) -> list[str]:
    """Stored values against the closed form; stuck cells hold r_off."""
    errors = []
    fault = cfg_json["fault"]
    for stage, block in enumerate(_model_blocks(model)):
        m = np.asarray(block["memristance"], dtype=float)
        r_off = block["device"]["r_off"]
        expected = oracle.trained_memristance(cfg_json, stage)
        stuck = np.zeros(m.size, dtype=bool)
        stuck[np.asarray(block["fault_cells"], dtype=int)] = True
        stuck = stuck.reshape(m.shape)
        n_faults = int(fault["fraction"] * m.size)
        if stuck.sum() != n_faults:
            errors.append(f"stage {stage}: {stuck.sum()} stuck cells, expected {n_faults}")
        if np.any(m[stuck] != r_off):
            errors.append(f"stage {stage}: a stuck cell does not hold r_off")
        expected[stuck] = r_off
        scale = (r_off - expected).max()
        gap = np.abs(m - expected).max()
        if m.shape != expected.shape or gap > SURFACE_RTOL * scale:
            errors.append(f"stage {stage}: stored values differ from the closed form "
                          f"by {gap:.3g} ohm (largest stored value {scale:.3g})")
    return errors


def check_persisted(result, model: dict) -> list[str]:
    """Surface CSVs and result.json read back to what the model holds."""
    errors = []
    blocks = _model_blocks(model)
    expected = []
    for block in blocks:
        delta = block["device"]["r_off"] - np.asarray(block["memristance"], dtype=float)
        expected.append(delta)
        if len(blocks) == 1 and len(block["inputs"]) > 1:
            start = 0
            for sec in block["inputs"]:
                stop = start + sec["universe"]["count"]
                expected.append(delta[:, start:stop])
                start = stop
    if len(result.surface_paths) != len(expected):
        return [f"{len(result.surface_paths)} surface files, expected {len(expected)}"]
    for path, want in zip(result.surface_paths, expected):
        got = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        if got.shape != want.shape or np.abs(got - want).max() > 1e-9 * np.abs(want).max():
            errors.append(f"{Path(path).name} does not read back to the stored surface")
    saved = json.loads((Path(result.model_path).parent / "result.json").read_text())
    if saved["mse"] != result.mse:
        errors.append("result.json mse differs from the returned result")
    return errors


def check_probes(model: dict, spec: dict, target: str, sigmas: dict, per_point, flagged):
    """Per-probe failures: flagged, or off the batched oracle. Returns a bool array."""
    want, want_flags = oracle.squared_errors(model, spec, target, sigmas)
    got = np.asarray(per_point, dtype=float)
    if got.shape != want.shape:
        return np.ones(want.size, dtype=bool)
    got_flags = np.zeros(got.size, dtype=bool)
    got_flags[np.asarray(flagged, dtype=int)] = True
    return got_flags | want_flags | ~(np.abs(got - want) <= POINT_ATOL)


def reference_values(result, model: dict) -> dict:
    return {"mse": result.mse, "flagged": len(result.flagged_points),
            "saturation": result.saturation_count, "surface": _surface_summary(model)}


def check_reference(result, model: dict, ref: dict) -> list[str]:
    got = reference_values(result, model)
    errors = []
    if not _close(got["mse"], ref["mse"], REF_RTOL):
        errors.append(f"mse {got['mse']!r} != reference {ref['mse']!r}")
    for key in ("flagged", "saturation"):
        if got[key] != ref[key]:
            errors.append(f"{key} count {got[key]} != reference {ref[key]}")
    if not all(_close(a, b, REF_RTOL) for a, b in zip(got["surface"], ref["surface"])):
        errors.append(f"surface summary {got['surface']} != reference {ref['surface']}")
    return errors


def check_experiment(cfg: cf.ExperimentConfig, result, ref: dict | None) -> list[str]:
    """Every check on one ``run_experiment`` call; an empty list means it passed."""
    if isinstance(result, BaseException):
        return [f"raised {result!r}"]
    model = json.loads(Path(result.model_path).read_text())
    cfg_json = result.config
    errors = check_surfaces(cfg_json, model) + check_persisted(result, model)
    bad = check_probes(model, cfg_json["eval"], cfg.eval_target or cfg.dataset.target,
                       cfg.dataset.input_sigmas, result.per_point_errors, result.flagged_points)
    if bad.any():
        errors.append(f"{int(bad.sum())} probes flagged or off the oracle")
    if ref is not None:
        errors += check_reference(result, model, ref)
    return errors


# -- workloads ---------------------------------------------------------------------


class PaperSuite:
    """The five named experiments, as users run them."""

    def __init__(self, size: dict, seed: int, tmp: Path, refs: dict | None):
        self.configs = [paper_config(n, size, seed, tmp) for n in cf.EXPERIMENT_NAMES]
        self.refs = refs

    def setup_errors(self) -> list[str]:
        return []

    def run_pass(self):
        results = []
        for cfg in self.configs:
            try:
                results.append(cf.run_experiment(cfg.name, cfg))
            except Exception as exc:  # reported as a failed op by check()
                results.append(exc)
        return results

    def check(self, results) -> tuple[int, int, list[str]]:
        """(ops attempted, ops failed, messages) for one pass."""
        failed, messages = 0, []
        for cfg, result in zip(self.configs, results):
            ref = None if self.refs is None else self.refs[cfg.name]
            errors = check_experiment(cfg, result, ref)
            failed += bool(errors)
            messages += [f"{cfg.name}: {e}" for e in errors]
        return len(results), failed, messages

    def probes(self) -> int:
        return sum(_probes(c.eval) for c in self.configs)

    def expected_counts(self) -> dict[str, int]:
        return {
            "writes": sum(c.dataset.n * _stages(c) for c in self.configs),
            "accumulates": 0,
            "reads": sum(_probes(c.eval) * _stages(c) for c in self.configs),
            "fuzzifications": sum(c.dataset.n * (len(c.dataset.domains) + 1) * _stages(c)
                                  + _probes(c.eval) * len(c.dataset.domains) for c in self.configs),
            "probes": self.probes(),
        }

    def references(self, results) -> dict:
        return {cfg.name: reference_values(r, json.loads(Path(r.model_path).read_text()))
                for cfg, r in zip(self.configs, results)}


class TrainScaled:
    """One large single-input run, then the same data into a software relation."""

    def __init__(self, size: dict, seed: int, tmp: Path, refs: dict | None):
        offset = SEED_STRIDE * seed
        u = cf.Universe(0.0, 1.0, size["scaled_grid"])
        self.cfg = cf.ExperimentConfig(
            name="train-scaled",
            device=cf.DEFAULT_PARAMS,
            dataset=cf.DatasetSpec(target="f1", domains={"x": (0.0, 1.0)}, n=size["scaled_n"],
                                   input_sigmas={"x": 0.05}, output_sigma=0.05,
                                   seed=101 + offset),
            input_universes={"x": u},
            output_universe=u,
            eval=cf.EvalSpec(kind="random", domains={"x": (0.0, 1.0)},
                             n=size["scaled_probes"], seed=211 + offset),
            output_dir=str(tmp / "train-scaled"),
        )
        self.refs = refs

    def setup_errors(self) -> list[str]:
        return []

    def run_pass(self):
        cfg = self.cfg
        try:
            result = cf.run_experiment(cfg.name, cfg)
            dataset = cf.generate_dataset(cfg.dataset, cfg.input_universes, cfg.output_universe)
            (name, u_in), = cfg.input_universes.items()
            block = cf.Block(cf.Relation(u_in, cfg.output_universe, mode="hardware"),
                             [(name, u_in)], cfg.output_universe, device_params=cfg.device)
            cf.train_block(block, dataset, cfg.resolved_t0())
            return result, block.snapshot_delta()
        except Exception as exc:  # reported as a failed op by check()
            return exc, None

    def check(self, out) -> tuple[int, int, list[str]]:
        result, relation_delta = out
        ref = None if self.refs is None else self.refs[self.cfg.name]
        errors = check_experiment(self.cfg, result, ref)
        if not errors:
            model = json.loads(Path(result.model_path).read_text())
            crossbar_delta = model["device"]["r_off"] - np.asarray(model["memristance"])
            gap = np.abs(relation_delta - crossbar_delta).max()
            if gap > SURFACE_RTOL * crossbar_delta.max():
                errors.append(f"relation and crossbar surfaces differ by {gap:.3g} ohm")
        return 1, bool(errors), errors

    def probes(self) -> int:
        return _probes(self.cfg.eval)

    def expected_counts(self) -> dict[str, int]:
        n, probes = self.cfg.dataset.n, _probes(self.cfg.eval)
        # The dataset is generated twice: inside run_experiment and for the relation.
        return {"writes": n, "accumulates": n, "reads": probes,
                "fuzzifications": 2 * 2 * n + probes, "probes": probes}

    def references(self, out) -> dict:
        result = out[0]
        return {self.cfg.name: reference_values(result,
                                                json.loads(Path(result.model_path).read_text()))}


class InferSweep:
    """Reads only: trained models reloaded from JSON and probed in bulk."""

    def __init__(self, size: dict, seed: int, tmp: Path, refs: dict | None):
        self.refs = refs
        self.trained = {}
        for name in ("exp-2input", "exp-compose"):
            cfg = paper_config(name, size, seed, tmp)
            result = cf.run_experiment(name, cfg)
            self.trained[name] = (cfg, result, json.loads(Path(result.model_path).read_text()))
        two_cfg, _, two_json = self.trained["exp-2input"]
        pipe_cfg, _, pipe_json = self.trained["exp-compose"]
        ideal_json = dict(two_json, read_mode="ideal")
        lattice = cf.EvalSpec(kind="lattice", domains=two_cfg.eval.domains,
                              shape=(size["lattice"],) * 2)
        scatter = cf.EvalSpec(kind="random", domains=pipe_cfg.eval.domains,
                              n=size["pipe_probes"], seed=pipe_cfg.eval.seed)
        # (label, model, model JSON for the oracle, eval spec, target, sigmas)
        self.sweeps = [
            ("exact", cf.model_from_json(two_json), two_json, lattice, "eq30",
             two_cfg.dataset.input_sigmas),
            ("ideal", cf.model_from_json(ideal_json), ideal_json, lattice, "eq30",
             two_cfg.dataset.input_sigmas),
            ("pipeline", cf.model_from_json(pipe_json), pipe_json, scatter, "identity",
             pipe_cfg.dataset.input_sigmas),
        ]

    def setup_errors(self) -> list[str]:
        errors = []
        for name, (cfg, result, _) in self.trained.items():
            ref = None if self.refs is None else self.refs["setup"][name]
            errors += [f"set-up {name}: {e}" for e in check_experiment(cfg, result, ref)]
        return errors

    def run_pass(self):
        results = []
        for _, model, _, spec, target, sigmas in self.sweeps:
            try:
                points = cf.eval_points(spec)
                fn = cf.target_function(target, tuple(spec.domains))
                results.append(cf.evaluate_mse(model, fn, points, sigmas))
            except Exception as exc:  # reported as failed ops by check()
                results.append(exc)
        return results

    def check(self, results) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        messages = []
        for (label, _, model_json, spec, target, sigmas), out in zip(self.sweeps, results):
            n = _probes(spec)
            attempted += n
            if isinstance(out, BaseException):
                failed += n
                messages.append(f"{label}: raised {out!r}")
                continue
            mse, per_point, flagged = out
            bad = check_probes(model_json, spec.to_json(), target, sigmas, per_point, flagged)
            if self.refs is not None and not _close(mse, self.refs[label], REF_RTOL):
                messages.append(f"{label}: mse {mse!r} != reference {self.refs[label]!r}")
                bad[:] = True
            if bad.any():
                messages.append(f"{label}: {int(bad.sum())} probes flagged or off the oracle")
            failed += int(bad.sum())
        return attempted, failed, messages

    def probes(self) -> int:
        return sum(_probes(s[3]) for s in self.sweeps)

    def expected_counts(self) -> dict[str, int]:
        reads = sum(_probes(s[3]) * (2 if s[0] == "pipeline" else 1) for s in self.sweeps)
        return {"writes": 0, "accumulates": 0, "reads": reads,
                "fuzzifications": sum(_probes(s[3]) * len(s[3].domains) for s in self.sweeps),
                "probes": self.probes()}

    def references(self, results) -> dict:
        refs = {label: out[0] for (label, *_), out in zip(self.sweeps, results)}
        refs["setup"] = {name: reference_values(result, model)
                         for name, (_, result, model) in self.trained.items()}
        return refs


WORKLOADS = {"paper-suite": PaperSuite, "train-scaled": TrainScaled, "infer-sweep": InferSweep}


def build(name: str, size: str, seed: int, tmp: Path, refs: dict | None):
    """Set up one workload. ``refs`` is this size's reference table, or None."""
    workload_refs = None if refs is None else refs[name]
    return WORKLOADS[name](SIZES[size], seed, tmp, workload_refs)
