"""Experiment harness: datasets, training loops, MSE evaluation, named runs.

Every run is a pure function of its configuration: all randomness flows
through explicit seeds, training applies one write pulse per sample in
dataset order, and evaluation fuzzifies crisp probe points, reads the
model, and centroid-defuzzifies. Results land in an output directory as
``result.json`` plus CSV surface dumps and a reloadable ``model.json``;
its ``phase_s`` gives the seconds spent on ``dataset``, ``train``, ``eval``
and ``persist`` (surfaces and ``model.json``). Writes the threshold-free
device holds settle at the first read, so their cost counts under ``eval``.
Where ``os.fork`` exists, ``model.json`` is encoded and written by a forked
child while this process writes the surfaces, so ``persist`` is the wall
time of the two side by side; the files are the same either way.

A probe set is an array with one named float field per variable
(``eval_points``), evaluated in chunks of ``_CHUNK`` probes. Per probe,
``evaluate_mse`` calls only ``fuzzify_gaussian`` once per variable and the
backend once per live stage (``infer_rows``). A named target is a numpy
array function and is called once per chunk, on the chunk's columns; any
other target, such as an expression, is called once per probe with scalars,
as it may branch on them. The signal test, the conditioning between stages,
the centroids, the errors and the flags are array operations on the chunk.

The write-pulse duration is auto-scaled unless pinned: with n samples the
worst case is every pulse hitting one cell at the full summed grade of 2,
which writes with the drive ``2 - v_th`` left above the device's write
threshold, so t0 is chosen to keep even that cell's stored value at or
below 0.1 % of r_off, which keeps the read-out in its linear regime.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .crossbar import save_delta_csv
from .device import DEFAULT_PARAMS, MemristorParams, beta, drift
from .fuzzy import EmptyOutputError, FuzzyNumber, Universe, centroid_rows, fuzzify_gaussian
from .system import READ_MODES, Block, Pipeline, block_train, model_to_json

__all__ = [
    "EXPERIMENT_NAMES",
    "DatasetSpec",
    "Sample",
    "EvalSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "target_function",
    "generate_dataset",
    "train_block",
    "eval_points",
    "evaluate_mse",
    "auto_t0",
    "default_config",
    "run_experiment",
    "merge_json",
]

EXPERIMENT_NAMES = ("exp-f1", "exp-f2", "exp-compose", "exp-2input", "exp-2input-faulty")

#: Stored values are kept at or below this fraction of r_off during training.
MAX_DELTA_FRACTION = 1e-3

# Probes evaluated together: large enough that the array work per chunk is
# cheap next to the per-probe calls, small enough that a chunk's drive and
# read-out matrices (at 180 and 100 grades per probe, ~1.2 MB) stay small.
_CHUNK = 512


# -- targets --------------------------------------------------------------


# The named targets take scalars (datasets) and arrays (evaluation chunks)
# and give the same bits for both. Squares go through ``np.float_power``, which
# is libm ``pow`` for every element, as ``** 2`` is on a Python or numpy
# scalar; ``** 2`` on an array is one multiply and differs from ``pow`` in the
# last bit for about one input in 1 200.


def _f1(x):
    return np.float_power(x, 2)


def _f2(x):
    return np.sqrt(x)


def _two_sinc(x, y):
    return 0.5 * np.sqrt(2.0 * np.float_power(np.sin(x) / x, 2)
                         + 3.0 * np.float_power(np.sin(y) / y, 2))


def _identity(x):
    return x


NAMED_TARGETS = {"f1": _f1, "f2": _f2, "eq30": _two_sinc, "identity": _identity}

_EXPR_NAMES = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "pi": np.pi,
    "e": np.e,
}


def target_function(target: str, variables: tuple[str, ...]):
    """Resolve a target id or arithmetic expression to a callable of the variables."""
    if target in NAMED_TARGETS:
        return NAMED_TARGETS[target]
    code = compile(target, "<target>", "eval")
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in variables:
            raise ValueError(f"unknown name {name!r} in target expression {target!r}")

    def fn(**kwargs):
        return eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, **kwargs})

    return fn


# -- datasets --------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    target: str
    domains: dict[str, tuple[float, float]]
    n: int
    input_sigmas: dict[str, float]
    output_sigma: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one sample, got n={self.n}")
        if not self.domains:
            raise ValueError("dataset needs at least one input variable")
        for name, (lo, hi) in self.domains.items():
            if not lo < hi:
                raise ValueError(f"invalid domain for {name!r}: [{lo}, {hi}]")
        if set(self.input_sigmas) != set(self.domains):
            raise ValueError("input_sigmas keys must match domains keys")
        sigmas = [*self.input_sigmas.values(), self.output_sigma]
        if not all(0 < s < math.inf for s in sigmas):
            raise ValueError(f"sigmas must be positive and finite, got {sigmas}")

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.domains)

    @classmethod
    def from_json(cls, obj: dict) -> "DatasetSpec":
        return cls(
            target=obj["target"],
            domains={k: (v[0], v[1]) for k, v in obj["domains"].items()},
            n=obj["n"],
            input_sigmas=dict(obj["input_sigmas"]),
            output_sigma=obj["output_sigma"],
            seed=obj["seed"],
        )

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "domains": {k: list(v) for k, v in self.domains.items()},
            "n": self.n,
            "input_sigmas": dict(self.input_sigmas),
            "output_sigma": self.output_sigma,
            "seed": self.seed,
        }


@dataclass
class Sample:
    crisp: dict[str, float]
    target_value: float
    inputs: dict[str, FuzzyNumber]
    output: FuzzyNumber


def generate_dataset(
    spec: DatasetSpec,
    input_universes: dict[str, Universe],
    output_universe: Universe,
) -> list[Sample]:
    """Draw seeded uniform crisp points, evaluate the target, fuzzify everything."""
    if set(input_universes) != set(spec.domains):
        raise ValueError("input universes must cover exactly the dataset variables")
    fn = target_function(spec.target, spec.variables)
    rng = np.random.default_rng(spec.seed)
    draws = {name: rng.uniform(lo, hi, spec.n) for name, (lo, hi) in spec.domains.items()}
    samples = []
    for i in range(spec.n):
        crisp = {name: float(draws[name][i]) for name in spec.variables}
        value = float(fn(**crisp))
        if not math.isfinite(value):
            raise ValueError(
                f"target {spec.target!r} is not finite at sample {i} with inputs {crisp}: {value}"
            )
        inputs = {
            name: fuzzify_gaussian(crisp[name], spec.input_sigmas[name], input_universes[name])
            for name in spec.variables
        }
        output = fuzzify_gaussian(value, spec.output_sigma, output_universe)
        samples.append(Sample(crisp, value, inputs, output))
    return samples


def train_block(block: Block, dataset: list[Sample], t0: float) -> Block:
    """One write pulse per sample, in dataset order."""
    for sample in dataset:
        block_train(block, sample.inputs, sample.output, t0)
    return block


# -- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvalSpec:
    kind: str  # "random" | "lattice"
    domains: dict[str, tuple[float, float]]
    n: int = 0
    shape: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "random":
            if self.n < 1:
                raise ValueError("random evaluation needs n >= 1")
            if self.seed is None:
                raise ValueError("random evaluation needs an explicit seed")
        elif self.kind == "lattice":
            if len(self.shape) != len(self.domains):
                raise ValueError("lattice shape must give one count per variable")
            if any(k < 2 for k in self.shape):
                raise ValueError("lattice needs at least 2 points per axis")
        else:
            raise ValueError(f"unknown evaluation kind {self.kind!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "EvalSpec":
        return cls(
            kind=obj["kind"],
            domains={k: (v[0], v[1]) for k, v in obj["domains"].items()},
            n=obj.get("n", 0),
            shape=tuple(obj.get("shape", ())),
            seed=obj.get("seed"),
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "domains": {k: list(v) for k, v in self.domains.items()},
            "n": self.n,
            "shape": list(self.shape),
            "seed": self.seed,
        }


def eval_points(spec: EvalSpec) -> np.ndarray:
    """The probe set: a 1-D array with one float field per variable, named as in the spec."""
    if spec.kind == "random":
        rng = np.random.default_rng(spec.seed)
        columns = [rng.uniform(lo, hi, spec.n) for lo, hi in spec.domains.values()]
    else:
        axes = [
            np.linspace(lo, hi, k) for (lo, hi), k in zip(spec.domains.values(), spec.shape)
        ]
        columns = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    points = np.empty(columns[0].size, dtype=[(name, float) for name in spec.domains])
    for name, column in zip(spec.domains, columns):
        points[name] = column
    return points


def _target_values(target_fn, chunk: np.ndarray) -> np.ndarray:
    """``target_fn`` at every probe of a chunk, with the probe's values as keyword arguments.

    A named target takes the chunk's columns in one call. Any other callable
    takes one probe's values at a time, as Python floats: an expression may
    branch on them or divide by zero, which an array would turn into a
    ``ValueError`` or an inf.
    """
    names = chunk.dtype.names
    if target_fn in NAMED_TARGETS.values():
        return target_fn(**{name: chunk[name] for name in names})
    return np.array([float(target_fn(**dict(zip(names, pt)))) for pt in chunk.tolist()])


def evaluate_mse(
    model: Block | Pipeline,
    target_fn,
    points: np.ndarray,
    input_sigmas: dict[str, float],
) -> tuple[float, list[float], list[int]]:
    """Probe the trained model on crisp points against the target function.

    ``points`` is a probe set from ``eval_points``. Each point is fuzzified,
    run through the model, and centroid-defuzzified. A named target from
    ``target_function`` is called once per chunk of points with their
    columns as keyword arrays; any other ``target_fn`` once per point with
    the point's values as scalar keyword arguments. Both give the same
    values. An output with no signal (untrained region) is scored against
    the output-domain midpoint and flagged rather than skipped, so abstention
    cannot lower the error. Returns the MSE, the per-point squared errors
    and the flagged point indices.
    """
    out_u = model.output_universe
    midpoint = 0.5 * (out_u.lo + out_u.hi)
    per_point = np.empty(len(points))
    flagged = []
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        drives = np.empty((len(chunk), model.sections[-1].stop))
        for sec in model.sections:
            sigma, universe = input_sigmas[sec.name], sec.universe
            for drive, x in zip(drives[:, sec.start : sec.stop], chunk[sec.name].tolist()):
                drive[:] = fuzzify_gaussian(x, sigma, universe).grades
        rows, live = model.infer_rows(drives)
        prediction = np.full(len(chunk), midpoint)
        prediction[live] = centroid_rows(out_u, rows[live])
        target = _target_values(target_fn, chunk)
        per_point[start : start + len(chunk)] = (prediction - target) ** 2
        flagged += (start + np.flatnonzero(~live)).tolist()
    return float(np.mean(per_point)), per_point.tolist(), flagged


# -- configuration -----------------------------------------------------------


def auto_t0(params: MemristorParams, n: int) -> float:
    """Pulse duration keeping worst-case stored value at MAX_DELTA_FRACTION of r_off.

    Worst case: all n pulses land on one cell at the maximum summed grade of
    2, which moves flux ``(2 - v_th) * t0`` per pulse.
    """
    drive = _worst_drive(params)
    budget = params.r_off**2 * (1.0 - (1.0 - MAX_DELTA_FRACTION) ** 2)
    return budget / (drive * n * beta(params))


def _worst_drive(params: MemristorParams) -> float:
    """Largest drive above threshold a pulse of grades in [0, 1] can apply (V)."""
    if not params.v_th < 2.0:
        raise ValueError(
            f"v_th={params.v_th} V is at or above the largest drive of 2 V: no pulse can write"
        )
    return 2.0 - params.v_th


@dataclass
class ExperimentConfig:
    name: str
    device: MemristorParams
    dataset: DatasetSpec
    input_universes: dict[str, Universe]
    output_universe: Universe
    eval: EvalSpec
    t0: float | None = None  # None: auto-scaled from the sample count
    read_mode: str = "exact"
    pipeline_targets: tuple[str, ...] | None = None  # one target per chained stage
    fault_fraction: float = 0.0
    fault_seed: int = 0
    eval_target: str | None = None  # defaults to the dataset target
    output_dir: str = "results"

    def resolved_t0(self) -> float:
        return self.t0 if self.t0 is not None else auto_t0(self.device, self.dataset.n)

    def validate(self) -> None:
        if set(self.input_universes) != set(self.dataset.domains):
            raise ValueError("input universes must match dataset variables")
        if self.read_mode not in READ_MODES:
            raise ValueError(f"read mode must be one of {READ_MODES}, got {self.read_mode!r}")
        if not (0.0 <= self.fault_fraction <= 1.0):
            raise ValueError("fault fraction must lie in [0, 1]")
        drive = _worst_drive(self.device)
        t0 = self.resolved_t0()
        if not (math.isfinite(t0) and t0 > 0):
            raise ValueError(f"t0 must be positive and finite, got {t0}")
        worst_flux = drive * self.dataset.n * t0
        worst_delta = self.device.r_off - drift(self.device.r_off, worst_flux, self.device)[0]
        if worst_delta > MAX_DELTA_FRACTION * self.device.r_off * (1.0 + 1e-9):
            raise ValueError(
                f"t0={t0:g} violates the write budget: worst-case stored value "
                f"{worst_delta:.3g} ohm exceeds {MAX_DELTA_FRACTION:.0e} of r_off"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        fault = obj.get("fault", {})
        return cls(
            name=obj["name"],
            device=MemristorParams.from_json(obj["device"]),
            dataset=DatasetSpec.from_json(obj["dataset"]),
            input_universes={
                k: Universe.from_json(v) for k, v in obj["input_universes"].items()
            },
            output_universe=Universe.from_json(obj["output_universe"]),
            eval=EvalSpec.from_json(obj["eval"]),
            t0=obj.get("t0"),
            read_mode=obj.get("read_mode", "exact"),
            pipeline_targets=tuple(obj["pipeline_targets"])
            if obj.get("pipeline_targets")
            else None,
            fault_fraction=fault.get("fraction", 0.0),
            fault_seed=fault.get("seed", 0),
            eval_target=obj.get("eval_target"),
            output_dir=obj.get("output_dir", "results"),
        )

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "device": self.device.to_json(),
            "dataset": self.dataset.to_json(),
            "input_universes": {k: u.to_json() for k, u in self.input_universes.items()},
            "output_universe": self.output_universe.to_json(),
            "eval": self.eval.to_json(),
            "t0": self.t0,
            "resolved_t0": self.resolved_t0(),
            "read_mode": self.read_mode,
            "pipeline_targets": list(self.pipeline_targets) if self.pipeline_targets else None,
            "fault": {"fraction": self.fault_fraction, "seed": self.fault_seed},
            "eval_target": self.eval_target,
            "output_dir": self.output_dir,
        }


@dataclass
class ExperimentResult:
    name: str
    mse: float
    n_train: int
    saturation_count: int
    runtime_s: float
    phase_s: dict[str, float]
    per_point_errors: list[float]
    flagged_points: list[int]
    surface_paths: list[str]
    model_path: str | None
    config: dict

    def to_json(self) -> dict:
        return {
            "mse": self.mse,
            "n_train": self.n_train,
            "saturation_count": self.saturation_count,
            "config": self.config,
            "runtime_s": self.runtime_s,
            "phase_s": self.phase_s,
            "name": self.name,
            "per_point_errors": self.per_point_errors,
            "flagged_points": self.flagged_points,
            "surfaces": self.surface_paths,
            "model": self.model_path,
        }


def default_config(name: str, output_dir: str | None = None) -> ExperimentConfig:
    """Built-in configuration for one of the named experiments."""
    params = DEFAULT_PARAMS
    out = output_dir or f"results/{name}"
    if name in ("exp-f1", "exp-f2"):
        return ExperimentConfig(
            name=name,
            device=params,
            dataset=DatasetSpec(
                target="f1" if name == "exp-f1" else "f2",
                domains={"x": (0.0, 1.0)},
                n=500,
                input_sigmas={"x": 0.05},
                output_sigma=0.05,
                seed=101,
            ),
            input_universes={"x": Universe(0.0, 1.0, 100)},
            output_universe=Universe(0.0, 1.0, 100),
            eval=EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=200, seed=211),
            output_dir=out,
        )
    if name == "exp-compose":
        return ExperimentConfig(
            name=name,
            device=params,
            dataset=DatasetSpec(
                target="f2",
                domains={"x": (0.0, 1.0)},
                n=500,
                input_sigmas={"x": 0.05},
                output_sigma=0.05,
                seed=101,
            ),
            input_universes={"x": Universe(0.0, 1.0, 100)},
            output_universe=Universe(0.0, 1.0, 100),
            eval=EvalSpec(kind="random", domains={"x": (0.05, 0.95)}, n=100, seed=307),
            pipeline_targets=("f2", "f1"),
            eval_target="identity",
            output_dir=out,
        )
    if name in ("exp-2input", "exp-2input-faulty"):
        cfg = ExperimentConfig(
            name=name,
            device=params,
            dataset=DatasetSpec(
                target="eq30",
                domains={"x": (1.0, 10.0), "y": (1.0, 10.0)},
                n=800,
                input_sigmas={"x": 0.45, "y": 0.45},
                output_sigma=0.056,
                seed=401,
            ),
            input_universes={
                "x": Universe(1.0, 10.0, 90),
                "y": Universe(1.0, 10.0, 90),
            },
            output_universe=Universe(0.0, 1.12, 100),
            eval=EvalSpec(
                kind="lattice",
                domains={"x": (1.0, 10.0), "y": (1.0, 10.0)},
                shape=(30, 30),
            ),
            output_dir=out,
        )
        if name == "exp-2input-faulty":
            cfg.fault_fraction = 0.5
            cfg.fault_seed = 503
        return cfg
    raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")


def merge_json(base: dict, override: dict) -> dict:
    """Recursive dict merge used for config overrides."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = merge_json(merged[key], value)
        else:
            merged[key] = value
    return merged


@contextmanager
def _timed(phase_s: dict[str, float], phase: str):
    """Add the seconds the ``with`` body takes to ``phase_s[phase]``."""
    start = time.perf_counter()
    yield
    phase_s[phase] += time.perf_counter() - start


def _build_and_train(cfg: ExperimentConfig, phase_s: dict[str, float]) -> Block | Pipeline:
    """Train one block per stage; stage i shifts the dataset and fault seeds by i."""
    t0 = cfg.resolved_t0()
    inputs = list(cfg.input_universes.items())
    if cfg.pipeline_targets and len(inputs) != 1:
        raise ValueError("chained experiments need a single input variable")
    blocks = []
    for i, target in enumerate(cfg.pipeline_targets or (cfg.dataset.target,)):
        spec = replace(cfg.dataset, target=target, seed=cfg.dataset.seed + i)
        with _timed(phase_s, "dataset"):
            dataset = generate_dataset(spec, cfg.input_universes, cfg.output_universe)
        with _timed(phase_s, "train"):
            blk = Block.pristine(inputs, cfg.output_universe, cfg.device,
                                 read_mode=cfg.read_mode)
            if cfg.fault_fraction > 0:
                blk.backend.inject_faults(cfg.fault_fraction, cfg.fault_seed + i)
            train_block(blk, dataset, t0)
        blocks.append(blk)
    return Pipeline(blocks) if cfg.pipeline_targets else blocks[0]


def _export_surfaces(model: Block | Pipeline, out_dir: Path, r_off: float) -> list[str]:
    paths = []
    if isinstance(model, Pipeline):
        for i, blk in enumerate(model.blocks):
            p = out_dir / f"surface_stage{i}.csv"
            save_delta_csv(p, blk.snapshot_delta(), r_off)
            paths.append(str(p))
        return paths
    p = out_dir / "surface.csv"
    sections = {}
    if len(model.sections) > 1:  # one more file per section: its columns of surface.csv
        sections = {out_dir / f"surface_{sec.name}.csv": (sec.start, sec.stop)
                    for sec in model.sections}
    save_delta_csv(p, model.snapshot_delta(), r_off, sections)
    return [str(p), *map(str, sections)]


def _write_model_beside(path: Path, model: Block | Pipeline):
    """Start writing ``model``'s JSON to ``path`` in a forked child; return its join.

    ``model_to_json`` runs here, before the fork, so it settles any held write
    and the child changes no state. This process then drops the JSON: it is
    not held while the caller writes the surfaces. The join waits for the
    child. If the child failed, the join makes the same write in this process,
    so the caller gets the real exception. Where a child cannot be forked, the
    write is made at once and the join does nothing.
    """
    obj = model_to_json(model)
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # no os.fork on this platform, or no process to spare
        path.write_text(json.dumps(obj))
        return lambda: None
    if pid == 0:  # the child: write, then exit without returning into the caller
        code = 1
        try:
            gc.disable()  # no finalizer of the parent's objects runs a second time here
            path.write_text(json.dumps(obj))
            code = 0
        finally:
            os._exit(code)
    del obj

    def join():
        if os.waitpid(pid, 0)[1] != 0:
            path.write_text(json.dumps(model_to_json(model)))

    return join


def run_experiment(
    name: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Train, evaluate, and persist one named experiment."""
    cfg = config if config is not None else default_config(name)
    cfg.validate()
    phase_s = dict.fromkeys(("dataset", "train", "eval", "persist"), 0.0)
    started = time.perf_counter()
    model = _build_and_train(cfg, phase_s)
    with _timed(phase_s, "eval"):
        eval_target = cfg.eval_target or cfg.dataset.target
        fn = target_function(eval_target, tuple(cfg.eval.domains))
        points = eval_points(cfg.eval)
        mse, per_point, flagged = evaluate_mse(model, fn, points, cfg.dataset.input_sigmas)
    if len(flagged) == len(points):
        raise EmptyOutputError(f"{cfg.name}: evaluation read no stored signal at any probe")
    runtime = time.perf_counter() - started

    with _timed(phase_s, "persist"):
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        model_path = out_dir / "model.json"
        join = _write_model_beside(model_path, model)
        try:
            surface_paths = _export_surfaces(model, out_dir, cfg.device.r_off)
        finally:
            join()
    n_train = cfg.dataset.n * (len(cfg.pipeline_targets) if cfg.pipeline_targets else 1)
    result = ExperimentResult(
        name=cfg.name,
        mse=mse,
        n_train=n_train,
        saturation_count=model.saturation_count,
        runtime_s=runtime,
        phase_s=phase_s,
        per_point_errors=per_point,
        flagged_points=flagged,
        surface_paths=surface_paths,
        model_path=str(model_path),
        config=cfg.to_json(),
    )
    (out_dir / "result.json").write_text(json.dumps(result.to_json(), indent=2))
    return result
