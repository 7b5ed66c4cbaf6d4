"""Experiment harness: datasets, training loops, MSE evaluation, named runs.

Every run is a pure function of its configuration: all randomness flows
through explicit seeds, training applies one write pulse per sample in
dataset order, and evaluation fuzzifies crisp probe points, reads the
model, and centroid-defuzzifies. Every run trains a ``Pipeline``: one block
per stage of ``pipeline_targets``, or one block, its one-stage case.
Results land in an output directory as ``result.json`` plus CSV surface
dumps and a reloadable ``model.json``. The surfaces are one file per
stage, ``surface.csv`` for a one-stage model and ``surface_stage{i}.csv``
otherwise, and one more per section of a multi-input stage.
``result.json``'s ``phase_s`` gives the seconds spent on ``dataset``,
``train``, ``eval`` and ``persist`` (surfaces and ``model.json``). Writes
the threshold-free device holds settle at the first read, so their cost
counts under ``eval``. Its ``baseline_mse`` is the population variance of
the probe targets, the MSE of always predicting their mean, and its
``skill`` is ``1 - mse / baseline_mse`` (``null`` for a constant target):
a model with a skill at or below 0 predicts no better than that mean.
Where ``os.fork`` exists, ``model.json`` is encoded and written by a forked
child while this process writes the surfaces, so ``persist`` is the wall
time of the two side by side; the files are the same either way.

A probe set is an array with one named float field per variable
(``eval_points``), evaluated in chunks of ``_CHUNK`` probes. Per probe,
``evaluate_mse`` calls only ``fuzzify_gaussian`` once per variable and the
backend once per live stage, through ``system.pipeline_rows``, the one model
read; a bare ``Block`` is not a model and fails there, before any read. A
value that the set repeats, as a lattice's axes do, is still one call per
probe, and ``fuzzify_gaussian`` serves its bell from its cache. The
signal test, the conditioning after each stage, the centroids, the errors
and the flags are array operations on the chunk.

A point set's targets, a dataset's or a probe set's, are computed once for
the whole set, by ``_target_values``, the one statement of the target rule.
A named target is a numpy array function and is called once, on the set's
columns; any other target, such as an expression, is called once per point
with scalars, as it may branch on them. Every value must be a finite real
number: a value that is not, or an expression that raises at a point, fails
as one ``ValueError`` naming the target, the point (``sample k`` or
``probe k``) and its inputs. ``evaluate_mse`` computes the targets before
its first read, so a bad target is refused before the model is read.

A training set is a ``Dataset`` of arrays, not a list of per-sample
objects: its crisp points are a random probe set (``eval_points`` with the
dataset's domains, size and seed), its targets one value per point, its
drives one column-drive row per sample along the block's sections
(``system.section_layout``) and its outputs one output-grade row per sample.
Training and evaluation share one drive-row path: ``_drive_rows`` builds a
point set's drive rows for ``generate_dataset`` and for each chunk of
``evaluate_mse``, and ``_bells`` fills every grade row, output bells
included, with one ``fuzzify_gaussian`` per value, copied into the row (a
cached bell is read-only; the rows are not). ``train_block``
checks a dataset's sections and output universe against the block once,
then writes one pulse per row, in dataset order; ``system.block_train`` is
the one-sample case.

An ``ExperimentConfig`` is frozen, down to the read-only mappings it and its
specs hold, and checked once, when it is built: its variables agree, every
target it names resolves through ``target_function``, a chain's output grid
overlaps its input grid and its pulse duration keeps within the write budget
below. Each rule it shares with the part that takes the value is stated once,
there, and called here: ``fuzzy.check_overlap`` (the regrid between stages),
``fuzzy.check_span`` (a domain's ends), ``fuzzy.check_sigma`` (a bell's
width), ``system.check_read_mode`` (the read mode), ``crossbar.check_faults``
(the fault draw) and ``device.check_pulse`` (``t0``). A changed config is
derived with ``dataclasses.replace``, which checks it again, so a bad config
fails where it is read and ``run_experiment`` trains only valid ones. Configs
and their specs are written and read as JSON by ``jsonio``: an unknown key, a
value of the wrong JSON type and a domain that is not two numbers fail as
``ValueError`` naming their JSON path (``device.vth: unknown key``), and a
missing key takes its field's default. ``ExperimentConfig``'s JSON nests the
fault fields under ``"fault"`` and adds ``resolved_t0``; that key and the
legacy ``r_c`` are read past.

The write-pulse duration is auto-scaled unless pinned: with n samples the
worst case is every pulse hitting one cell at the full summed grade of 2,
which writes with the drive ``2 - v_th`` left above the device's write
threshold, so t0 is chosen to keep even that cell's stored value at or
below 0.1 % of r_off, which keeps the read-out in its linear regime.
"""

from __future__ import annotations

import gc
import json
import numbers
import os
import time
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import jsonio
from .crossbar import check_faults, save_delta_csv
from .device import DEFAULT_PARAMS, MemristorParams, beta, check_pulse
from .fuzzy import (EmptyOutputError, Universe, centroid_rows, check_overlap, check_sigma,
                    check_span, fuzzify_gaussian)
from .system import (Block, Pipeline, Section, check_read_mode, model_to_json, pipeline_rows,
                     section_layout)

__all__ = [
    "EXPERIMENT_NAMES",
    "DatasetSpec",
    "Dataset",
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
]

EXPERIMENT_NAMES = ("exp-f1", "exp-f2", "exp-compose", "exp-2input", "exp-2input-faulty")

#: Stored values are kept at or below this fraction of r_off during training.
MAX_DELTA_FRACTION = 1e-3

# Probes evaluated together: large enough that the array work per chunk is
# cheap next to the per-probe calls, small enough that a chunk's drive and
# read-out matrices (at 180 and 100 grades per probe, ~1.2 MB) stay small.
_CHUNK = 512

# The most points a dataset or a random probe set may draw: the longest array
# numpy can index.
_MAX_N = int(np.iinfo(np.intp).max)


# -- targets --------------------------------------------------------------


# The named targets take a point set's columns (``_target_values``) and, in
# the tests' oracles, scalars, and give the same bits for both. Squares go
# through ``np.float_power``, which is libm ``pow`` for every element, as
# ``** 2`` is on a Python or numpy scalar; ``** 2`` on an array is one
# multiply and differs from ``pow`` in the last bit for about one input in
# 1 200. Each is named after its key, which error messages quote.


def f1(x):
    return np.float_power(x, 2)


def f2(x):
    return np.sqrt(x)


def eq30(x, y):  # the two-input sinc surface
    return 0.5 * np.sqrt(2.0 * np.float_power(np.sin(x) / x, 2)
                         + 3.0 * np.float_power(np.sin(y) / y, 2))


def identity(x):
    return x


NAMED_TARGETS = {fn.__name__: fn for fn in (f1, f2, eq30, identity)}

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
    """Resolve a target id or arithmetic expression to a callable of the variables.

    Anything that is not a named target whose parameters are exactly the
    variables, or a well-formed expression over the variables and the names
    in ``_EXPR_NAMES``, raises ``ValueError``. The callable's ``__name__`` is
    ``target`` as written.
    """
    if not isinstance(target, str):
        raise ValueError(f"a target must be a name or an expression string, got {target!r}")
    if target in NAMED_TARGETS:
        fn = NAMED_TARGETS[target]
        takes = fn.__code__.co_varnames[: fn.__code__.co_argcount]
        if set(takes) != set(variables):
            raise ValueError(f"target {target!r} takes the variables {takes}, got {variables}")
        return fn
    try:
        code = compile(target, "<target>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"target expression {target!r} is malformed: {exc.msg}") from None
    for name in code.co_names:
        if name not in _EXPR_NAMES and name not in variables:
            raise ValueError(f"unknown name {name!r} in target expression {target!r}")

    # One globals dict per target holds Python's once-per-location warning registry,
    # so a warning the expression raises at many points is shown once; each point's
    # values go in a fresh locals dict, where they shadow the names in _EXPR_NAMES.
    scope = {"__builtins__": {}, **_EXPR_NAMES}

    def fn(**kwargs):
        return eval(code, scope, kwargs)

    fn.__name__ = target
    return fn


# -- datasets --------------------------------------------------------------


@dataclass(frozen=True)
class DatasetSpec:
    target: str
    domains: Mapping[str, tuple[float, float]]
    n: int
    input_sigmas: Mapping[str, float]
    output_sigma: float
    seed: int

    def __post_init__(self) -> None:
        _hold_read_only(self, domains=_pairs(self.domains),
                        input_sigmas=dict(self.input_sigmas.items()))
        _check_draw("a dataset", self.domains, self.n, self.seed)
        if set(self.input_sigmas) != set(self.domains):
            raise ValueError("input_sigmas keys must match domains keys")
        for sigma in (*self.input_sigmas.values(), self.output_sigma):
            check_sigma(sigma)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.domains)

    from_json = classmethod(jsonio.from_json)
    to_json = jsonio.to_json


def _pairs(domains) -> dict[str, tuple[float, float]]:
    """A copy of named domains with each ``(lo, hi)`` as a tuple."""
    return {name: (lo, hi) for name, (lo, hi) in domains.items()}


def _hold_read_only(spec, **fields: dict) -> None:
    """Set fields of a frozen ``spec`` to read-only views of the given dicts.

    Callers pass copies of the mappings they were given, so neither those
    mappings nor the built spec can change what the other holds.
    """
    for name, value in fields.items():
        object.__setattr__(spec, name, MappingProxyType(value))


def _check_domains(domains: dict[str, tuple[float, float]]) -> None:
    """At least one variable, each on a domain whose ends pass ``fuzzy.check_span``."""
    if not domains:
        raise ValueError("need at least one input variable")
    for name, (lo, hi) in domains.items():
        check_span(lo, hi, f"invalid domain for {name!r}: ")


def _check_count(what: str, n) -> None:
    """An integer count ``1 <= n <= _MAX_N``, the most points an array can hold."""
    if not (isinstance(n, numbers.Integral) and 1 <= n <= _MAX_N):
        raise ValueError(f"{what} needs an integer n from 1 to {_MAX_N}, got n={n!r}")


def _check_draw(what: str, domains: dict[str, tuple[float, float]], n, seed) -> None:
    """Valid domains, and an integer count 1 <= n <= ``_MAX_N`` of points drawn
    from a non-negative integer seed; a count no array can hold and a seed
    numpy's generator refuses are refused here, not by numpy."""
    _check_domains(domains)
    _check_count(what, n)
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"{what} needs a non-negative integer seed, got seed={seed!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Training pairs as arrays, one row per sample in draw order.

    ``points`` holds the crisp inputs, laid out as ``eval_points`` lays out a
    probe set, and ``targets`` the target value at each. Row k of ``drives``
    is sample k's column drive: one input bell per section, in the section's
    columns. Row k of ``outputs`` is its output bell on ``output_universe``.
    """

    points: np.ndarray
    targets: np.ndarray
    drives: np.ndarray
    outputs: np.ndarray
    sections: list[Section]
    output_universe: Universe

    def __post_init__(self) -> None:
        n = len(self.points)
        if (self.targets.shape, self.drives.shape, self.outputs.shape) != (
                (n,), (n, self.sections[-1].stop), (n, self.output_universe.count)):
            raise ValueError("a dataset needs one target, drive and output row per point")


def generate_dataset(
    spec: DatasetSpec,
    input_universes: dict[str, Universe],
    output_universe: Universe,
) -> Dataset:
    """Draw seeded uniform crisp points, evaluate the target, fuzzify everything.

    The points are ``eval_points`` of a random ``EvalSpec`` with the spec's
    domains, ``n`` and seed. The drives follow the sections of a block built
    on ``input_universes`` in their order.
    """
    if set(input_universes) != set(spec.domains):
        raise ValueError("input universes must cover exactly the dataset variables")
    points = eval_points(EvalSpec("random", spec.domains, n=spec.n, seed=spec.seed))
    sections = section_layout(list(input_universes.items()))
    targets = _target_values(target_function(spec.target, spec.variables), points, "sample")
    drives = _drive_rows(points, sections, spec.input_sigmas)
    outputs = _bells(np.empty((spec.n, output_universe.count)), targets, spec.output_sigma,
                     output_universe)
    return Dataset(points, targets, drives, outputs, sections, output_universe)


def train_block(block: Block, dataset: Dataset, t0: float) -> Block:
    """One write pulse per sample, in dataset order.

    The dataset's sections (names, order and universes) and output universe
    must be the block's; they are checked once, not per pulse.
    """
    if (dataset.sections, dataset.output_universe) != (block.sections, block.output_universe):
        raise ValueError("the dataset's sections or output universe differ from the block's")
    for drive, output in zip(dataset.drives, dataset.outputs):
        block._write(drive, output, t0)
    return block


# -- evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class EvalSpec:
    kind: str  # "random" | "lattice"
    domains: Mapping[str, tuple[float, float]]
    n: int = 0
    shape: tuple[int, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        _hold_read_only(self, domains=_pairs(self.domains))
        if self.kind == "random":
            _check_draw("random evaluation", self.domains, self.n, self.seed)
        elif self.kind == "lattice":
            _check_domains(self.domains)
            if len(self.shape) != len(self.domains):
                raise ValueError("lattice shape must give one count per variable")
            if not all(isinstance(k, numbers.Integral) and k >= 2 for k in self.shape):
                raise ValueError(f"lattice needs integer counts >= 2 per axis, got {self.shape}")
        else:
            raise ValueError(f"unknown evaluation kind {self.kind!r}")

    from_json = classmethod(jsonio.from_json)
    to_json = jsonio.to_json


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


def _bells(rows: np.ndarray, values: np.ndarray, sigma: float, universe: Universe) -> np.ndarray:
    """Fill row k of ``rows`` with ``fuzzify_gaussian(values[k], sigma, universe)``'s grades."""
    for row, x in zip(rows, values.tolist()):
        row[:] = fuzzify_gaussian(x, sigma, universe).grades
    return rows


def _drive_rows(points: np.ndarray, sections: list[Section],
                sigmas: dict[str, float]) -> np.ndarray:
    """A point set's column drives: one row per point, with one bell per section."""
    drives = np.empty((len(points), sections[-1].stop))
    for sec in sections:
        _bells(drives[:, sec.start : sec.stop], points[sec.name], sigmas[sec.name], sec.universe)
    return drives


def _target_values(target_fn, points: np.ndarray, where: str = "probe") -> np.ndarray:
    """``target_fn`` at every point of a point set, with the point's values as keyword arguments.

    A named target takes the set's columns in one call. Any other callable
    takes one point's values at a time, as Python floats: an expression may
    branch on them or divide by zero, which an array would turn into a
    ``ValueError`` or an inf. Every value must be a finite real number (a
    string is refused, not parsed; a bool counts as 0 or 1): the first point
    whose value is not, or where the expression raises
    ``ArithmeticError``, ``TypeError`` or ``ValueError``, raises one
    ``ValueError`` naming the target (``target_fn.__name__``), the point
    (``where`` and its index) and the point's inputs.
    """
    names = points.dtype.names
    raised = {}  # the point where an expression raised, and what it raised
    if target_fn in NAMED_TARGETS.values():
        values = target_fn(**{name: points[name] for name in names})
    else:
        values = np.full(len(points), np.nan)
        try:
            for k, pt in enumerate(points.tolist()):
                value = target_fn(**dict(zip(names, pt)))
                if isinstance(value, (str, bytes)):  # float() would parse it
                    raise TypeError(f"a target value must be a number, got {value!r}")
                values[k] = float(value)
        except (ArithmeticError, TypeError, ValueError) as exc:  # no later point is evaluated
            raised[k] = exc
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.argmin(finite))  # the first point that is not finite
        inputs = dict(zip(names, points[k].tolist()))
        raise ValueError(f"target {target_fn.__name__!r} is not finite at {where} {k} "
                         f"with inputs {inputs}: {raised.get(k, values[k])}")
    return values


def evaluate_mse(
    model: Pipeline,
    target_fn,
    points: np.ndarray,
    input_sigmas: dict[str, float],
) -> tuple[float, list[float], list[int]]:
    """Probe the trained model on crisp points against the target function.

    ``points`` is a probe set from ``eval_points``. Each point is fuzzified,
    run through the model, and centroid-defuzzified. The targets are
    computed once for the whole set, before the model is read: a named
    target from ``target_function`` is called once with the set's columns as
    keyword arrays, any other ``target_fn`` once per point with the point's
    values as scalar keyword arguments, and both give the same values. A
    target that is not finite at a probe raises ``ValueError``
    (``_target_values``). An output with no signal (untrained region) is
    scored against the output-domain midpoint and flagged rather than
    skipped, so abstention cannot lower the error. Returns the MSE, the
    per-point squared errors and the flagged point indices.
    """
    targets = _target_values(target_fn, points)
    out_u = model.output_universe
    midpoint = 0.5 * (out_u.lo + out_u.hi)
    per_point = np.empty(len(points))
    flagged = []
    for start in range(0, len(points), _CHUNK):
        span = slice(start, start + _CHUNK)
        rows, died = pipeline_rows(model, _drive_rows(points[span], model.sections, input_sigmas))
        live = died == len(model.blocks)
        prediction = np.full(len(live), midpoint)
        prediction[live] = centroid_rows(out_u, rows[live])
        per_point[span] = (prediction - targets[span]) ** 2
        flagged += (start + np.flatnonzero(~live)).tolist()
    return float(np.mean(per_point)), per_point.tolist(), flagged


# -- configuration -----------------------------------------------------------


def auto_t0(params: MemristorParams, n: int) -> float:
    """Pulse duration keeping worst-case stored value at MAX_DELTA_FRACTION of r_off.

    Worst case: all n pulses land on one cell at the maximum summed grade of
    2, which moves flux ``(2 - v_th) * t0`` per pulse; a longer pulse breaks
    the write budget. A ``v_th`` that no such drive exceeds, and an ``n`` that
    a dataset could not have (``_check_count``), raise ``ValueError``.
    """
    if not params.v_th < 2.0:
        raise ValueError(
            f"v_th={params.v_th} V is at or above the largest drive of 2 V: no pulse can write"
        )
    _check_count("auto_t0", n)
    budget = params.r_off**2 * (1.0 - (1.0 - MAX_DELTA_FRACTION) ** 2)
    return budget / ((2.0 - params.v_th) * n * beta(params))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's set-up, checked when it is built.

    A config that exists is valid: its variables agree, every target it
    names (the dataset's, each chained stage's and the evaluation's) resolves
    through ``target_function``, a chain of stages can regrid each output
    onto the next input, the fault draw is one ``inject_faults`` takes, and
    its pulse duration keeps the worst-case stored value within the write
    budget. It is frozen all the way down: it
    and its specs hold their mappings as read-only copies, domains as
    ``(lo, hi)`` tuples. ``dataclasses.replace`` derives a new one, which is
    checked again.
    """

    name: str
    device: MemristorParams
    dataset: DatasetSpec
    input_universes: Mapping[str, Universe]
    output_universe: Universe
    eval: EvalSpec
    t0: float | None = None  # None: auto-scaled from the sample count
    read_mode: str = "exact"
    pipeline_targets: tuple[str, ...] | None = None  # one target per chained stage
    fault_fraction: float = 0.0
    fault_seed: int = 0
    eval_target: str | None = None  # defaults to the dataset target
    output_dir: str = "results"

    def __post_init__(self) -> None:
        _hold_read_only(self, input_universes=dict(self.input_universes.items()))
        variables = self.dataset.variables
        if not set(self.input_universes) == set(self.eval.domains) == set(variables):
            raise ValueError("input universes and eval domains must name the dataset variables")
        if self.pipeline_targets and len(variables) != 1:
            raise ValueError("chained experiments need a single input variable")
        if len(self.pipeline_targets or ()) > 1:  # each stage's output feeds the next's input
            check_overlap(self.output_universe, self.input_universes[variables[0]])
        eval_target = self.dataset.target if self.eval_target is None else self.eval_target
        for target in (self.dataset.target, *(self.pipeline_targets or ()), eval_target):
            target_function(target, variables)
        check_read_mode(self.read_mode)
        check_faults(self.fault_fraction, self.fault_seed)
        longest = auto_t0(self.device, self.dataset.n)  # refuses a device no pulse can write
        t0 = self.resolved_t0()
        check_pulse(t0)
        if t0 > longest * (1.0 + 1e-9):
            raise ValueError(
                f"t0={t0:g} violates the write budget: past {longest:g} s the worst-case "
                f"stored value exceeds {MAX_DELTA_FRACTION:.0e} of r_off"
            )

    def resolved_t0(self) -> float:
        return self.t0 if self.t0 is not None else auto_t0(self.device, self.dataset.n)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """Read by ``jsonio``, the fault fields from ``"fault"``; ``resolved_t0``
        (which ``to_json`` writes) and a legacy ``r_c`` are read past."""
        obj = jsonio.from_json(dict, obj)  # a JSON object, or refused
        fault = jsonio.from_json(_Fault, obj.get("fault", {}), "fault")
        rest = {k: v for k, v in obj.items() if k not in ("fault", "resolved_t0", "r_c")}
        return jsonio.from_json(cls, rest, fault_fraction=fault.fraction, fault_seed=fault.seed)

    def to_json(self) -> dict:
        """``jsonio``'s layout with the fault fields nested as ``"fault"`` and
        ``resolved_t0`` after ``t0``."""
        obj = {}
        for key, value in jsonio.to_json(self).items():
            if key == "fault_fraction":
                key, value = "fault", jsonio.to_json(_Fault(value, self.fault_seed))
            if key != "fault_seed":
                obj[key] = value
            if key == "t0":
                obj["resolved_t0"] = self.resolved_t0()
        return obj


@dataclass(frozen=True)
class _Fault:
    """The ``"fault"`` object of a config's JSON."""

    fraction: float = 0.0
    seed: int = 0


@dataclass
class ExperimentResult:
    """One run's outcome; its fields in ``result.json``'s order (``jsonio``)."""

    mse: float
    baseline_mse: float  # the probe targets' variance: the MSE of predicting their mean
    skill: float | None  # 1 - mse / baseline_mse; None for a constant target
    n_train: int
    saturation_count: int
    config: dict
    runtime_s: float
    phase_s: dict[str, float]
    name: str
    per_point_errors: list[float]
    flagged_points: list[int]
    surface_paths: list[str] = field(metadata={"json": "surfaces"})
    model_path: str | None = field(metadata={"json": "model"})

    to_json = jsonio.to_json


def default_config(name: str, output_dir: str | None = None) -> ExperimentConfig:
    """Built-in configuration for one of the named experiments."""
    params = DEFAULT_PARAMS
    out = output_dir or f"results/{name}"
    if name in ("exp-f1", "exp-f2", "exp-compose"):
        cfg = ExperimentConfig(
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
        if name == "exp-compose":  # the f2 block chained into an f1 block
            cfg = replace(cfg, pipeline_targets=("f2", "f1"), eval_target="identity",
                          eval=EvalSpec(kind="random", domains={"x": (0.05, 0.95)}, n=100,
                                        seed=307))
        return cfg
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
            cfg = replace(cfg, fault_fraction=0.5, fault_seed=503)
        return cfg
    raise ValueError(f"unknown experiment {name!r}; choose from {EXPERIMENT_NAMES}")


def merge_json(base, override):
    """Recursive merge of JSON objects used for config overrides; an override
    that is not an object replaces ``base``."""
    if not (isinstance(base, dict) and isinstance(override, dict)):
        return override
    return {**base, **{key: merge_json(base.get(key), value) for key, value in override.items()}}


@contextmanager
def _timed(phase_s: dict[str, float], phase: str):
    """Add the seconds the ``with`` body takes to ``phase_s[phase]``."""
    start = time.perf_counter()
    yield
    phase_s[phase] += time.perf_counter() - start


def _build_and_train(cfg: ExperimentConfig, phase_s: dict[str, float]) -> Pipeline:
    """Train one block per stage; stage i shifts the dataset and fault seeds by i."""
    t0 = cfg.resolved_t0()
    inputs = list(cfg.input_universes.items())
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
    return Pipeline(blocks)


def _export_surfaces(model: Pipeline, out_dir: Path, r_off: float) -> list[str]:
    """One surface CSV per stage: ``surface.csv`` for a one-stage model, else
    ``surface_stage{i}.csv``; a multi-input stage adds one file per section."""
    paths = []
    for i, blk in enumerate(model.blocks):
        stem = "surface" if len(model.blocks) == 1 else f"surface_stage{i}"
        sections = {}
        if len(blk.sections) > 1:  # one more file per section: its columns of the stage
            sections = {out_dir / f"{stem}_{sec.name}.csv": (sec.start, sec.stop)
                        for sec in blk.sections}
        p = out_dir / f"{stem}.csv"
        save_delta_csv(p, blk.snapshot_delta(), r_off, sections)
        paths += [str(p), *map(str, sections)]
    return paths


def _write_model_beside(path: Path, model: Pipeline):
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
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # a path that cannot be one fails before training
    phase_s = dict.fromkeys(("dataset", "train", "eval", "persist"), 0.0)
    started = time.perf_counter()
    model = _build_and_train(cfg, phase_s)
    with _timed(phase_s, "eval"):
        eval_target = cfg.eval_target or cfg.dataset.target
        fn = target_function(eval_target, tuple(cfg.eval.domains))
        points = eval_points(cfg.eval)
        mse, per_point, flagged = evaluate_mse(model, fn, points, cfg.dataset.input_sigmas)
        baseline = float(np.var(_target_values(fn, points)))
    if len(flagged) == len(points):
        raise EmptyOutputError(f"{cfg.name}: evaluation read no stored signal at any probe")
    runtime = time.perf_counter() - started

    with _timed(phase_s, "persist"):
        model_path = out_dir / "model.json"
        join = _write_model_beside(model_path, model)
        try:
            surface_paths = _export_surfaces(model, out_dir, cfg.device.r_off)
        finally:
            join()
    result = ExperimentResult(
        name=cfg.name,
        mse=mse,
        baseline_mse=baseline,
        skill=1.0 - mse / baseline if baseline > 0 else None,
        n_train=cfg.dataset.n * len(model.blocks),
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
