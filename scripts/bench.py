#!/usr/bin/env python3
"""Time the crossbar, fuzzy, dataset, evaluation and persistence layers; write the medians to JSON.

    python3 scripts/bench.py --out BENCH_16.json
    python3 scripts/bench.py --tiny --out /tmp/bench.json   # seconds-long smoke run

Layers timed, each over the size's repeats (median and interquartile range
per call, in seconds):

- ``read_exact`` / ``read_ideal`` at 100x180 (the exp-2input array) and at
  500x500, as the *first* read after the stored state changed (which builds
  that mode's read matrix; ``inject_faults(0.0, 0)`` installs an equal new
  state before each such read, outside the timed region) and as a *warm*
  read (a matrix-vector product only). The gap between the two is what
  keeping the matrix saves per read.
- ``fuzzify_gaussian`` and ``defuzzify_centroid``, one call each, on grids
  of 100 and 500 points; ``fuzzify_gaussian`` both on values that never
  repeat and (``.repeat``) on 100 values cycled as a lattice axis is.
- ``evaluate_mse`` on the exp-2input model (one stage) over a 100x100 probe
  lattice, in both read modes, and on the two-stage exp-compose pipeline
  over 2 000 random probes (per pass, with the probe count). Both read
  through ``pipeline_rows``.
- ``write_pulse`` at 100x180 and 500x500 on the threshold-free device
  (``v_th0``, where writes are deferred) and on the 1 V device (``v_th1``,
  where every write rewrites the array); a whole training run of N Gaussian
  pulse pairs (N = 800 and 1 000, auto ``t0``) including the settle that
  the first observation of the array pays; and that settle alone.
- ``generate_dataset`` on the exp-f1 spec (500 samples, one input) and the
  exp-2input spec (800 samples, two inputs); and ``train_block`` of each
  such dataset onto a pristine crossbar block, and of the train-scaled
  run's dataset (500x500, N = 1 000) onto a hardware-relation block, as
  that workload's second half does (each block is built outside the timed
  region), including the settle that the first observation of the array
  pays.
- Persistence at 100x180 and 500x500: ``save_delta_csv`` of one surface,
  ``json.dumps(model_to_json(model))`` of a one-stage crossbar model holding
  it (``model_json``) and ``model_from_json`` of that JSON, parsed
  (``model_from_json``); and
  the ``persist`` phase, from ``phase_s``, of an exp-2input
  ``run_experiment`` (``surface.csv``, its two section files and
  ``model.json``) and of the benchmark's train-scaled run (one 500x500
  single-input block, N = 1 000). ``model.json`` is written by a forked
  child where ``os.fork`` exists, so each ``persist`` entry also gives the
  peak RSS of this process and of its largest child so far
  (``RUSAGE_CHILDREN``), in MB: memory that moved out of the measured
  process is stated, not hidden.
- JSON reads: ``ExperimentConfig.from_json`` of the exp-2input config's
  ``to_json()`` (``config_json.exp-2input``) and ``model_from_json`` of the
  trained exp-2input model's JSON (``config_json.model.exp-2input``), per
  call: what the strict codec (``crossfuzzy.jsonio``) costs where files are
  read.

The record also holds the git commit (``-dirty`` if the tree has
uncommitted changes), the numpy and Python versions and the core count.
``--tiny`` shrinks every size; its numbers are not for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
try:
    import crossfuzzy as cf
except ImportError:
    sys.path.insert(0, str(ROOT / "src"))
    import crossfuzzy as cf

SIZES = {
    "full": {
        "arrays": [(100, 180), (500, 500)], "calls": 200, "repeats": 15,
        "lattice": 100, "pipe_probes": 2000, "n_train": None, "evaluate_repeats": 5,
        "trainings": [(100, 180, 800), (500, 500, 1000)], "train_repeats": 5,
        "scaled": (500, 1000, 200),
    },
    "tiny": {
        "arrays": [(8, 12), (16, 16)], "calls": 10, "repeats": 3,
        "lattice": 4, "pipe_probes": 20, "n_train": 40, "evaluate_repeats": 3,
        "trainings": [(8, 12, 40), (16, 16, 50)], "train_repeats": 3,
        "scaled": (16, 20, 10),
    },
}
V_TH = (0.0, 1.0)


def _stats(samples: list[float]) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q3 - q1), "repeats": len(samples)}


def time_reads(rows: int, cols: int, calls: int, repeats: int, rng) -> dict:
    """Per-call time of one read in each mode, first and warm."""
    xb = cf.Crossbar.from_delta(rng.uniform(0.0, 100.0, (rows, cols)), cf.DEFAULT_PARAMS)
    x = rng.uniform(0.0, 1.0, cols)
    out = {}
    for mode in ("exact", "ideal"):
        read = getattr(xb, f"read_{mode}")
        first, warm = [], []
        for _ in range(repeats):
            spent = 0.0
            for _ in range(calls):
                # An equal new stored state, untimed: the read matrices are dropped.
                xb.inject_faults(0.0, 0)
                start = time.perf_counter()
                read(x)
                spent += time.perf_counter() - start
            first.append(spent / calls)
            start = time.perf_counter()
            for _ in range(calls):
                read(x)
            warm.append((time.perf_counter() - start) / calls)
        out[f"read_{mode}.first.{rows}x{cols}"] = _stats(first)
        out[f"read_{mode}.warm.{rows}x{cols}"] = _stats(warm)
    return out


def _bells(n: int, count: int, rng) -> np.ndarray:
    """``n`` Gaussian grade vectors (sigma 0.05) on a ``count``-point grid over [0, 1]."""
    grid = np.linspace(0.0, 1.0, count)
    centres = rng.uniform(0.0, 1.0, (n, 1))
    return np.exp(-0.5 * ((grid - centres) / 0.05) ** 2)


def time_writes(rows: int, cols: int, n: int, calls: int, repeats: int,
                train_repeats: int, rng) -> dict:
    """One write, a whole training run with its settle, and the settle alone."""
    col_grades, row_grades = _bells(n, cols, rng), _bells(n, rows, rng)
    out = {}
    for v_th in V_TH:
        params = replace(cf.DEFAULT_PARAMS, v_th=v_th)
        t0 = cf.auto_t0(params, n)
        tag = f"v_th{v_th:g}.{rows}x{cols}"
        one = []
        for _ in range(repeats):
            xb = cf.Crossbar(rows, cols, params)
            start = time.perf_counter()
            for k in range(calls):
                xb.write_pulse(col_grades[k % n], row_grades[k % n], t0)
            one.append((time.perf_counter() - start) / calls)
        train, settle = [], []
        for _ in range(train_repeats):
            xb = cf.Crossbar(rows, cols, params)
            start = time.perf_counter()
            for col, row in zip(col_grades, row_grades):
                xb.write_pulse(col, row, t0)
            written = time.perf_counter()
            xb.memristance  # the first observation settles deferred writes
            end = time.perf_counter()
            train.append(end - start)
            settle.append(end - written)
        out[f"write_pulse.{tag}"] = _stats(one)
        out[f"train.{tag}.n{n}"] = dict(_stats(train), pulses=n)
        out[f"settle.{tag}.n{n}"] = dict(_stats(settle), pulses=n)
    return out


def time_fuzzy(counts: list[int], calls: int, repeats: int, rng) -> dict:
    """Per-call time of one ``fuzzify_gaussian`` and one ``defuzzify_centroid``.

    ``fuzzify_gaussian.{count}`` draws new crisp values at every repeat, so
    none repeats; ``.repeat`` cycles 100 values, as a probe lattice's axis
    does, after one untimed pass that fills the bell cache.
    """
    out = {}
    axis = np.linspace(0.0, 1.0, 100).tolist()
    cycled = (axis * (calls // len(axis) + 1))[:calls]
    for count in counts:
        u = cf.Universe(0.0, 1.0, count)
        fuzzify, defuzzify = [], []
        for _ in range(repeats):
            xs = rng.uniform(0.0, 1.0, calls).tolist()
            start = time.perf_counter()
            numbers = [cf.fuzzify_gaussian(x, 0.05, u) for x in xs]
            fuzzify.append((time.perf_counter() - start) / calls)
            start = time.perf_counter()
            for fn in numbers:
                cf.defuzzify_centroid(fn)
            defuzzify.append((time.perf_counter() - start) / calls)
        repeat = []
        for timed in [False] + [True] * repeats:
            start = time.perf_counter()
            for x in cycled:
                cf.fuzzify_gaussian(x, 0.05, u)
            if timed:
                repeat.append((time.perf_counter() - start) / calls)
        out[f"fuzzify_gaussian.{count}"] = _stats(fuzzify)
        out[f"fuzzify_gaussian.{count}.repeat"] = _stats(repeat)
        out[f"defuzzify_centroid.{count}"] = _stats(defuzzify)
    return out


def time_dataset(n_train: int | None, repeats: int) -> dict:
    """Per-call time of ``generate_dataset`` on the exp-f1 and exp-2input specs."""
    out = {}
    for name in ("exp-f1", "exp-2input"):
        cfg = cf.default_config(name)
        spec = cfg.dataset if n_train is None else replace(cfg.dataset, n=n_train)
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            cf.generate_dataset(spec, cfg.input_universes, cfg.output_universe)
            samples.append(time.perf_counter() - start)
        out[f"generate_dataset.{name}.n{spec.n}"] = dict(_stats(samples), samples=spec.n)
    return out


def time_train_block(n_train: int | None, scaled: tuple[int, int, int], repeats: int) -> dict:
    """Per-call time of ``train_block`` from a generated exp-f1 and exp-2input dataset,
    and of the train-scaled run's dataset onto a hardware-relation block."""
    out = {}
    for name in ("exp-f1", "exp-2input"):
        cfg = cf.default_config(name)
        spec = cfg.dataset if n_train is None else replace(cfg.dataset, n=n_train)
        dataset = cf.generate_dataset(spec, cfg.input_universes, cfg.output_universe)
        t0 = cf.auto_t0(cfg.device, spec.n)
        samples = []
        for _ in range(repeats):
            block = cf.Block.pristine(list(cfg.input_universes.items()), cfg.output_universe,
                                      cfg.device)
            start = time.perf_counter()
            cf.train_block(block, dataset, t0)
            block.backend.memristance  # the first observation settles deferred writes
            samples.append(time.perf_counter() - start)
        out[f"train_block.{name}.n{spec.n}"] = dict(_stats(samples), samples=spec.n)
    cfg = _train_scaled_config(*scaled)
    (var, u), = cfg.input_universes.items()
    dataset = cf.generate_dataset(cfg.dataset, cfg.input_universes, cfg.output_universe)
    samples = []
    for _ in range(repeats):
        # Built as the benchmark's train-scaled workload builds it.
        block = cf.Block(cf.Relation(u, cfg.output_universe, mode="hardware"), [(var, u)],
                         cfg.output_universe, device_params=cfg.device)
        start = time.perf_counter()
        cf.train_block(block, dataset, cfg.resolved_t0())
        block.backend.mu  # the first observation settles deferred writes
        samples.append(time.perf_counter() - start)
    grid, n = scaled[0], cfg.dataset.n
    out[f"train_block.relation-hardware.{grid}x{grid}.n{n}"] = dict(_stats(samples), samples=n)
    return out


def time_persist(rows: int, cols: int, repeats: int, rng) -> dict:
    """Per-call time of writing one surface CSV, of serializing a one-stage model
    holding it and of reading that model back from its parsed JSON."""
    delta = rng.uniform(0.0, 100.0, (rows, cols))
    xb = cf.Crossbar.from_delta(delta, cf.DEFAULT_PARAMS)
    one_stage = cf.Pipeline([cf.Block(xb, [("x", cf.Universe(0.0, 1.0, cols))],
                                      cf.Universe(0.0, 1.0, rows))])
    obj = json.loads(json.dumps(cf.model_to_json(one_stage)))
    csv, model, back = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "surface.csv"
        for _ in range(repeats):
            start = time.perf_counter()
            cf.save_delta_csv(path, delta, cf.DEFAULT_PARAMS.r_off)
            csv.append(time.perf_counter() - start)
            start = time.perf_counter()
            json.dumps(cf.model_to_json(one_stage))
            model.append(time.perf_counter() - start)
            start = time.perf_counter()
            cf.model_from_json(obj)
            back.append(time.perf_counter() - start)
    return {f"save_delta_csv.{rows}x{cols}": _stats(csv),
            f"model_json.{rows}x{cols}": _stats(model),
            f"model_from_json.{rows}x{cols}": _stats(back)}


def _train_scaled_config(grid: int, n: int, probes: int) -> cf.ExperimentConfig:
    """The benchmark's train-scaled run at seed 0: one single-input block on a grid x grid array."""
    u = cf.Universe(0.0, 1.0, grid)
    return cf.ExperimentConfig(
        name="train-scaled",
        device=cf.DEFAULT_PARAMS,
        dataset=cf.DatasetSpec(target="f1", domains={"x": (0.0, 1.0)}, n=n,
                               input_sigmas={"x": 0.05}, output_sigma=0.05, seed=101),
        input_universes={"x": u},
        output_universe=u,
        eval=cf.EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=probes, seed=211),
    )


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def time_run_persist(n_train: int | None, scaled: tuple[int, int, int], repeats: int) -> dict:
    """The ``persist`` phase of an exp-2input run and of the train-scaled run, with peak RSS."""
    paper = cf.default_config("exp-2input")
    if n_train is not None:
        paper = replace(paper, dataset=replace(paper.dataset, n=n_train))
    runs = {"exp-2input": paper,
            f"train-scaled.{scaled[0]}x{scaled[0]}": _train_scaled_config(*scaled)}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tag, cfg in runs.items():
            cfg = replace(cfg, output_dir=str(Path(tmp) / tag))
            samples = [cf.run_experiment(cfg.name, cfg).phase_s["persist"]
                       for _ in range(repeats)]
            out[f"persist.{tag}"] = dict(
                _stats(samples),
                parent_maxrss_mb=_maxrss_mb(resource.RUSAGE_SELF),
                child_maxrss_mb=_maxrss_mb(resource.RUSAGE_CHILDREN),
            )
    return out


def _trained(name: str, n_train: int | None):
    """A named experiment's config and its model, trained as ``run_experiment`` trains it."""
    cfg = cf.default_config(name)
    if n_train is not None:
        cfg = replace(cfg, dataset=replace(cfg.dataset, n=n_train))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = replace(cfg, output_dir=tmp)
        result = cf.run_experiment(name, cfg)
        return cfg, cf.model_from_json(json.loads(Path(result.model_path).read_text()))


def _time_passes(model, target: str, spec, sigmas: dict, repeats: int) -> dict:
    """Per-pass time of ``evaluate_mse`` over the probe set of ``spec``."""
    points = cf.eval_points(spec)
    fn = cf.target_function(target, tuple(spec.domains))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        cf.evaluate_mse(model, fn, points, sigmas)
        samples.append(time.perf_counter() - start)
    return dict(_stats(samples), probes=len(points))


def time_evaluate(lattice: int, pipe_probes: int, n_train: int | None, repeats: int) -> dict:
    """Per-pass time of ``evaluate_mse`` on the exp-2input block and the exp-compose pipeline."""
    cfg, model = _trained("exp-2input", n_train)
    inputs = [(sec.name, sec.universe) for sec in model.sections]
    lattice_spec = cf.EvalSpec(kind="lattice", domains=cfg.eval.domains,
                               shape=(lattice, lattice))
    out = {}
    for mode in ("exact", "ideal"):
        # One one-stage model per read mode over the one trained crossbar.
        reader = cf.Pipeline([cf.Block(model.blocks[0].backend, inputs, cfg.output_universe,
                                       read_mode=mode)])
        out[f"evaluate_mse.{mode}.lattice{lattice}x{lattice}"] = _time_passes(
            reader, cfg.dataset.target, lattice_spec, cfg.dataset.input_sigmas, repeats)
    cfg, pipe = _trained("exp-compose", n_train)
    scatter = cf.EvalSpec(kind="random", domains=cfg.eval.domains, n=pipe_probes,
                          seed=cfg.eval.seed)
    out[f"evaluate_mse.pipeline.random{pipe_probes}"] = _time_passes(
        pipe, cfg.eval_target, scatter, cfg.dataset.input_sigmas, repeats)
    return out


def time_config_json(n_train: int | None, calls: int, repeats: int) -> dict:
    """Per-call time of reading the exp-2input config and its trained model from JSON."""
    blob = cf.default_config("exp-2input").to_json()
    obj = cf.model_to_json(_trained("exp-2input", n_train)[1])
    out = {}
    for tag, read, count in (
            ("config_json.exp-2input", lambda: cf.ExperimentConfig.from_json(blob), calls),
            ("config_json.model.exp-2input", lambda: cf.model_from_json(obj), calls // 10)):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(count):
                read()
            samples.append((time.perf_counter() - start) / count)
        out[tag] = _stats(samples)
    return out


def _git_sha() -> str | None:
    """The checked-out commit; ``-dirty`` marks uncommitted changes."""
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--tiny", action="store_true", help="smoke run: tiny sizes")
    args = parser.parse_args(argv)
    size = SIZES["tiny" if args.tiny else "full"]
    rng = np.random.default_rng(0)

    layers = {}
    for rows, cols in size["arrays"]:
        layers.update(time_reads(rows, cols, size["calls"], size["repeats"], rng))
    for rows, cols, n in size["trainings"]:
        layers.update(time_writes(rows, cols, n, size["calls"], size["repeats"],
                                  size["train_repeats"], rng))
    layers.update(time_fuzzy([rows for rows, _ in size["arrays"]], size["calls"],
                             size["repeats"], rng))
    layers.update(time_evaluate(size["lattice"], size["pipe_probes"], size["n_train"],
                                size["evaluate_repeats"]))
    layers.update(time_dataset(size["n_train"], size["repeats"]))
    layers.update(time_train_block(size["n_train"], size["scaled"], size["repeats"]))
    for rows, cols in size["arrays"]:
        layers.update(time_persist(rows, cols, size["repeats"], rng))
    layers.update(time_run_persist(size["n_train"], size["scaled"], size["evaluate_repeats"]))
    layers.update(time_config_json(size["n_train"], size["calls"], size["repeats"]))
    record = {
        "git_sha": _git_sha(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "size": "tiny" if args.tiny else "full",
        "reads_per_repeat": size["calls"],
        "writes_per_repeat": size["calls"],
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for name, stats in layers.items():
        print(f"{name:<40} {stats['median_s'] * 1e6:12.2f} us  (IQR {stats['iqr_s'] * 1e6:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
