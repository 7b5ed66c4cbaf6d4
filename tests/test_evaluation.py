"""Chunked ``evaluate_mse`` against the per-probe evaluator in ``oracles.py``.

The batched evaluator reads a chunk of probes and then tests signal,
conditions the output of every stage, defuzzifies and scores the whole
chunk as arrays. The oracle walks one probe at a time through the model's
stages, one ``block_infer`` each. Both do the same arithmetic per probe, so
flags must be equal, MSEs equal to 1e-12 relative, and per-point errors
equal to 1 ulp: the oracle squares a Python float, where the batched code
squares an array.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS
from crossfuzzy.fuzzy import FuzzyNumber, Universe, fuzzify_gaussian
from crossfuzzy.harness import (
    _CHUNK,
    EXPERIMENT_NAMES,
    NAMED_TARGETS,
    DatasetSpec,
    EvalSpec,
    auto_t0,
    default_config,
    eval_points,
    evaluate_mse,
    generate_dataset,
    run_experiment,
    _target_values,
    target_function,
    train_block,
)
from crossfuzzy.relation import Relation
from crossfuzzy.system import (
    Block,
    Pipeline,
    model_from_json,
    pipeline_rows,
)
from oracles import per_probe_mse

U = Universe(0.0, 1.0, 100)
SIGMAS = {"x": 0.05}
# On the 1 V device a pulse writes only near its sample, so a block trained
# on part of the domain reads no signal for probes far from it.
LUKASIEWICZ = replace(DEFAULT_PARAMS, v_th=1.0)


def assert_matches_oracle(model, target_fn, points, sigmas):
    mse, per_point, flagged = evaluate_mse(model, target_fn, points, sigmas)
    want_mse, want_points, want_flagged = per_probe_mse(model, target_fn, points, sigmas)
    assert flagged == want_flagged
    assert len(per_point) == len(points)
    np.testing.assert_array_max_ulp(np.array(per_point), np.array(want_points), maxulp=1)
    assert mse == pytest.approx(want_mse, rel=1e-12, abs=0.0)
    return flagged


def trained_block(domain=(0.0, 1.0), target="f1", params=LUKASIEWICZ, backend=None, seed=5):
    """A single-input block on U trained on 200 samples drawn from ``domain``."""
    spec = DatasetSpec(target=target, domains={"x": domain}, n=200, input_sigmas=SIGMAS,
                       output_sigma=0.05, seed=seed)
    if backend is None:
        blk = Block.pristine([("x", U)], U, params)
    else:
        blk = Block(backend, [("x", U)], U, device_params=params)
    train_block(blk, generate_dataset(spec, {"x": U}, U), auto_t0(params, spec.n))
    return blk


def probes(n):
    return eval_points(EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=n, seed=11))


def count_reads(xbar: Crossbar) -> list:
    """Wrap the crossbar's exact read; the returned list grows by one per read."""
    reads, read = [], xbar.read_exact
    xbar.read_exact = lambda x: reads.append(1) or read(x)
    return reads


@pytest.mark.parametrize("v_th", [0.0, 1.0])
@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_named_experiments_match_the_per_probe_oracle(tmp_path, name, v_th):
    cfg = default_config(name, output_dir=str(tmp_path / name))
    cfg = replace(cfg, device=replace(cfg.device, v_th=v_th))
    result = run_experiment(name, cfg)
    model = model_from_json(json.loads(Path(result.model_path).read_text()))
    target = target_function(cfg.eval_target or cfg.dataset.target, tuple(cfg.eval.domains))
    points = eval_points(cfg.eval)
    assert result.flagged_points == assert_matches_oracle(
        model, target, points, cfg.dataset.input_sigmas)
    assert result.per_point_errors == evaluate_mse(
        model, target, points, cfg.dataset.input_sigmas)[1]


def test_branching_expression_target_through_run_experiment(tmp_path):
    """A target that branches on its input takes only scalars; training and
    evaluation call it once per sample and probe."""
    expr = "x if x > 0.5 else 1 - x"
    fn = target_function(expr, ("x",))
    with pytest.raises(ValueError, match="truth value"):
        fn(x=np.array([0.2, 0.7]))
    cfg = default_config("exp-f1", output_dir=str(tmp_path))
    cfg = replace(cfg, device=LUKASIEWICZ, dataset=replace(cfg.dataset, target=expr))
    result = run_experiment("exp-f1", cfg)
    model = model_from_json(json.loads(Path(result.model_path).read_text()))
    want_mse, want_points, want_flagged = per_probe_mse(
        model, fn, eval_points(cfg.eval), cfg.dataset.input_sigmas)
    assert result.flagged_points == want_flagged == []
    np.testing.assert_array_max_ulp(np.array(result.per_point_errors), np.array(want_points),
                                    maxulp=1)
    assert result.mse == pytest.approx(want_mse, rel=1e-12, abs=0.0)
    assert result.mse < 0.01  # the stored surface follows the branching target


def test_both_read_modes_match_the_oracle(tmp_path):
    cfg = default_config("exp-2input", output_dir=str(tmp_path))
    cfg = replace(cfg, dataset=replace(cfg.dataset, n=200))
    blob = json.loads(Path(run_experiment("exp-2input", cfg).model_path).read_text())
    points = eval_points(EvalSpec(kind="lattice", domains=cfg.eval.domains, shape=(23, 29)))
    target = target_function("eq30", ("x", "y"))
    for mode in ("exact", "ideal"):
        model = model_from_json(dict(blob, read_mode=mode))
        assert model.blocks[0].read_mode == mode
        assert_matches_oracle(model, target, points, cfg.dataset.input_sigmas)


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, LUKASIEWICZ], ids=["v_th0", "v_th1"])
def test_relation_backed_block_matches_the_oracle(params, monkeypatch):
    """Evaluation validates no grades: its bells and the relation's reads are
    made by the package and wrapped unchecked."""
    model = Pipeline([trained_block(params=params, backend=Relation(U, U, params=params))])
    target, points = target_function("f1", ("x",)), probes(300)
    want = assert_matches_oracle(model, target, points, SIGMAS)

    def refuse(self):
        raise AssertionError("FuzzyNumber.__post_init__ ran during evaluate_mse")

    monkeypatch.setattr(FuzzyNumber, "__post_init__", refuse)
    assert evaluate_mse(model, target, points, SIGMAS)[2] == want


def test_pristine_block_flags_every_probe():
    model = Pipeline([Block.pristine([("x", U)], U, DEFAULT_PARAMS)])
    flagged = assert_matches_oracle(model, target_function("f1", ("x",)), probes(40), SIGMAS)
    assert flagged == list(range(40))


@pytest.mark.parametrize("second", ["untrained", "far"])
def test_pipeline_probes_die_at_the_stage_the_oracle_names(second):
    """Stage 0 stores only x < 0.3, so probes far above it die there. The
    rest die at an untrained stage 1; at one trained on x > 0.6, only the
    probes whose stage-0 output reaches that far come through."""
    stage1 = (Block.pristine([("x", U)], U, LUKASIEWICZ) if second == "untrained"
              else trained_block(domain=(0.6, 1.0), target="identity", seed=6))
    pipe = Pipeline([trained_block(domain=(0.0, 0.3), target="identity"), stage1])
    points = probes(600)
    flagged = assert_matches_oracle(pipe, target_function("identity", ("x",)), points, SIGMAS)
    drives = np.array([fuzzify_gaussian(x, SIGMAS["x"], U).grades for x in points["x"]])
    reads = count_reads(stage1.backend)
    died = pipeline_rows(pipe, drives)[1]
    assert flagged == np.flatnonzero(died < 2).tolist()
    per_stage = np.bincount(died, minlength=3)
    assert per_stage[0] > 0 and per_stage[1] > 0
    assert (per_stage[2] == 0) == (second == "untrained")
    assert len(reads) == 600 - per_stage[0]  # rows dead at stage 0 are not read again


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_probe_counts_around_the_chunk_size(n):
    model = Pipeline([trained_block(domain=(0.0, 0.3))])  # probes above ~0.7 are flagged
    flagged = assert_matches_oracle(model, target_function("f1", ("x",)), probes(n), SIGMAS)
    if n > 1:
        assert flagged and flagged[-1] >= n // 2  # flags late in the set keep their index


TARGET_DOMAINS = {"f1": {"x": (0.0, 1.0)}, "f2": {"x": (0.0, 1.0)},
                  "identity": {"x": (0.0, 1.0)}, "eq30": {"x": (1.0, 10.0), "y": (1.0, 10.0)}}


@pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 20_000])
@pytest.mark.parametrize("name", sorted(NAMED_TARGETS))
def test_named_target_chunks_equal_per_probe_calls(name, n):
    """A named target called once per chunk on its columns gives, bit for
    bit, what one call per probe with scalars gives. A square written as
    ``** 2`` would not: on an array it is one multiply, on a scalar libm
    ``pow``, about one input in 1 200 apart, which 20 000 probes catch."""
    domains = TARGET_DOMAINS[name]
    points = eval_points(EvalSpec(kind="random", domains=domains, n=n, seed=13))
    fn = target_function(name, tuple(domains))
    chunks = [_target_values(fn, points[s : s + _CHUNK]) for s in range(0, n, _CHUNK)]
    per_probe = [float(fn(**dict(zip(domains, pt)))) for pt in points.tolist()]
    assert np.concatenate(chunks).tobytes() == np.array(per_probe).tobytes()


def test_expression_targets_are_called_per_probe_with_scalars():
    """Scalars keep a branching expression valid and Python's division by
    zero an error, where an array would give a ``ValueError`` and an inf;
    the error is refused as the target rule's ``ValueError``."""
    points = eval_points(EvalSpec(kind="lattice", domains={"x": (0.0, 1.0)}, shape=(5,)))
    branching = target_function("x if x > 0.5 else 1 - x", ("x",))
    assert _target_values(branching, points).tolist() == [1.0, 0.75, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError, match=r"^target '1 / x' is not finite at probe 0 .*division"):
        _target_values(target_function("1 / x", ("x",)), points)
    # a comparison gives numpy bools, which are 0 and 1; a string is refused, not parsed
    compare = target_function("sin(x) > 0.5", ("x",))
    assert _target_values(compare, points).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match=r"^target '\"0.25\"' is not finite at probe 0 .*"
                                         r"must be a number, got '0.25'$"):
        _target_values(target_function('"0.25"', ("x",)), points)


def test_sign_cancelling_output_raises():
    row = np.zeros(U.count)
    row[[10, 20]] = [1.0, -1.0]

    class Cancelling(Crossbar):
        """A crossbar whose every read-out sums to zero."""

        def read_exact(self, x):
            return row.copy()

    model = Pipeline([Block(Cancelling(U.count, U.count, DEFAULT_PARAMS), [("x", U)], U)])
    for evaluate in (evaluate_mse, per_probe_mse):
        with pytest.raises(ValueError, match="sum to zero"):
            evaluate(model, target_function("f1", ("x",)), probes(5), SIGMAS)


def test_crossbar_block_reads_each_probe_once():
    xbar = Crossbar.from_delta(np.eye(100) * 50.0, DEFAULT_PARAMS)
    reads = count_reads(xbar)
    model = Pipeline([Block(xbar, [("x", U)], U)])
    evaluate_mse(model, target_function("identity", ("x",)), probes(_CHUNK + 3), SIGMAS)
    assert len(reads) == _CHUNK + 3


def test_a_read_with_no_positive_grade_is_flagged():
    """A stage read that carries signal but has no positive grade after the
    stage's sign is an untrained region, flagged and scored at the midpoint."""

    class Upside(Crossbar):
        """A crossbar whose reads of drives peaking in the upper half come out un-inverted."""

        def read_ideal(self, x):
            read = super().read_ideal(x)
            return -read if x.argmax() >= len(x) // 2 else read

    upside = Upside.from_delta(np.eye(100) * 50.0, DEFAULT_PARAMS)
    model = Pipeline([Block(upside, [("x", U)], U, read_mode="ideal")])
    points = probes(200)
    flagged = assert_matches_oracle(model, target_function("identity", ("x",)), points, SIGMAS)
    upper = np.flatnonzero(np.array([fuzzify_gaussian(x, SIGMAS["x"], U).grades.argmax()
                                     for x in points["x"]]) >= 50).tolist()
    assert flagged == upper and 0 < len(upper) < 200
