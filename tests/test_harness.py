import hashlib
import itertools
import json
import math
import os
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from crossfuzzy import harness
from crossfuzzy.crossbar import Crossbar, load_delta_csv
from crossfuzzy.device import DEFAULT_PARAMS, beta
from crossfuzzy.fuzzy import Universe, fuzzify_gaussian
from crossfuzzy.harness import (
    EXPERIMENT_NAMES,
    Dataset,
    DatasetSpec,
    EvalSpec,
    ExperimentConfig,
    auto_t0,
    default_config,
    eval_points,
    evaluate_mse,
    generate_dataset,
    merge_json,
    run_experiment,
    target_function,
    train_block,
)
from crossfuzzy.relation import Relation
from crossfuzzy.system import (Block, Pipeline, Section, block_infer, model_from_json,
                               model_to_json, section_layout)
from oracles import per_sample_training


def small_spec(**overrides) -> DatasetSpec:
    base = dict(
        target="f1",
        domains={"x": (0.0, 1.0)},
        n=12,
        input_sigmas={"x": 0.05},
        output_sigma=0.05,
        seed=42,
    )
    base.update(overrides)
    return DatasetSpec(**base)


def small_universes():
    return {"x": Universe(0.0, 1.0, 20)}, Universe(0.0, 1.0, 20)


def test_named_targets():
    assert target_function("f1", ("x",))(x=0.5) == 0.25
    assert target_function("f2", ("x",))(x=0.25) == 0.5
    assert target_function("identity", ("x",))(x=0.73) == 0.73
    z = target_function("eq30", ("x", "y"))(x=math.pi, y=math.pi)
    assert abs(z) < 1e-12  # sin(pi) vanishes in both terms


def test_custom_expression_target():
    fn = target_function("0.5 * x + sin(y)", ("x", "y"))
    assert fn(x=2.0, y=0.0) == 1.0
    with pytest.raises(ValueError):
        target_function("__import__('os')", ("x",))
    with pytest.raises(ValueError):
        target_function("unknown_fn(x)", ("x",))


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        small_spec(n=0)
    with pytest.raises(ValueError):
        small_spec(domains={"x": (1.0, 0.0)})
    with pytest.raises(ValueError):
        small_spec(input_sigmas={"y": 0.05})
    with pytest.raises(ValueError):
        small_spec(output_sigma=0.0)


NAN = float("nan")
U3 = Universe(0.0, 1.0, 3)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: Relation(U3, U3, mu=np.full((3, 3), NAN)), "mu"),
        (lambda: Relation(U3, U3, mu=np.full((3, 3), math.inf)), "mu"),
        (lambda: small_spec(input_sigmas={"x": NAN}), "sigma"),
        (lambda: small_spec(output_sigma=NAN), "sigma"),
        (lambda: small_spec(output_sigma=math.inf), "sigma"),
        (lambda: fuzzify_gaussian(0.5, NAN, U3), "sigma"),
        (lambda: fuzzify_gaussian(0.5, math.inf, U3), "sigma"),
    ],
    ids=[
        "nan-relation-mu",
        "inf-relation-mu",
        "nan-input-sigma",
        "nan-output-sigma",
        "inf-output-sigma",
        "nan-fuzzify-sigma",
        "inf-fuzzify-sigma",
    ],
)
def test_non_finite_values_are_rejected_where_they_enter(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_generate_dataset_shapes_and_targets():
    universes, out_u = small_universes()
    dataset = generate_dataset(small_spec(), universes, out_u)
    assert len(dataset.points) == len(dataset.targets) == 12
    assert dataset.drives.shape == dataset.outputs.shape == (12, 20)
    xs = dataset.points["x"].tolist()
    assert all(0.0 <= x <= 1.0 for x in xs)
    assert dataset.targets.tolist() == [x ** 2 for x in xs]
    assert dataset.sections == [Section("x", universes["x"], 0, 20)]
    assert dataset.output_universe == out_u
    assert dataset.outputs.max() <= 1.0


def test_generate_dataset_deterministic():
    universes, out_u = small_universes()
    a = generate_dataset(small_spec(), universes, out_u)
    b = generate_dataset(small_spec(), universes, out_u)
    assert a.points.tolist() == b.points.tolist()
    assert np.array_equal(a.outputs, b.outputs)
    c = generate_dataset(small_spec(seed=43), universes, out_u)
    assert a.points.tolist() != c.points.tolist()


def test_generate_dataset_names_a_target_that_is_not_finite():
    universes, out_u = small_universes()
    with np.errstate(invalid="ignore"):  # numpy's sqrt of a negative gives nan
        with pytest.raises(ValueError, match=r"target 'sqrt\(x - 2\)' is not finite "
                                             r"at sample 0 with inputs \{'x': 0\.\d+\}: nan"):
            generate_dataset(small_spec(target="sqrt(x - 2)"), universes, out_u)


def test_train_block_empty_dataset_keeps_block_pristine():
    universes, out_u = small_universes()
    blk = Block.pristine(list(universes.items()), out_u, DEFAULT_PARAMS)
    empty = Dataset(points=np.empty(0, dtype=[("x", float)]), targets=np.empty(0),
                    drives=np.empty((0, 20)), outputs=np.empty((0, 20)),
                    sections=section_layout(list(universes.items())), output_universe=out_u)
    train_block(blk, empty, 1e-6)
    assert np.all(blk.snapshot_delta() == 0.0)


def test_train_block_single_sample_equals_single_shot_relation():
    universes, out_u = small_universes()
    dataset = generate_dataset(small_spec(n=1), universes, out_u)
    blk = Block.pristine(list(universes.items()), out_u, DEFAULT_PARAMS)
    train_block(blk, dataset, 1e-6)
    rel = Relation(universes["x"], out_u)
    rel.accumulate(dataset.drives[0], dataset.outputs[0], 1e-6)
    assert np.allclose(blk.snapshot_delta(), rel.mu, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("field, rows", [
    ("targets", np.zeros(11)),
    ("drives", np.zeros((12, 19))),
    ("drives", np.zeros((11, 20))),
    ("outputs", np.zeros((12, 1))),
], ids=["targets-short", "drives-narrow", "drives-short", "outputs-narrow"])
def test_a_dataset_needs_one_row_per_point(field, rows):
    """A width-1 row would broadcast in a relation's write, so the layout is checked."""
    universes, out_u = small_universes()
    dataset = generate_dataset(small_spec(), universes, out_u)
    with pytest.raises(ValueError, match="one target, drive and output row per point"):
        replace(dataset, **{field: rows})


# (named experiment, relation mode or None for its crossbar, t0 over the auto t0)
TRAININGS = {
    "crossbar": ("exp-f1", None, 1.0),
    "crossbar-saturating": ("exp-f1", None, 1e4),
    "hardware-relation": ("exp-f2", "hardware", 1.0),
    "exp-2input-faulty": ("exp-2input-faulty", None, 1.0),
}


@pytest.mark.parametrize("v_th", [0.0, 1.0])
@pytest.mark.parametrize("training", TRAININGS)
def test_train_block_equals_the_per_sample_oracle_bit_for_bit(training, v_th):
    """The dataset's rows write what one ``block_train`` per sample writes:
    the same stored array, bit for bit, and the same clamp events."""
    name, relation_mode, t0_scale = TRAININGS[training]
    cfg = default_config(name)
    cfg = replace(cfg, device=replace(cfg.device, v_th=v_th))
    if relation_mode:  # output rows on another grid than the input rows
        cfg = replace(cfg, output_universe=Universe(0.0, 1.0, 80))
    inputs, out_u = list(cfg.input_universes.items()), cfg.output_universe
    t0 = t0_scale * cfg.resolved_t0()

    def pristine() -> Block:
        if relation_mode:
            return Block(Relation(inputs[0][1], out_u, mode=relation_mode, params=cfg.device),
                         inputs, out_u)
        blk = Block.pristine(inputs, out_u, cfg.device)
        if cfg.fault_fraction > 0:
            blk.backend.inject_faults(cfg.fault_fraction, cfg.fault_seed)
        return blk

    want = per_sample_training(pristine(), cfg.dataset, cfg.input_universes, out_u, t0)
    dataset = generate_dataset(cfg.dataset, cfg.input_universes, out_u)
    got = train_block(pristine(), dataset, t0)
    assert got.snapshot_delta().tobytes() == want.snapshot_delta().tobytes()
    assert got.backend.saturation_count == want.backend.saturation_count
    assert want.snapshot_delta().max() > 1.0  # ohm: the run wrote something
    assert (want.backend.saturation_count > 0) == (training == "crossbar-saturating")


UX, UY, U_OUT = Universe(1.0, 10.0, 9), Universe(1.0, 10.0, 6), Universe(0.0, 1.12, 10)


@pytest.mark.parametrize(
    "inputs, out_u",
    [
        ([("x", UX), ("z", UY)], U_OUT),
        ([("y", UY), ("x", UX)], U_OUT),
        ([("x", UX), ("y", Universe(0.0, 10.0, 6))], U_OUT),
        ([("x", UX), ("y", UY)], Universe(0.0, 1.0, 10)),
    ],
    ids=["section-name", "section-order", "section-universe", "output-universe"],
)
def test_train_block_refuses_a_dataset_laid_out_for_another_block(inputs, out_u):
    spec = small_spec(target="eq30", domains={"x": (1.0, 10.0), "y": (1.0, 10.0)},
                      input_sigmas={"x": 0.45, "y": 0.45})
    dataset = generate_dataset(spec, {"x": UX, "y": UY}, U_OUT)
    blk = Block.pristine(inputs, out_u, DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="differ"):
        train_block(blk, dataset, 1e-6)
    assert np.all(blk.snapshot_delta() == 0.0)
    matching = train_block(Block.pristine([("x", UX), ("y", UY)], U_OUT, DEFAULT_PARAMS),
                           dataset, 1e-6)
    assert matching.snapshot_delta().max() > 0.0


def test_auto_t0_meets_write_budget():
    """The worst case is every pulse at full grades, a drive of 2 - v_th above threshold."""
    for v_th, n in itertools.product((0.0, 1.0), (1, 50, 500, 800)):
        params = replace(DEFAULT_PARAMS, v_th=v_th)
        t0 = auto_t0(params, n)
        worst = params.r_off - math.sqrt(params.r_off**2 - beta(params) * (2 - v_th) * n * t0)
        assert worst <= 1e-3 * params.r_off * (1 + 1e-12)
        assert worst >= 0.99e-3 * params.r_off  # budget actually used
        cfg = default_config("exp-f1")
        replace(cfg, device=params, dataset=replace(cfg.dataset, n=n))  # checked when built
    assert auto_t0(DEFAULT_PARAMS, 500) == pytest.approx(1.0095959595959462e-06, rel=1e-9)
    assert auto_t0(replace(DEFAULT_PARAMS, v_th=1.0), 500) == pytest.approx(
        2 * 1.0095959595959462e-06, rel=1e-9
    )


@pytest.mark.parametrize(
    "v_th, t0",
    [
        (-0.5, None),
        (math.nan, None),
        (math.inf, None),
        (2.0, None),
        (2.5, None),
        (2.0, 1e-9),  # a pinned t0 must not hide a device that cannot write
    ],
)
def test_bad_write_threshold_rejected(v_th, t0):
    """A threshold no device can have fails in MemristorParams; one that no
    pulse of grades in [0, 1] can exceed fails in the config and auto_t0."""
    blob = merge_json(default_config("exp-f1").to_json(), {"device": {"v_th": v_th}, "t0": t0})
    with pytest.raises(ValueError, match="v_th"):
        ExperimentConfig.from_json(blob)
    if 2.0 <= v_th < math.inf:
        with pytest.raises(ValueError, match="v_th"):
            auto_t0(replace(DEFAULT_PARAMS, v_th=v_th), 10)


def test_config_validation_rejects_oversized_t0():
    cfg = default_config("exp-f1")
    with pytest.raises(ValueError):
        replace(cfg, t0=1e-4)  # two decades over the budget for n=500


def test_config_fields_cannot_be_assigned():
    """A config is checked once, when built: no field changes after that."""
    cfg = default_config("exp-compose")
    assert not hasattr(cfg, "validate")
    for field in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))


def test_config_mappings_are_read_only():
    """Frozen all the way down: no mapping a config or its specs hold takes an item."""
    cfg = default_config("exp-2input")
    for mapping, key, value in ((cfg.dataset.domains, "x", (1.0, 0.0)),
                                (cfg.dataset.input_sigmas, "x", -1.0),
                                (cfg.eval.domains, "x", (1.0, 0.0)),
                                (cfg.input_universes, "z", Universe(0.0, 1.0, 2))):
        with pytest.raises(TypeError):
            mapping[key] = value
        with pytest.raises(TypeError):
            del mapping["x"]
    assert cfg == default_config("exp-2input")


def test_config_holds_copies_of_the_mappings_it_was_given():
    """Editing the dicts a config was built from does not reach it, and its
    domains are held as ``(lo, hi)`` tuples whatever sequence gave them."""
    domains, sigmas = {"x": [0.0, 1.0]}, {"x": 0.05}
    universes = {"x": Universe(0.0, 1.0, 20)}
    eval_domains = {"x": [0.0, 1.0]}
    cfg = replace(default_config("exp-f1"), input_universes=universes,
                  dataset=replace(default_config("exp-f1").dataset, domains=domains,
                                  input_sigmas=sigmas),
                  eval=EvalSpec(kind="random", domains=eval_domains, n=10, seed=1))
    before = json.dumps(cfg.to_json())
    domains["x"][0] = 5.0
    domains["x"] = (1.0, 0.0)
    sigmas["x"] = -1.0
    universes["y"] = Universe(0.0, 1.0, 2)
    eval_domains["x"] = (1.0, 0.0)
    assert json.dumps(cfg.to_json()) == before
    assert cfg.dataset.domains["x"] == (0.0, 1.0) and cfg.eval.domains["x"] == (0.0, 1.0)
    assert list(cfg.input_universes) == ["x"]


def test_replace_checks_the_derived_config():
    cfg = default_config("exp-f1")
    for change, named in (({"t0": 1e-4}, "write budget"), ({"fault_fraction": 2}, "fault"),
                          ({"eval_target": "q"}, "unknown name 'q'")):
        with pytest.raises(ValueError, match=named):
            replace(cfg, **change)


def test_default_universe_resolutions():
    cfg = default_config("exp-2input")
    assert cfg.input_universes["x"].resolution == pytest.approx(0.1, rel=1e-12)
    assert cfg.input_universes["y"].resolution == pytest.approx(0.1, rel=1e-12)
    assert cfg.output_universe.resolution == pytest.approx(0.0112, rel=1e-12)


def test_eval_points_shapes():
    lattice = EvalSpec(
        kind="lattice", domains={"x": (1.0, 10.0), "y": (1.0, 10.0)}, shape=(30, 30)
    )
    pts = eval_points(lattice)
    assert len(pts) == 900
    assert pts.dtype.names == ("x", "y")
    assert pts[0].tolist() == (1.0, 1.0)
    assert pts[-1].tolist() == (10.0, 10.0)
    random = EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=17, seed=5)
    a = eval_points(random)
    b = eval_points(random)
    assert len(a) == 17 and np.array_equal(a, b)
    with pytest.raises(ValueError):
        EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=5)  # missing seed
    with pytest.raises(ValueError):
        EvalSpec(kind="lattice", domains={"x": (0.0, 1.0)}, shape=(3, 3))
    with pytest.raises(ValueError):
        EvalSpec(kind="sobol", domains={"x": (0.0, 1.0)}, n=5, seed=1)


def test_evaluate_mse_perfect_lookup_table():
    # A diagonal stored surface is an exact lookup table for the identity,
    # so the error is bounded by the grid resolution.
    u = Universe(0.0, 1.0, 100)
    blk = Block(
        Crossbar.from_delta(np.eye(100) * 50.0, DEFAULT_PARAMS), [("x", u)], u
    )
    pts = eval_points(EvalSpec(kind="random", domains={"x": (0.0, 0.99)}, n=50, seed=9))
    mse, per_point, flagged = evaluate_mse(
        Pipeline([blk]), target_function("identity", ("x",)), pts, {"x": u.resolution / 20}
    )
    assert not flagged
    assert len(per_point) == 50
    assert mse <= u.resolution**2


def test_evaluate_mse_refuses_a_bare_block_before_any_read(monkeypatch):
    # A block is a stage, not a model: its raw read-outs are neither
    # sign-corrected nor normalized, so evaluation must not score them.
    u = Universe(0.0, 1.0, 100)
    blk = Block(Crossbar.from_delta(np.eye(100) * 50.0, DEFAULT_PARAMS), [("x", u)], u)
    reads = []
    monkeypatch.setattr(Crossbar, "read_exact", lambda self, x: reads.append(x))
    pts = eval_points(EvalSpec(kind="random", domains={"x": (0.0, 0.99)}, n=5, seed=9))
    with pytest.raises(AttributeError, match="blocks"):
        evaluate_mse(blk, target_function("identity", ("x",)), pts, {"x": 0.05})
    assert reads == []


def test_evaluate_mse_flags_untrained_regions():
    universes, out_u = small_universes()
    blk = Block.pristine(list(universes.items()), out_u, DEFAULT_PARAMS)
    pts = eval_points(EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=8, seed=2))
    mse, per_point, flagged = evaluate_mse(
        Pipeline([blk]), target_function("f1", ("x",)), pts, {"x": 0.05}
    )
    assert flagged == list(range(8))  # every point scored against the midpoint
    midpoint = 0.5 * (out_u.lo + out_u.hi)
    expected = np.mean([(midpoint - p["x"] ** 2) ** 2 for p in pts])
    assert mse == pytest.approx(expected, rel=1e-12)


def test_config_json_round_trip():
    cfg = default_config("exp-2input-faulty")
    blob = cfg.to_json()
    blob.pop("resolved_t0")
    back = ExperimentConfig.from_json(json.loads(json.dumps(blob)))
    assert back.name == cfg.name
    assert back.device == cfg.device
    assert back.dataset == cfg.dataset
    assert back.input_universes == cfg.input_universes
    assert back.output_universe == cfg.output_universe
    assert back.eval == cfg.eval
    assert back.fault_fraction == cfg.fault_fraction
    assert back.fault_seed == cfg.fault_seed
    # Older files carry "r_c": null; the key is ignored.
    old = ExperimentConfig.from_json(dict(blob, r_c=None))
    assert old.to_json() == back.to_json()
    # Files written before the write threshold existed have no "v_th".
    assert blob["device"]["v_th"] == 0.0
    device = {k: v for k, v in blob["device"].items() if k != "v_th"}
    pre_threshold = ExperimentConfig.from_json(dict(blob, device=device))
    assert pre_threshold.device == DEFAULT_PARAMS
    assert pre_threshold.to_json() == back.to_json()
    threshold = ExperimentConfig.from_json(merge_json(blob, {"device": {"v_th": 1.0}}))
    assert threshold.device == replace(DEFAULT_PARAMS, v_th=1.0)


def test_merge_json_nested_override():
    base = default_config("exp-f1").to_json()
    merged = merge_json(base, {"dataset": {"n": 25}, "fault": {"fraction": 0.1}})
    assert merged["dataset"]["n"] == 25
    assert merged["dataset"]["target"] == "f1"
    assert merged["fault"] == {"fraction": 0.1, "seed": 0}


def tiny_config(tmp_path, name="exp-f1", **dataset_overrides) -> ExperimentConfig:
    cfg = default_config(name, output_dir=str(tmp_path / name))
    ds = dict(
        target=cfg.dataset.target,
        domains=cfg.dataset.domains,
        n=15,
        input_sigmas=cfg.dataset.input_sigmas,
        output_sigma=cfg.dataset.output_sigma,
        seed=cfg.dataset.seed,
    )
    ds.update(dataset_overrides)
    if cfg.eval.kind == "random":
        ev = EvalSpec(kind="random", domains=cfg.eval.domains, n=10, seed=cfg.eval.seed)
    else:
        ev = EvalSpec(kind="lattice", domains=cfg.eval.domains, shape=(5, 5))
    return replace(cfg, dataset=DatasetSpec(**ds), eval=ev)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_named_configs_and_models_round_trip_byte_for_byte(tmp_path, name):
    """JSON read back and written again is the JSON read, for each named
    experiment's config and for the ``model.json`` its run writes."""
    text = json.dumps(default_config(name).to_json())
    assert json.dumps(ExperimentConfig.from_json(json.loads(text)).to_json()) == text
    run_experiment(name, tiny_config(tmp_path, name))
    text = (tmp_path / name / "model.json").read_text()
    assert json.dumps(model_to_json(model_from_json(json.loads(text)))) == text


def test_run_experiment_artifacts_and_determinism(tmp_path):
    cfg = tiny_config(tmp_path)
    result = run_experiment("exp-f1", cfg)
    out = tmp_path / "exp-f1"
    blob = json.loads((out / "result.json").read_text())
    for key in ("mse", "n_train", "saturation_count", "config", "runtime_s", "phase_s"):
        assert key in blob
    phases = blob["phase_s"]
    assert list(phases) == ["dataset", "train", "eval", "persist"]
    assert all(t > 0 for t in phases.values())
    assert phases["dataset"] + phases["train"] + phases["eval"] <= blob["runtime_s"]
    assert blob["mse"] == result.mse
    assert blob["n_train"] == 15
    assert len(result.per_point_errors) == 10
    delta, r_off = load_delta_csv(out / "surface.csv")
    assert delta.shape == (100, 100)
    assert r_off == DEFAULT_PARAMS.r_off
    model = model_from_json(json.loads((out / "model.json").read_text()))
    assert len(model.blocks) == 1
    # a re-run from the same config reproduces the MSE bit for bit
    again = run_experiment("exp-f1", tiny_config(tmp_path))
    assert again.mse == result.mse


def test_run_experiment_two_input_sections(tmp_path):
    cfg = tiny_config(tmp_path, name="exp-2input")
    result = run_experiment("exp-2input", cfg)
    out = tmp_path / "exp-2input"
    full, _ = load_delta_csv(out / "surface.csv")
    sx, _ = load_delta_csv(out / "surface_x.csv")
    sy, _ = load_delta_csv(out / "surface_y.csv")
    assert full.shape == (100, 180)
    assert sx.shape == (100, 90) and sy.shape == (100, 90)
    assert np.array_equal(np.hstack([sx, sy]), full)
    assert len(result.per_point_errors) == 25


def test_run_experiment_fault_injection_is_seeded(tmp_path):
    cfg = tiny_config(tmp_path, name="exp-2input-faulty")
    a = run_experiment("exp-2input-faulty", cfg)
    model = model_from_json(json.loads((tmp_path / "exp-2input-faulty" / "model.json").read_text()))
    assert int(model.blocks[0].backend.fault_mask.sum()) == 9000
    b = run_experiment("exp-2input-faulty", tiny_config(tmp_path, name="exp-2input-faulty"))
    assert a.mse == b.mse


def test_run_experiment_compose_pipeline(tmp_path):
    cfg = tiny_config(tmp_path, name="exp-compose")
    result = run_experiment("exp-compose", cfg)
    out = tmp_path / "exp-compose"
    assert (out / "surface_stage0.csv").exists()
    assert (out / "surface_stage1.csv").exists()
    assert result.n_train == 30  # 15 samples per stage
    model = model_from_json(json.loads((out / "model.json").read_text()))
    assert len(model.blocks) == 2


def _digests(out_dir) -> dict[str, str]:
    """sha256 of ``model.json`` and of every surface CSV in a run's output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "result.json"}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@needs_fork
@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_forked_model_write_gives_the_same_files_as_the_in_process_one(tmp_path, monkeypatch,
                                                                       name):
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(name) or fork())
    run_experiment(name, tiny_config(tmp_path / "forked", name))
    assert forks == [name]
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    run_experiment(name, tiny_config(tmp_path / "in-process", name))
    forked = _digests(tmp_path / "forked" / name)
    assert "model.json" in forked and any(n.endswith(".csv") for n in forked)
    assert forked == _digests(tmp_path / "in-process" / name)


def test_the_model_is_written_in_process_when_no_child_can_be_forked(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    run_experiment("exp-f1", tiny_config(tmp_path))
    model_from_json(json.loads((tmp_path / "exp-f1" / "model.json").read_text()))


@needs_fork
def test_a_failed_model_write_raises_its_own_error(tmp_path):
    cfg = tiny_config(tmp_path)
    (tmp_path / "exp-f1" / "model.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        run_experiment("exp-f1", cfg)
    _assert_no_child_left()


@needs_fork
def test_a_failed_surface_write_propagates_after_the_model_write(tmp_path, monkeypatch):
    class DiskFull(OSError):
        pass

    def fail(*args, **kwargs):
        raise DiskFull("no space left")

    monkeypatch.setattr(harness, "save_delta_csv", fail)
    with pytest.raises(DiskFull):
        run_experiment("exp-f1", tiny_config(tmp_path))
    _assert_no_child_left()
    model_from_json(json.loads((tmp_path / "exp-f1" / "model.json").read_text()))


def test_run_experiment_unknown_name():
    with pytest.raises(ValueError):
        default_config("exp-unknown")
