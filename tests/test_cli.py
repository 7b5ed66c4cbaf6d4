import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossfuzzy.cli import main
from crossfuzzy.crossbar import load_delta_csv
from crossfuzzy.fuzzy import Universe, fuzzify_gaussian
from crossfuzzy.harness import (DatasetSpec, EvalSpec, ExperimentConfig, default_config,
                                eval_points, merge_json)


def tiny_override(tmp_path, name, n=15):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = default_config(name, output_dir=str(tmp_path / name))
    override = {
        "dataset": {"n": n},
        "output_dir": str(tmp_path / name),
    }
    if cfg.eval.kind == "random":
        override["eval"] = {"n": 10}
    else:
        override["eval"] = {"shape": [5, 5]}
    path = tmp_path / f"{name}-override.json"
    path.write_text(json.dumps(override))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_experiment_command(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-f1")
    code, out = run_cli(capsys, "experiment", "exp-f1", "--config", str(override))
    assert code == 0
    assert out["name"] == "exp-f1"
    assert out["n_train"] == 15
    result = json.loads((tmp_path / "exp-f1" / "result.json").read_text())
    assert result["mse"] == out["mse"]


def test_experiment_on_threshold_device_via_config(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-f1")
    blob = json.loads(override.read_text())
    blob["device"] = {"v_th": 1.0}
    override.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "experiment", "exp-f1", "--config", str(override))
    assert code == 0
    result = json.loads((tmp_path / "exp-f1" / "result.json").read_text())
    assert result["config"]["device"]["v_th"] == 1.0
    model = json.loads((tmp_path / "exp-f1" / "model.json").read_text())
    assert model["device"]["v_th"] == 1.0
    assert result["mse"] == out["mse"]


@pytest.mark.parametrize("v_th, warned", [(0.0, 1), (1.0, 0)])
def test_a_run_without_skill_warns_once(tmp_path, capsys, v_th, warned):
    """The default device's exp-f1 predicts worse than the mean of its probe
    targets (skill < 0) and ``experiment`` and ``train`` each say so on one
    stderr line; the 1 V device's predicts better and neither warns. Both exit 0."""
    override = tiny_override(tmp_path, "exp-f1")
    override.write_text(json.dumps({**json.loads(override.read_text()), "device": {"v_th": v_th}}))
    assert main(["experiment", "exp-f1", "--config", str(override)]) == 0
    err = capsys.readouterr().err
    result = json.loads((tmp_path / "exp-f1" / "result.json").read_text())
    points = eval_points(ExperimentConfig.from_json(result["config"]).eval)
    assert result["baseline_mse"] == pytest.approx(np.var(points["x"] ** 2), rel=1e-12)
    assert result["skill"] == 1.0 - result["mse"] / result["baseline_mse"]
    assert (result["skill"] < 0, result["skill"] > 0) == (v_th == 0.0, v_th == 1.0)
    assert err.count("warning: exp-f1: skill") == err.count("\n") == warned
    config = tmp_path / "config.json"
    config.write_text(json.dumps(result["config"]))
    assert main(["train", "--config", str(config), "--output-dir", str(tmp_path / "train")]) == 0
    assert capsys.readouterr().err == err


def test_experiment_fault_flags(tmp_path, capsys, monkeypatch):
    override = tiny_override(tmp_path, "exp-f1")
    code, out = run_cli(
        capsys,
        "experiment",
        "exp-f1",
        "--config",
        str(override),
        "--fault-fraction",
        "0.25",
        "--seed",
        "77",
    )
    assert code == 0
    result = json.loads((tmp_path / "exp-f1" / "result.json").read_text())
    assert result["config"]["fault"] == {"fraction": 0.25, "seed": 77}
    monkeypatch.setattr("crossfuzzy.harness.generate_dataset", never_train)
    assert run_failing(capsys, "experiment", "exp-2input-faulty", "--seed", "-1") == (
        "error: fault_seed must be a non-negative integer, got -1\n")


def test_experiment_that_stored_nothing_fails(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-f1")
    code = main(["experiment", "exp-f1", "--config", str(override), "--fault-fraction", "1.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: exp-f1: evaluation")
    assert not (tmp_path / "exp-f1" / "result.json").exists()


def test_experiment_with_a_target_that_is_not_finite_fails(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-f1")
    blob = json.loads(override.read_text())
    blob["dataset"]["target"] = "sqrt(x - 2)"
    override.write_text(json.dumps(blob))
    with np.errstate(invalid="ignore"):  # numpy's sqrt of a negative gives nan
        code = main(["experiment", "exp-f1", "--config", str(override)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: target 'sqrt(x - 2)' is not finite at sample 0 ")


def test_train_command_with_full_config(tmp_path, capsys):
    cfg = replace(
        default_config("exp-f2", output_dir=str(tmp_path / "custom")),
        name="custom-sqrt",
        dataset=DatasetSpec(
            target="f2",
            domains={"x": (0.0, 1.0)},
            n=20,
            input_sigmas={"x": 0.05},
            output_sigma=0.05,
            seed=9,
        ),
        eval=EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=8, seed=10),
    )
    blob = cfg.to_json()
    blob.pop("resolved_t0")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "train", "--config", str(path))
    assert code == 0
    assert (tmp_path / "custom" / "model.json").exists()
    assert out["mse"] >= 0.0


def test_an_evaluation_target_that_is_not_finite_fails_before_a_result(tmp_path, capsys):
    """A probe target of nan is refused as one error line, as a training
    target is, and the run writes no ``result.json`` holding an MSE of nan."""
    override = tiny_override(tmp_path, "exp-f1")
    override.write_text(json.dumps({**json.loads(override.read_text()),
                                    "eval_target": "log(x - 0.5)"}))
    with np.errstate(invalid="ignore"):  # numpy's log of a negative gives nan
        err = run_failing(capsys, "experiment", "exp-f1", "--config", str(override))
    assert err.startswith("error: target 'log(x - 0.5)' is not finite at probe ")
    assert "with inputs {'x': " in err and err.endswith(": nan\n") and err.count("\n") == 1
    assert not (tmp_path / "exp-f1" / "result.json").exists()


def test_a_target_that_warns_at_many_probes_warns_once(tmp_path, capsys):
    """numpy's warning at each of about 100 probes below 0.5 is one
    ``warning:`` line, under Python's default filter, before the one
    ``error:`` line."""
    override = tiny_override(tmp_path, "exp-f1")
    override.write_text(json.dumps({**json.loads(override.read_text()), "eval": {"n": 200},
                                    "eval_target": "log(x - 0.5)"}))
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)  # not the suite's error filter
        code = main(["experiment", "exp-f1", "--config", str(override)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    warning, error = captured.err.splitlines()
    assert warning == "warning: invalid value encountered in log"
    assert error.startswith("error: target 'log(x - 0.5)' is not finite at probe ")


# Expressions that raise, or give a value that is not a real number, at every point.
RAISING_TARGETS = ["x/0", "sin", "x, x", '"a"', '"0.25"', 'b"0.25"']


@pytest.mark.parametrize("target", RAISING_TARGETS)
@pytest.mark.parametrize("key, point", [("dataset", "sample"), ("eval_target", "probe")])
def test_a_target_that_raises_at_a_point_fails_as_one_error(tmp_path, capsys, monkeypatch,
                                                           target, key, point):
    """Each fails as one ``error:`` line naming the target, the point and its
    inputs, not as a traceback; a bad dataset target trains nothing."""
    override = tiny_override(tmp_path, "exp-f1")
    blob = json.loads(override.read_text())
    if key == "dataset":
        blob["dataset"]["target"] = target
        monkeypatch.setattr("crossfuzzy.harness.train_block", never_train)
    else:
        blob["eval_target"] = target
    override.write_text(json.dumps(blob))
    err = run_failing(capsys, "experiment", "exp-f1", "--config", str(override))
    assert err.startswith(f"error: target {target!r} is not finite at {point} 0 with inputs "
                          "{'x': ")
    assert err.count("\n") == 1
    assert not (tmp_path / "exp-f1" / "result.json").exists()


def test_an_output_directory_that_cannot_be_made_fails_before_the_dataset(tmp_path, capsys,
                                                                          monkeypatch):
    monkeypatch.setattr("crossfuzzy.harness.generate_dataset", never_train)
    override = tiny_override(tmp_path, "exp-2input")
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    err = run_failing(capsys, "experiment", "exp-2input", "--config", str(override),
                      "--output-dir", str(blocker / "out"))
    assert "Not a directory" in err and err.count("\n") == 1



def never_train(*args, **kwargs):
    raise AssertionError("a malformed config reached dataset generation")


# Targets a config may name that are not a target: (JSON override, part of the error).
BAD_TARGETS = [
    ({"eval_target": 5}, "got 5"),
    ({"eval_target": ["f1"]}, "got ['f1']"),
    ({"eval_target": "x +"}, "'x +' is malformed"),
    ({"eval_target": "q"}, "unknown name 'q'"),
    ({"dataset": {"target": "x +"}}, "'x +' is malformed"),
    ({"pipeline_targets": "f2"}, "pipeline_targets must be a list"),
    ({"pipeline_targets": ["f2", 7]}, "got 7"),
]
BAD_TARGET_IDS = ["eval-target-int", "eval-target-list", "eval-target-syntax",
                  "eval-target-unknown", "dataset-target-syntax", "stages-text", "stages-int"]


# Overrides a config once read past without a word: (JSON override, the error's start).
UNREAD_OVERRIDES = [
    ({"device": {"vth": 1.0}}, "error: device.vth: unknown key"),
    ({"fault_fracton": 0.5}, "error: fault_fracton: unknown key"),
    ({"dataset": {"sedd": 3}}, "error: dataset.sedd: unknown key"),
    ({"eval": {"domains": {"x": [0, 1, 7]}}},
     "error: eval.domains.x must be a list of 2 values, got [0, 1, 7]"),
    ({"device": {"v_th": True}}, "error: device.v_th must be a number, got True"),
    ({"name": 7}, "error: name must be a string, got 7"),
    ({"output_dir": 5}, "error: output_dir must be a string, got 5"),
]
UNREAD_OVERRIDE_IDS = ["vth", "fault-fracton", "sedd", "three-ends", "v_th-true", "name-int",
                       "output-dir-int"]


def run_failing(capsys, *argv) -> str:
    """Run a command that must fail as ``error: …`` with exit 2; return the message."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("config, named", [
    ('{"name": "x"}', "missing key 'device'"),
    ("[1]", "must be a JSON object, got [1]"),
    ({"t0": "abc"}, "malformed JSON"),
    ({"fault": {"fraction": "x"}}, "malformed JSON"),
    ({"fault": "x"}, "malformed JSON"),
    ({"dataset": {"n": 2.5}}, "integer"),
    ({"eval": {"domains": {"z": [0, 1]}}}, "eval domains"),
    *BAD_TARGETS,
], ids=["no-device", "list", "t0-text", "fraction-text", "fault-text", "n-float",
        "eval-variable", *BAD_TARGET_IDS])
def test_train_rejects_a_malformed_config(tmp_path, capsys, monkeypatch, config, named):
    """Each bad config fails where it is read, before anything is trained."""
    monkeypatch.setattr("crossfuzzy.harness.generate_dataset", never_train)
    if isinstance(config, dict):
        full = default_config("exp-f1", output_dir=str(tmp_path / "out")).to_json()
        config = json.dumps(merge_json(full, config))
    path = tmp_path / "config.json"
    path.write_text(config)
    assert named in run_failing(capsys, "train", "--config", str(path))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, override, named", [
    ("exp-f1", "[1]", "must be a JSON object, got [1]"),
    ("exp-f1", '{"t0": "abc"}', "malformed JSON"),
    ("exp-f1", '{"fault": {"fraction": "x"}}', "malformed JSON"),
    ("exp-f1", '{"dataset": {"n": 2.5}}', "integer"),
    ("exp-f1", '{"eval": {"n": 2.5}}', "integer"),
    ("exp-f1", '{"dataset": {"n": 1%s}}' % ("0" * 400), "needs an integer n from 1 to"),
    ("exp-f1", '{"eval": {"n": 1%s}}' % ("0" * 400), "needs an integer n from 1 to"),
    ("exp-f1", '{"eval": {"seed": 1.5}}', "integer"),
    ("exp-2input", '{"eval": {"shape": [2.5, 3]}}', "integer"),
    ("exp-f1", '{"dataset": {"domains": {"x": [0, 1e309]}}}', "invalid domain"),
    ("exp-f1", '{"eval": {"domains": {"x": [0, 1e309]}}}', "invalid domain"),
    ("exp-f1", '{"eval": {"domains": {"z": [0, 1]}}}', "eval domains"),
    ("exp-f1", '{"dataset": {"domains": {"x": [0]}}}', "malformed JSON"),
    ("exp-f1", '{"fault": {"fraction": 0.5, "seed": 1.5}}', "fault.seed must be an integer"),
    ("exp-f1", '{"dataset": {"seed": -3}}',
     "dataset: a dataset needs a non-negative integer seed, got seed=-3"),
    ("exp-f1", '{"eval": {"seed": -2}}',
     "eval: random evaluation needs a non-negative integer seed, got seed=-2"),
    ("exp-2input-faulty", '{"fault": {"seed": -1}}',
     "fault_seed must be a non-negative integer, got -1"),
    ("exp-compose", '{"output_universe": {"lo": 0.995, "hi": 3, "count": 100}}',
     "disjoint domains: source [0.995, 3] vs target [0.0, 1.0]"),
    ("exp-2input", '{"dataset": {"target": "f1"}}',
     "target 'f1' takes the variables ('x',), got ('x', 'y')"),
    *(("exp-f1", json.dumps(override), named) for override, named in BAD_TARGETS),
    *(("exp-f1", json.dumps(override), named) for override, named in UNREAD_OVERRIDES),
], ids=["list", "t0-text", "fraction-text", "dataset-n-float", "eval-n-float",
        "dataset-n-beyond-arrays", "eval-n-beyond-arrays", "eval-seed-float", "shape-float",
        "dataset-domain-inf", "eval-domain-inf", "eval-variable", "domain-one-end",
        "fault-seed-float", "dataset-seed-negative", "eval-seed-negative", "fault-seed-negative",
        "stages-disjoint", "named-target-variables", *BAD_TARGET_IDS, *UNREAD_OVERRIDE_IDS])
def test_experiment_rejects_a_malformed_override(tmp_path, capsys, monkeypatch, name,
                                                 override, named):
    """Each bad override fails where it is read, before anything is trained."""
    monkeypatch.setattr("crossfuzzy.harness.generate_dataset", never_train)
    path = tmp_path / "override.json"
    path.write_text(override)
    out = tmp_path / "out"
    assert named in run_failing(capsys, "experiment", name, "--config", str(path),
                                "--output-dir", str(out))
    assert not out.exists()


def trained_model_path(tmp_path, capsys, name="exp-f1") -> str:
    override = tiny_override(tmp_path, name)
    run_cli(capsys, "experiment", name, "--config", str(override))
    return str(tmp_path / name / "model.json")


def test_infer_crisp_input(tmp_path, capsys):
    model = trained_model_path(tmp_path, capsys)
    code, out = run_cli(capsys, "infer", "--model", model, "--input", "0.5")
    assert code == 0
    assert 0.0 <= out["centroid"] <= 1.0
    grades = np.array(out["output"]["grades"])  # sign-corrected and peak-normalized
    assert len(grades) == 100 and grades.min() >= 0.0 and grades.max() == 1.0
    crisp = tmp_path / "crisp.txt"  # a file holding the value reads as the value
    crisp.write_text("0.5\n")
    assert run_cli(capsys, "infer", "--model", model, "--input", str(crisp)) == (code, out)


def test_infer_warns_in_one_plain_line(tmp_path, capsys):
    """A crisp value outside the universe still infers, with one ``warning:`` line on stderr."""
    model = trained_model_path(tmp_path, capsys)
    for _ in range(2):  # every run warns, not only the first in a process
        code = main(["infer", "--model", model, "--input", "1.02"])
        captured = capsys.readouterr()
        assert code == 0 and "centroid" in json.loads(captured.out)
        assert captured.err == "warning: crisp value 1.02 lies outside universe [0.0, 1.0]\n"


def test_infer_fuzzy_json_input(tmp_path, capsys):
    model = trained_model_path(tmp_path, capsys)
    fn = fuzzify_gaussian(0.4, 0.05, Universe(0.0, 1.0, 100))
    blob = tmp_path / "input.json"
    blob.write_text(json.dumps(fn.to_json()))
    code, out = run_cli(capsys, "infer", "--model", model, "--input", str(blob))
    assert code == 0
    assert 0.0 <= out["centroid"] <= 1.0


def test_infer_two_input_model(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-2input")
    run_cli(capsys, "experiment", "exp-2input", "--config", str(override))
    model = str(tmp_path / "exp-2input" / "model.json")
    code, out = run_cli(capsys, "infer", "--model", model, "--input", "3.0,7.5")
    assert code == 0
    assert 0.0 <= out["centroid"] <= 1.12


def test_compose_and_infer_pipeline(tmp_path, capsys):
    a = trained_model_path(tmp_path / "a", capsys, "exp-f2")
    b = trained_model_path(tmp_path / "b", capsys, "exp-f1")
    pipe = tmp_path / "pipe.json"
    code, out = run_cli(capsys, "compose", "--blocks", a, b, "--output", str(pipe))
    assert code == 0
    assert out["stages"] == 2
    code, out = run_cli(capsys, "infer", "--model", str(pipe), "--input", "0.5")
    assert code == 0
    assert 0.0 <= out["centroid"] <= 1.0


def test_compose_chains_the_stages_of_every_model_it_is_given(tmp_path, capsys):
    """A pipeline file composes as its stages; a one-stage result is written as its
    block's JSON; a two-input model only as the first stage."""
    pipe = two_stage_pipeline(tmp_path, capsys)
    single = trained_model_path(tmp_path / "c", capsys)
    longer = tmp_path / "longer.json"
    code, out = run_cli(capsys, "compose", "--blocks", single, pipe, "--output", str(longer))
    assert code == 0 and out["stages"] == 3
    stages = json.loads(longer.read_text())["blocks"]
    assert stages[1:] == json.loads(Path(pipe).read_text())["blocks"]
    alone = tmp_path / "alone.json"
    assert run_cli(capsys, "compose", "--blocks", single, "--output", str(alone))[0] == 0
    assert alone.read_text() == Path(single).read_text()
    override = tiny_override(tmp_path, "exp-2input")
    run_cli(capsys, "experiment", "exp-2input", "--config", str(override))
    two = str(tmp_path / "exp-2input" / "model.json")
    assert run_failing(capsys, "compose", "--blocks", single, two, "--output",
                       str(tmp_path / "bad.json")) == (
        "error: stages after the first must be single-input blocks\n")
    assert not (tmp_path / "bad.json").exists()


def test_export_surface(tmp_path, capsys):
    model = trained_model_path(tmp_path, capsys)
    surface = tmp_path / "surface.csv"
    code, out = run_cli(capsys, "export", "--model", model, "--surface", str(surface))
    assert code == 0
    delta, r_off = load_delta_csv(surface)
    assert delta.shape == (100, 100)
    assert r_off == 1e5


def test_export_section_surface(tmp_path, capsys):
    override = tiny_override(tmp_path, "exp-2input")
    run_cli(capsys, "experiment", "exp-2input", "--config", str(override))
    model = str(tmp_path / "exp-2input" / "model.json")
    surface = tmp_path / "surface_y.csv"
    code, _ = run_cli(
        capsys, "export", "--model", model, "--surface", str(surface), "--section", "y"
    )
    assert code == 0
    delta, _ = load_delta_csv(surface)
    assert delta.shape == (100, 90)


def test_infer_untrained_model_reports_error(tmp_path, capsys):
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, block_to_json

    u = Universe(0.0, 1.0, 30)
    blk = Block.pristine([("x", u)], u, DEFAULT_PARAMS)
    path = tmp_path / "pristine.json"
    path.write_text(json.dumps(block_to_json(blk)))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "untrained" in json.loads(out)["error"]


@pytest.mark.parametrize("kind, error", [
    ("block", "untrained region: stage 0 read out no signal"),
    ("pipeline", "untrained region: stage 0 read out no signal"),
])
def test_infer_untrained_region_is_named_once(tmp_path, capsys, kind, error):
    """An all-zero input reads out no signal: one ``untrained region`` line, exit 1."""
    model = (two_stage_pipeline(tmp_path, capsys) if kind == "pipeline"
             else trained_model_path(tmp_path, capsys))
    obj = json.loads(Path(model).read_text())
    universe = (obj["blocks"][0] if kind == "pipeline" else obj)["inputs"][0]["universe"]
    zero = json.dumps({"universe": universe, "grades": [0.0] * universe["count"]})
    code = main(["infer", "--model", model, "--input", zero])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out == json.dumps({"error": error}) + "\n"


@pytest.mark.parametrize("cells", [[-1], [1.7], [99]])
def test_infer_rejects_bad_fault_cells(tmp_path, capsys, cells):
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, block_to_json

    u = Universe(0.0, 1.0, 3)
    obj = dict(block_to_json(Block.pristine([("x", u)], u, DEFAULT_PARAMS)), fault_cells=cells)
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(obj))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}: fault_cells")


@pytest.mark.parametrize("count", [-5, 2.7, "3", True])
def test_infer_rejects_a_bad_saturation_count(tmp_path, capsys, count):
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, block_to_json

    u = Universe(0.0, 1.0, 3)
    obj = dict(block_to_json(Block.pristine([("x", u)], u, DEFAULT_PARAMS)),
               saturation_count=count)
    path = tmp_path / "counted.json"
    path.write_text(json.dumps(obj))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}: saturation_count")


@pytest.mark.parametrize("memristance", [[1e5, 1e5, 1e5], 1e5, [[[1e5]]]], ids=["1d", "0d", "3d"])
def test_infer_rejects_memristance_that_is_not_2d(tmp_path, capsys, memristance):
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, block_to_json

    u = Universe(0.0, 1.0, 3)
    pristine = block_to_json(Block.pristine([("x", u)], u, DEFAULT_PARAMS))
    obj = dict(pristine, memristance=memristance)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {path}: memristance must be a 2-D array")


def small_model_json() -> dict:
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, block_to_json

    u = Universe(0.0, 1.0, 3)
    return json.loads(json.dumps(block_to_json(Block.pristine([("x", u)], u, DEFAULT_PARAMS))))


def with_count(obj: dict, value) -> dict:
    obj["inputs"][0]["universe"]["count"] = value
    return obj


def with_true_cell(obj: dict) -> dict:
    obj["memristance"][1][2] = True
    return obj


def with_text_cell(obj: dict) -> dict:
    obj["memristance"][1][2] = "1e5"
    return obj


def with_stuck_cell_below_r_off(obj: dict) -> dict:
    obj["memristance"][1][1] = 99e3
    obj["fault_cells"] = [4]  # the flat index of (1, 1)
    return obj


# Model JSON edits and the start of the error each gives, after the file's name.
@pytest.mark.parametrize("edit, named", [
    (lambda obj: dict(obj, backend="crosbar"),
     "backend must be 'crossbar' or 'relation', got 'crosbar'"),
    (lambda obj: dict(obj, device=dict(obj["device"], vth=1.0)), "device.vth: unknown key"),
    (lambda obj: dict(obj, extra=1), "extra: unknown key"),
    (lambda obj: dict(obj, mu=obj["memristance"]), "mu: unknown key"),
    (lambda obj: with_count(obj, True), "inputs[0].universe.count must be an integer"),
    (with_true_cell, "memristance must be a 2-D array of numbers"),
    (with_text_cell, "memristance must be a 2-D array of numbers"),
    (with_stuck_cell_below_r_off, "stuck cells (fault mask) must hold r_off"),
], ids=["backend-misspelt", "device-vth", "added-key", "relation-key", "count-true", "cell-true",
        "cell-text", "stuck-cell-below-r_off"])
def test_every_command_rejects_a_malformed_model(tmp_path, capsys, edit, named):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(small_model_json())))
    model = str(path)
    for argv in (["infer", "--model", model, "--input", "0.5"],
                 ["export", "--model", model, "--surface", str(tmp_path / "s.csv")],
                 ["compose", "--blocks", model, model, "--output", str(tmp_path / "p.json")]):
        assert run_failing(capsys, *argv).startswith(f"error: {model}: {named}")
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "p.json").exists()


def test_bad_arguments_exit_2(tmp_path, capsys):
    missing, folder = str(tmp_path / "missing.json"), str(tmp_path)
    model = trained_model_path(tmp_path, capsys)
    padded = "0.3" + " " * 5000  # longer than a file name may be
    for argv in (["infer", "--model", missing, "--input", "0.5"],
                 ["export", "--model", missing, "--surface", "s.csv"],
                 ["infer", "--model", folder, "--input", "0.5"],
                 ["train", "--config", folder],
                 ["experiment", "exp-f1", "--config", folder],
                 ["export", "--model", model, "--surface", folder],
                 ["infer", "--model", model, "--input", "x" + padded]):
        assert run_failing(capsys, *argv).count("\n") == 1, argv
    # An --input too long for a file name is the input itself.
    assert run_cli(capsys, "infer", "--model", model, "--input", padded) == \
        run_cli(capsys, "infer", "--model", model, "--input", "0.3")
    for sigma in ("0", "-0.0"):  # not the default width: a width of 0 is refused
        code = main(["infer", "--model", model, "--input", "0.5", "--sigma", sigma])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: sigma must be positive")


def two_stage_pipeline(tmp_path, capsys) -> str:
    a = trained_model_path(tmp_path / "a", capsys, "exp-f2")
    b = trained_model_path(tmp_path / "b", capsys, "exp-f1")
    pipe = tmp_path / "pipe.json"
    run_cli(capsys, "compose", "--blocks", a, b, "--output", str(pipe))
    return str(pipe)


def test_export_block_index_within_the_stages(tmp_path, capsys):
    pipe = two_stage_pipeline(tmp_path, capsys)
    single = trained_model_path(tmp_path / "c", capsys)
    surface = str(tmp_path / "surface.csv")
    for model, block in ((pipe, "1"), (single, "0")):
        code, _ = run_cli(capsys, "export", "--model", model, "--surface", surface,
                          "--block", block)
        assert code == 0
    for model, block in ((pipe, "5"), (pipe, "-1"), (single, "3")):
        code = main(["export", "--model", model, "--surface", surface, "--block", block])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: --block {block} is out of range")
    assert run_failing(capsys, "export", "--model", pipe, "--surface", surface) == (
        "error: pipeline model: pick a stage with --block INDEX\n")


# Grades on exp-f1's input universe, which the parser would read as numbers.
F1_INPUT = {"lo": 0.0, "hi": 1.0, "count": 100}
BOOL_GRADES = json.dumps({"universe": F1_INPUT, "grades": [True] + [False] * 99})
TEXT_GRADES = json.dumps({"x": {"universe": F1_INPUT, "grades": ["0.5"] * 100}})


@pytest.mark.parametrize("raw, named", [
    ('{"x": {"grades": [1, 2]}}', "missing key 'universe'"),
    ('{"x": {"universe": {"lo": 0, "hi": 1}, "grades": [1, 2]}}', "missing key 'count'"),
    pytest.param('{"x": 3}', "input.x must be a JSON object, got 3", id="x-not-an-object"),
    ('{"x": {"universe": 3, "grades": [1, 2]}}', "universe must be a JSON object, got 3"),
    pytest.param(BOOL_GRADES, "input.grades must be a 1-D array of numbers",
                 id="grades-true-false"),
    pytest.param(TEXT_GRADES, "input.x.grades must be a 1-D array of numbers", id="grades-text"),
    pytest.param(json.dumps({"universe": F1_INPUT}), "error: input: missing key 'grades'",
                 id="universe-without-grades"),
    pytest.param(json.dumps({"x": {"universe": F1_INPUT, "grades": [1, 2]}}),
                 "error: input.x: grades shape (2,)", id="grades-too-few"),
    pytest.param(json.dumps({"x": {"universe": dict(F1_INPUT, count=1), "grades": [1]}}),
                 "error: input.x.universe: universe needs an integer count", id="count-1"),
    pytest.param("0.2,0.4", "error: model expects 1 input value(s), got 2",
                 id="crisp-values-too-many"),
])
def test_infer_rejects_malformed_json_input(tmp_path, capsys, raw, named):
    model = trained_model_path(tmp_path, capsys)
    code = main(["infer", "--model", model, "--input", raw])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_model_json_without_inputs_fails_in_every_command(tmp_path, capsys):
    model = trained_model_path(tmp_path, capsys)
    obj = json.loads(Path(model).read_text())
    del obj["inputs"]
    Path(model).write_text(json.dumps(obj))
    for argv in (["infer", "--model", model, "--input", "0.5"],
                 ["export", "--model", model, "--surface", str(tmp_path / "s.csv")],
                 ["compose", "--blocks", model, model, "--output", str(tmp_path / "p.json")]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {model}: missing key 'inputs'\n"
