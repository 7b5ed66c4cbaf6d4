import json

import numpy as np
import pytest

from crossfuzzy.cli import main
from crossfuzzy.crossbar import load_delta_csv
from crossfuzzy.fuzzy import Universe, fuzzify_gaussian
from crossfuzzy.harness import DatasetSpec, EvalSpec, default_config


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


def test_experiment_fault_flags(tmp_path, capsys):
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


def test_train_command_with_full_config(tmp_path, capsys):
    cfg = default_config("exp-f2", output_dir=str(tmp_path / "custom"))
    cfg.name = "custom-sqrt"
    cfg.dataset = DatasetSpec(
        target="f2",
        domains={"x": (0.0, 1.0)},
        n=20,
        input_sigmas={"x": 0.05},
        output_sigma=0.05,
        seed=9,
    )
    cfg.eval = EvalSpec(kind="random", domains={"x": (0.0, 1.0)}, n=8, seed=10)
    blob = cfg.to_json()
    blob.pop("resolved_t0")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(capsys, "train", "--config", str(path))
    assert code == 0
    assert (tmp_path / "custom" / "model.json").exists()
    assert out["mse"] >= 0.0


def trained_model_path(tmp_path, capsys, name="exp-f1") -> str:
    override = tiny_override(tmp_path, name)
    run_cli(capsys, "experiment", name, "--config", str(override))
    return str(tmp_path / name / "model.json")


def test_infer_crisp_input(tmp_path, capsys):
    model = trained_model_path(tmp_path, capsys)
    code, out = run_cli(capsys, "infer", "--model", model, "--input", "0.5")
    assert code == 0
    assert 0.0 <= out["centroid"] <= 1.0
    assert len(out["output"]["grades"]) == 100


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
    from crossfuzzy.system import Block, model_to_json

    u = Universe(0.0, 1.0, 30)
    blk = Block.pristine([("x", u)], u, DEFAULT_PARAMS)
    path = tmp_path / "pristine.json"
    path.write_text(json.dumps(model_to_json(blk)))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "untrained" in json.loads(out)["error"]


@pytest.mark.parametrize("cells", [[-1], [1.7], [99]])
def test_infer_rejects_bad_fault_cells(tmp_path, capsys, cells):
    from crossfuzzy.device import DEFAULT_PARAMS
    from crossfuzzy.system import Block, model_to_json

    u = Universe(0.0, 1.0, 3)
    obj = dict(model_to_json(Block.pristine([("x", u)], u, DEFAULT_PARAMS)), fault_cells=cells)
    path = tmp_path / "faulty.json"
    path.write_text(json.dumps(obj))
    code = main(["infer", "--model", str(path), "--input", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: fault_cells")


def test_bad_arguments_exit_2(tmp_path, capsys):
    code = main(["infer", "--model", str(tmp_path / "missing.json"), "--input", "0.5"])
    capsys.readouterr()
    assert code == 2
    code = main(["export", "--model", str(tmp_path / "missing.json"), "--surface", "s.csv"])
    capsys.readouterr()
    assert code == 2
