"""Independent numpy re-derivations of what crossfuzzy should output.

The benchmark checks every timed operation against these. They share no code
with the package and read only its JSON outputs and configs. Training is the
closed form that flux additivity allows: one square root per cell over the
summed drive of all pulses. Reads are batched matrix products over all probes
at once, and the probe points are redrawn from the evaluation spec.
"""

from __future__ import annotations

import numpy as np

#: Read-outs at or below this magnitude carry no stored signal (untrained).
SIGNAL_FLOOR = 1e-12

TARGETS = {
    "f1": lambda x: x**2,
    "f2": lambda x: np.sqrt(x),
    "eq30": lambda x, y: 0.5 * np.sqrt(2.0 * (np.sin(x) / x) ** 2 + 3.0 * (np.sin(y) / y) ** 2),
    "identity": lambda x: x,
}

# Probes are read in chunks so the oracle adds little to peak memory.
CHUNK = 1000


def grid(u: dict) -> np.ndarray:
    return u["lo"] + np.arange(u["count"]) * ((u["hi"] - u["lo"]) / u["count"])


def bells(x: np.ndarray, sigma: float, u: dict) -> np.ndarray:
    """Gaussian membership rows, one per crisp value in ``x``."""
    v = grid(u)
    return np.exp(-((v[None, :] - x[:, None]) ** 2) / (2.0 * sigma * sigma))


def draws(domains: dict, n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {k: rng.uniform(lo, hi, n) for k, (lo, hi) in domains.items()}


def eval_points(spec: dict) -> dict[str, np.ndarray]:
    """Probe coordinates of an ``EvalSpec.to_json()``, one array per variable."""
    if spec["kind"] == "random":
        return draws(spec["domains"], spec["n"], spec["seed"])
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(spec["domains"].values(), spec["shape"])]
    return {k: g.ravel() for k, g in zip(spec["domains"], np.meshgrid(*axes, indexing="ij"))}


def trained_memristance(cfg: dict, stage: int) -> np.ndarray:
    """Memristance after training one stage of an ``ExperimentConfig.to_json()``.

    Cell (i, j) has integrated ``t0 * (sum_k col_k[j] + sum_k row_k[i])`` over
    all pulses, so ``M**2 = r_off**2 - beta * flux``, clamped at ``r_on``.
    Stuck cells are not modelled here; callers mask them.
    """
    ds, dev = cfg["dataset"], cfg["device"]
    target = cfg["pipeline_targets"][stage] if cfg["pipeline_targets"] else ds["target"]
    x = draws(ds["domains"], ds["n"], ds["seed"] + stage)
    y = TARGETS[target](**x)
    col = np.concatenate([
        bells(x[k], ds["input_sigmas"][k], u).sum(axis=0)
        for k, u in cfg["input_universes"].items()
    ])
    row = bells(y, ds["output_sigma"], cfg["output_universe"]).sum(axis=0)
    beta = 2.0 * dev["mu_v"] * dev["r_on"] * (dev["r_off"] - dev["r_on"]) / dev["D"] ** 2
    flux = cfg["resolved_t0"] * (col[None, :] + row[:, None])
    return np.sqrt(np.maximum(dev["r_off"] ** 2 - beta * flux, dev["r_on"] ** 2))


def _read(block: dict, m: np.ndarray, x: np.ndarray) -> np.ndarray:
    r_off = block["device"]["r_off"]
    if block["read_mode"] == "exact":
        return -(x @ (r_off / m).T - x.sum(axis=1, keepdims=True))
    return -(x @ (r_off - m).T) / r_off


def _regrid_matrix(src: dict, tgt: dict) -> np.ndarray:
    """Linear interpolation onto another grid, as a matrix (zero outside)."""
    s, t = grid(src), grid(tgt)
    return np.stack([np.interp(t, s, e, left=0.0, right=0.0) for e in np.eye(s.size)])


def predict(model: dict, points: dict, sigmas: dict) -> tuple[np.ndarray, np.ndarray]:
    """Crisp predictions and untrained-region flags for every probe.

    ``model`` is a ``model_to_json`` object. Flagged probes predict the
    output-domain midpoint, as the harness scores them.
    """
    blocks = model["blocks"] if model["kind"] == "pipeline" else [model]
    is_pipeline = model["kind"] == "pipeline"
    mats = [np.asarray(b["memristance"], dtype=float) for b in blocks]
    out_u = blocks[-1]["output_universe"]
    v = grid(out_u)
    n = len(next(iter(points.values())))
    preds, flags = np.empty(n), np.zeros(n, dtype=bool)
    for lo in range(0, n, CHUNK):
        sl = slice(lo, lo + CHUNK)
        x = np.concatenate([
            bells(points[e["name"]][sl], sigmas[e["name"]], e["universe"])
            for e in blocks[0]["inputs"]
        ], axis=1)
        flag = np.zeros(x.shape[0], dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, (block, m) in enumerate(zip(blocks, mats)):
                y = _read(block, m, x)
                flag |= ~np.any(np.abs(y) > SIGNAL_FLOOR, axis=1)
                if is_pipeline:
                    y = -y
                    peak = y.max(axis=1, keepdims=True)
                    flag |= peak[:, 0] <= 0.0
                    y = y / peak
                    if i + 1 < len(blocks):
                        y = y @ _regrid_matrix(block["output_universe"],
                                               blocks[i + 1]["inputs"][0]["universe"])
                x = y
            pred = (x @ v) / x.sum(axis=1)
        pred[flag] = 0.5 * (out_u["lo"] + out_u["hi"])
        preds[sl], flags[sl] = pred, flag
    return preds, flags


def squared_errors(model: dict, spec: dict, target: str, sigmas: dict):
    """Per-probe squared errors and flags for an evaluation spec."""
    points = eval_points(spec)
    preds, flags = predict(model, points, sigmas)
    return (preds - TARGETS[target](**points)) ** 2, flags
