"""End-to-end acceptance gate.

Each test runs one numbered criterion at its pinned tolerance, prints a
single "[criterion N] ... PASS/FAIL" line with the measured values, and then
asserts. Runtime ceilings are part of the criteria. The experiment-level
criteria (4-7) run each named experiment's default configuration on the
threshold device (write threshold ``V_TH`` = 1 V): the default device has no
threshold, so its pulses write ``t0 * (a + b)`` and a trained crossbar holds
only the marginals of the training data. At 1 V, one line's full drive,
each pulse writes ``t0 * max(0, a + b - 1)``, the Lukasiewicz conjunction of
the two grades. See the README's "Known limitations" section.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS, apply_flux, beta
from crossfuzzy.fuzzy import FuzzyNumber, Universe, defuzzify_centroid, fuzzify_gaussian
from crossfuzzy.harness import default_config, run_experiment, target_function
from crossfuzzy.relation import Relation, implication_f
from crossfuzzy.system import model_from_json
from oracles import rk4_memristance

R_ON = DEFAULT_PARAMS.r_on
R_OFF = DEFAULT_PARAMS.r_off

#: Write threshold (V) of the device criteria 4-7 run on. Drive is 1 V per
#: unit grade, and max(0, a + b - theta) is a t-norm only at theta = 1.
V_TH = 1.0


def report(num: int, label: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    return line


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_device_closed_form():
    started = time.perf_counter()
    b = beta(DEFAULT_PARAMS)
    beta_rel = abs(b - 1.98e10) / 1.98e10
    f2 = implication_f(2.0, DEFAULT_PARAMS, 1e-4)
    # 19.802 is the derived value rounded to three decimals; check the
    # rounding and pin the full precision against the ODE oracle.
    display_ok = round(f2, 3) == 19.802
    ode = R_OFF - rk4_memristance(R_OFF, 2.0, 1e-4, DEFAULT_PARAMS, steps=20000)
    ode_rel = abs(f2 - ode) / ode
    elapsed = time.perf_counter() - started
    ok = beta_rel <= 1e-9 and display_ok and ode_rel <= 1e-6 and elapsed < 1.0
    line = report(
        1,
        "device/implication closed form",
        ok,
        f"beta={b:.6e} (rel {beta_rel:.1e}), f(2)={f2:.9f} ohm, "
        f"ode rel {ode_rel:.1e}, {elapsed:.2f}s",
    )
    assert ok, line


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_circuit_vs_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2202)
    worst_gap_ratio = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 101))
        n = int(rng.integers(1, 101))
        eps = rng.uniform(1e-5, 1e-3)
        delta = rng.uniform(0.0, 1.0, (m, n))
        delta *= eps * R_OFF / delta.max()
        xb = Crossbar.from_delta(delta, DEFAULT_PARAMS)
        x = rng.uniform(0.0, 1.0, n)
        oracle = (-1.0 / R_OFF) * (xb.snapshot_delta() @ x)
        assert np.array_equal(xb.read_ideal(x), oracle), "ideal read != matrix product"
        eps_actual = xb.snapshot_delta().max() / R_OFF
        bound = x.sum() * eps_actual**2 / (1.0 - eps_actual)
        gap = np.abs(xb.read_exact(x) - xb.read_ideal(x))
        worst_gap_ratio = max(worst_gap_ratio, float(gap.max() / bound))
        assert np.all(gap <= bound + 1e-15)
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    line = report(
        2,
        "circuit-vs-oracle equivalence",
        ok,
        f"50 crossbars; ideal==product bitwise; worst exact-ideal gap at "
        f"{worst_gap_ratio:.2f} of the second-order bound; {elapsed:.2f}s",
    )
    assert ok, line


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_hardware_additive_reconciliation():
    started = time.perf_counter()
    rng = np.random.default_rng(3303)
    worst_rel_gap = 0.0
    for _ in range(30):
        ui = Universe(0.0, 1.0, int(rng.integers(4, 15)))
        uo = Universe(0.0, 1.0, int(rng.integers(4, 15)))
        pulses = int(rng.integers(2, 101))
        pairs = []
        for _ in range(pulses):
            a = fuzzify_gaussian(rng.uniform(0, 1), rng.uniform(0.03, 0.2), ui)
            bfn = fuzzify_gaussian(rng.uniform(0, 1), rng.uniform(0.03, 0.2), uo)
            pairs.append((a, bfn))
        total_nu = sum(a.grades[None, :] + b.grades[:, None] for a, b in pairs)
        # place the whole sequence exactly at the stated write budget
        t0 = 1e-3 * R_OFF**2 / (beta(DEFAULT_PARAMS) * total_nu.max())
        add = Relation(ui, uo, mode="additive")
        hw = Relation(ui, uo, mode="hardware")
        for a, bfn in pairs:
            add.accumulate(a.grades, bfn.grades, t0)
            hw.accumulate(a.grades, bfn.grades, t0)
        # one-sided bias: sequential (hardware) accumulation runs ahead of
        # the additive sum because the per-pulse increment is convex
        assert np.all(hw.mu >= add.mu - 1e-9)
        # relative agreement is evaluated above the float-quantization scale
        # (sub-micro-ohm cells are rounding dust; budget cells hold ~100 ohm)
        mask = add.mu > 1e-6
        rel_gap = float((np.abs(hw.mu - add.mu)[mask] / add.mu[mask]).max())
        worst_rel_gap = max(worst_rel_gap, rel_gap)
        assert rel_gap <= 5e-4
    elapsed = time.perf_counter() - started
    ok = elapsed < 10.0
    line = report(
        3,
        "hardware/additive reconciliation",
        ok,
        f"30 sequences (<=100 pulses); pointwise agreement, worst rel gap "
        f"{worst_rel_gap:.2e} <= 5e-4 with hardware >= additive; {elapsed:.2f}s",
    )
    assert ok, line


# -- criteria 4-7: full experiment runs ---------------------------------------


def threshold_config(name: str, output_dir: str):
    """The named experiment's default configuration on the ``V_TH`` device."""
    cfg = default_config(name, output_dir=output_dir)
    return replace(cfg, device=replace(cfg.device, v_th=V_TH))


def _argmax_tracking(result_model_path: str, target, sigma: float):
    with open(result_model_path) as fh:
        stage, = model_from_json(json.load(fh)).blocks
    delta = stage.snapshot_delta()
    in_u = stage.sections[0].universe
    out_u = stage.output_universe
    tolerance = 2.0 * out_u.resolution
    worst = 0.0
    bad = 0
    total = 0
    for j, xj in enumerate(in_u.values):
        if xj < in_u.lo + 3 * sigma or xj > in_u.hi - 3 * sigma:
            continue
        total += 1
        y_hat = out_u.values[int(np.argmax(delta[:, j]))]
        err = abs(y_hat - target(xj))
        worst = max(worst, err)
        if err > tolerance:
            bad += 1
    return bad, total, worst, tolerance


@pytest.mark.parametrize("name,target", [("exp-f1", lambda x: x * x), ("exp-f2", np.sqrt)])
def test_criterion_4_shape_recovery(tmp_path, name, target):
    started = time.perf_counter()
    cfg = threshold_config(name, str(tmp_path / name))
    result = run_experiment(name, cfg)
    elapsed = time.perf_counter() - started
    bad, total, worst, tolerance = _argmax_tracking(result.model_path, target, sigma=0.05)
    ok = bad == 0 and elapsed < 30.0
    line = report(
        4,
        f"{name} shape recovery (column argmax)",
        ok,
        f"{total - bad}/{total} interior columns within {tolerance:.3f}; "
        f"worst |argmax - target| = {worst:.3f}; mse={result.mse:.4f}; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_composition_identity(tmp_path):
    started = time.perf_counter()
    cfg = threshold_config("exp-compose", str(tmp_path / "exp-compose"))
    result = run_experiment("exp-compose", cfg)
    elapsed = time.perf_counter() - started
    ok = result.mse <= 0.02 and elapsed < 30.0
    line = report(
        5,
        "composed pipeline approximates identity",
        ok,
        f"mse={result.mse:.4f} (tolerance 0.02) over 100 seeded points in "
        f"[0.05, 0.95]; {elapsed:.1f}s",
    )
    assert ok, line


@pytest.fixture(scope="module")
def fault_free_two_input(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp-2input")
    cfg = threshold_config("exp-2input", str(out))
    started = time.perf_counter()
    result = run_experiment("exp-2input", cfg)
    return result, time.perf_counter() - started


@pytest.fixture(scope="module")
def faulty_two_input(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp-2input-faulty")
    cfg = threshold_config("exp-2input-faulty", str(out))
    started = time.perf_counter()
    result = run_experiment("exp-2input-faulty", cfg)
    return result, time.perf_counter() - started


def test_criterion_6_two_input_mse(fault_free_two_input):
    result, elapsed = fault_free_two_input
    ok = result.mse <= 0.05 and elapsed < 120.0
    line = report(
        6,
        "two-input modeling error",
        ok,
        f"mse={result.mse:.4f} (tolerance 0.05) on the 30x30 lattice, "
        f"800 samples; {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_7_fault_tolerance(fault_free_two_input, faulty_two_input):
    clean, _ = fault_free_two_input
    faulty, elapsed = faulty_two_input
    ratio = faulty.mse / clean.mse
    ok = faulty.mse <= 0.06 and ratio <= 3.0 and elapsed < 120.0
    line = report(
        7,
        "50% stuck-at fault tolerance",
        ok,
        f"mse={faulty.mse:.4f} (tolerance 0.06), {ratio:.2f}x the fault-free "
        f"mse (tolerance 3x); {elapsed:.1f}s",
    )
    assert ok, line


# -- criterion 8: randomized property suite -----------------------------------


def _centroid_scaling_cases(count: int) -> int:
    rng = np.random.default_rng(8801)
    for _ in range(count):
        u = Universe(0.0, float(rng.uniform(0.5, 10)), int(rng.integers(3, 60)))
        g = rng.uniform(0.0, 1.0, u.count)
        g[int(rng.integers(0, u.count))] = 1.0
        k = 10.0 ** rng.uniform(-6, 6)
        a = defuzzify_centroid(FuzzyNumber(u, g))
        b = defuzzify_centroid(FuzzyNumber(u, k * g))
        assert a == pytest.approx(b, rel=1e-9)
    return count


def _flux_additivity_cases(count: int) -> int:
    rng = np.random.default_rng(8802)
    done = 0
    while done < count:
        m0 = rng.uniform(2 * R_ON, R_OFF)
        f1, f2 = rng.uniform(0, 2e-3, 2)
        combined, clamped = apply_flux(m0, DEFAULT_PARAMS, f1 + f2)
        if clamped:
            continue
        stepped, _ = apply_flux(apply_flux(m0, DEFAULT_PARAMS, f1)[0], DEFAULT_PARAMS, f2)
        assert stepped == pytest.approx(combined, rel=1e-12)
        done += 1
    return done


def _write_monotonicity_cases(count: int) -> int:
    rng = np.random.default_rng(8803)
    for _ in range(count):
        xb = Crossbar(int(rng.integers(1, 12)), int(rng.integers(1, 12)), DEFAULT_PARAMS)
        prev_delta = xb.snapshot_delta()
        for _ in range(int(rng.integers(1, 4))):
            before = xb.memristance.copy()
            xb.write_pulse(
                rng.uniform(0.01, 1.0, xb.cols),
                rng.uniform(0.01, 1.0, xb.rows),
                10.0 ** rng.uniform(-6, -3),
            )
            assert np.all(xb.memristance <= before)
            delta = xb.snapshot_delta()
            assert np.all(delta >= prev_delta)
            prev_delta = delta
    return count


def _infer_linearity_cases(count: int) -> int:
    rng = np.random.default_rng(8804)
    for _ in range(count):
        ui = Universe(0.0, 1.0, int(rng.integers(2, 16)))
        uo = Universe(0.0, 1.0, int(rng.integers(2, 16)))
        rel = Relation(ui, uo, mu=rng.uniform(0, 50, (uo.count, ui.count)))
        x = rng.uniform(0, 1, ui.count)
        z = rng.uniform(0, 1, ui.count)
        a, b = rng.uniform(-3, 3, 2)
        lhs = rel.infer(a * x + b * z)
        rhs = a * rel.infer(x) + b * rel.infer(z)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)
    return count


def _fault_determinism_cases(count: int) -> int:
    rng = np.random.default_rng(8805)
    for _ in range(count):
        m, n = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        fraction = float(rng.uniform(0, 1))
        seed = int(rng.integers(0, 2**31))
        a = Crossbar(m, n, DEFAULT_PARAMS)
        b = Crossbar(m, n, DEFAULT_PARAMS)
        a.inject_faults(fraction, seed)
        b.inject_faults(fraction, seed)
        assert np.array_equal(a.fault_mask, b.fault_mask)
        assert int(a.fault_mask.sum()) == int(fraction * m * n)
    return count


def test_criterion_8_property_suite():
    started = time.perf_counter()
    counts = {
        "centroid scaling": _centroid_scaling_cases(200),
        "flux additivity": _flux_additivity_cases(200),
        "write monotonicity": _write_monotonicity_cases(200),
        "infer linearity": _infer_linearity_cases(200),
        "fault determinism": _fault_determinism_cases(200),
    }
    elapsed = time.perf_counter() - started
    ok = all(v >= 200 for v in counts.values())
    line = report(
        8,
        "randomized property suite",
        ok,
        f"{', '.join(f'{k}: {v}' for k, v in counts.items())}; {elapsed:.1f}s",
    )
    assert ok, line
