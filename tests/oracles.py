"""Independent oracles for the test suite.

These deliberately avoid the package's closed-form code paths: the device
oracles time-step the drift ODE or evaluate the closed form one scalar at a
time with ``math``, and the centroid oracle is a plain Python loop. They exist so the fast implementations are checked against slower,
structurally different computations. The crossbar read oracles rebuild
their matrix from the memristance on every call, where the crossbar keeps
it until its next write; the arithmetic is the same, so reads must agree
bit for bit. ``sequential_writes`` applies write pulses one at a time,
where crossbars and relations defer threshold-free pulses and settle their
summed flux once; the two agree to float rounding. ``per_probe_mse``
evaluates one probe at a time: it walks a model's stages itself, with one
``block_infer`` per stage and its own sign, signal, peak and regrid steps,
where ``evaluate_mse`` reads a chunk of probes through ``pipeline_rows``
and conditions and defuzzifies them as arrays.
``gaussian_grades`` is the bell as first written, before ``fuzzify_gaussian``
reordered its arithmetic; the two must agree bit for bit.
``per_sample_training`` trains one sample at a time through ``block_train``,
with per-variable fuzzy numbers and a scalar target call per sample, where
``train_block`` writes the rows of a ``Dataset`` built as arrays; the two
must store the same arrays bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from crossfuzzy.fuzzy import FuzzyNumber, defuzzify_centroid, fuzzify_gaussian
from crossfuzzy.harness import target_function
from crossfuzzy.system import SIGNAL_FLOOR, block_infer, block_train


def rk4_memristance(m0: float, v: float, t: float, params, steps: int = 20000) -> float:
    """Integrate dM/dt = -b*max(v - v_th, 0) / (2*M) at constant drive v with RK4.

    b is recomputed here from the raw device constants rather than imported;
    below the write threshold v_th the film does not move.
    """
    b = 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2
    v = max(v - params.v_th, 0.0)
    h = t / steps
    m = m0
    for _ in range(steps):
        k1 = -b * v / (2.0 * m)
        k2 = -b * v / (2.0 * (m + 0.5 * h * k1))
        k3 = -b * v / (2.0 * (m + 0.5 * h * k2))
        k4 = -b * v / (2.0 * (m + h * k3))
        m += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def closed_form_memristance(m0: float, flux: float, params) -> float:
    """Memristance after ``flux`` volt-seconds: sqrt(m0**2 - b*flux), clamped at r_on.

    b is recomputed here from the raw device constants rather than imported.
    """
    b = 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2
    return math.sqrt(max(m0 * m0 - b * flux, params.r_on * params.r_on))


def pulse_memristance(m0: float, v: float, t: float, params) -> float:
    """Memristance after a pulse of v volts for t seconds, write threshold included."""
    return closed_form_memristance(m0, max(v - params.v_th, 0.0) * t, params)


def sequential_writes(m0, pulses, params, fault_mask=None):
    """Memristance after write pulses applied one at a time, and the clamp events.

    Each pulse ``(col, row, t0)`` moves flux ``max(0, (row[i] - v_th) + col[j]) * t0``
    into cell (i, j), which updates M**2 by -b * flux, clamped at r_on**2; b is
    recomputed here from the raw device constants. Cells marked in
    ``fault_mask`` keep their value, and their clamps are not counted.
    """
    b = 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2
    floor = params.r_on * params.r_on
    m = np.array(m0, dtype=float)
    stuck = np.zeros(m.shape, dtype=bool) if fault_mask is None else np.asarray(fault_mask)
    events = 0
    for col, row, t0 in pulses:
        flux = np.maximum(np.add.outer(np.asarray(row) - params.v_th, col), 0.0) * t0
        m_sq = m * m - b * flux
        events += int(np.count_nonzero((m_sq < floor) & ~stuck))
        m = np.where(stuck, m, np.sqrt(np.maximum(m_sq, floor)))
    return m, events


def read_exact(memristance, x, r_off: float):
    """Exact amplifier read-out, with ``r_off / M`` computed afresh."""
    x = np.asarray(x, dtype=float)
    return -((r_off / memristance) @ x - x.sum())


def read_ideal(memristance, x, r_off: float):
    """First-order read-out, with ``r_off - M`` computed afresh."""
    x = np.asarray(x, dtype=float)
    return (-1.0 / r_off) * ((r_off - memristance) @ x)


def delta_csv_rows(delta) -> str:
    """Surface CSV body, one ``repr(float(v))`` per cell."""
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in delta)


def gaussian_grades(x0: float, sigma: float, universe) -> np.ndarray:
    """``fuzzify_gaussian``'s grades as first written: a one-hot at the nearest
    grid point below a tenth of the resolution, else ``exp(-(v - x0)**2 / (2 sigma**2))``."""
    v = universe.lo + np.arange(universe.count) * ((universe.hi - universe.lo) / universe.count)
    if sigma < (universe.hi - universe.lo) / universe.count / 10.0:
        grades = np.zeros(universe.count)
        grades[int(np.argmin(np.abs(v - x0)))] = 1.0
        return grades
    return np.exp(-((v - x0) ** 2) / (2.0 * sigma * sigma))


def weighted_average(values, weights) -> float:
    """Pure-Python grade-weighted average."""
    num = 0.0
    den = 0.0
    for v, w in zip(values, weights):
        num += v * w
        den += w
    return num / den


def triangle(x: float, left: float, peak: float, right: float) -> float:
    """Piecewise-linear triangular membership function."""
    if x <= left or x >= right:
        return 0.0
    if x <= peak:
        return (x - left) / (peak - left)
    return (right - x) / (right - peak)


def per_probe_mse(model, target_fn, points, input_sigmas):
    """``evaluate_mse`` one probe at a time, walking the model's stages itself.

    Per probe: fuzzify; per stage, ``block_infer`` times the stage's
    ``read_sign``, a grade above ``SIGNAL_FLOOR`` in magnitude and a positive
    peak (else the probe is flagged), ``g / g.max()``, and before the next
    stage ``np.interp`` onto its input grid, which ``regrid_rows`` matches bit
    for bit; then ``defuzzify_centroid`` and the squared error as Python
    floats."""
    stages = model.blocks
    out_u = stages[-1].output_universe
    midpoint = 0.5 * (out_u.lo + out_u.hi)
    per_point, flagged = [], []
    for idx, values in enumerate(points.tolist()):
        pt = dict(zip(points.dtype.names, values))
        inputs = {
            sec.name: fuzzify_gaussian(pt[sec.name], input_sigmas[sec.name], sec.universe)
            for sec in stages[0].sections
        }
        prediction = midpoint
        for i, blk in enumerate(stages):
            g = block_infer(blk, inputs).grades * blk.read_sign
            grades = g.tolist()
            if not (any(abs(v) > SIGNAL_FLOOR for v in grades) and max(grades) > 0.0):
                flagged.append(idx)
                break
            g = g / g.max()
            if i + 1 < len(stages):
                nxt = stages[i + 1].sections[0]
                g = np.interp(nxt.universe.values, blk.output_universe.values, g,
                              left=0.0, right=0.0)
                inputs = {nxt.name: FuzzyNumber(nxt.universe, g)}
        else:
            prediction = defuzzify_centroid(FuzzyNumber(out_u, g))
        per_point.append((prediction - float(target_fn(**pt))) ** 2)
    return float(np.mean(per_point)), per_point, flagged


def per_sample_training(block, spec, input_universes, output_universe, t0):
    """``train_block(block, generate_dataset(...), t0)`` as first written: per
    sample, the crisp inputs as Python floats, one scalar target call, one
    fuzzy number per variable and for the output, and one ``block_train``."""
    fn = target_function(spec.target, spec.variables)
    rng = np.random.default_rng(spec.seed)
    draws = {name: rng.uniform(lo, hi, spec.n) for name, (lo, hi) in spec.domains.items()}
    for i in range(spec.n):
        crisp = {name: float(draws[name][i]) for name in spec.variables}
        inputs = {name: fuzzify_gaussian(crisp[name], spec.input_sigmas[name],
                                         input_universes[name])
                  for name in spec.variables}
        output = fuzzify_gaussian(float(fn(**crisp)), spec.output_sigma, output_universe)
        block_train(block, inputs, output, t0)
    return block
