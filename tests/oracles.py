"""Independent oracles for the test suite.

These deliberately avoid the package's closed-form code paths: the device
oracles time-step the drift ODE or evaluate the closed form one scalar at a
time with ``math``, and the centroid oracle is a plain Python loop. They exist so the fast implementations are checked against slower,
structurally different computations.
"""

from __future__ import annotations

import math


def rk4_memristance(m0: float, v: float, t: float, params, steps: int = 20000) -> float:
    """Integrate dM/dt = -b*v / (2*M) at constant drive voltage v with RK4.

    b is recomputed here from the raw device constants rather than imported.
    """
    b = 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2
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
