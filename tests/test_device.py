import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import (
    DEFAULT_PARAMS,
    MemristorParams,
    apply_flux,
    beta,
)
from crossfuzzy.fuzzy import Universe
from crossfuzzy.relation import Relation, implication_f
from oracles import closed_form_memristance, pulse_memristance, rk4_memristance

R_ON = DEFAULT_PARAMS.r_on
R_OFF = DEFAULT_PARAMS.r_off

# Closed-form expectations, cross-checked against the RK4 oracle below.
M_AFTER_UNIT_FLUX = 99990.09950990148  # pristine device, 1e-4 V*s
DELTA_AFTER_UNIT_FLUX = 9.900490098516457


def test_beta_reference_constants():
    assert beta(DEFAULT_PARAMS) == pytest.approx(1.98e10, rel=1e-9)


def test_beta_linear_in_mobility():
    doubled = MemristorParams(2e-14, 1e-8, 1e3, 1e5)
    assert beta(doubled) == pytest.approx(2 * beta(DEFAULT_PARAMS), rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mu_v=0.0, d=1e-8, r_on=1e3, r_off=1e5),
        dict(mu_v=-1e-14, d=1e-8, r_on=1e3, r_off=1e5),
        dict(mu_v=1e-14, d=0.0, r_on=1e3, r_off=1e5),
        dict(mu_v=1e-14, d=1e-8, r_on=0.0, r_off=1e5),
        dict(mu_v=1e-14, d=1e-8, r_on=1e5, r_off=1e5),  # degenerate r_on == r_off
        dict(mu_v=1e-14, d=1e-8, r_on=2e5, r_off=1e5),
        dict(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5, v_th=-0.1),
        dict(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5, v_th=math.nan),
        dict(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5, v_th=math.inf),
        dict(mu_v=math.inf, d=1e-8, r_on=1e3, r_off=1e5),
        dict(mu_v=math.nan, d=1e-8, r_on=1e3, r_off=1e5),
        dict(mu_v=1e-14, d=math.inf, r_on=1e3, r_off=1e5),
        dict(mu_v=1e-14, d=math.nan, r_on=1e3, r_off=1e5),
        dict(mu_v=1e-14, d=1e-8, r_on=math.nan, r_off=1e5),
        dict(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=math.inf),
        dict(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=math.nan),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MemristorParams(**kwargs)


def test_apply_flux_matches_closed_form_and_ode():
    m, clamped = apply_flux(R_OFF, DEFAULT_PARAMS, 1e-4)
    assert m == pytest.approx(M_AFTER_UNIT_FLUX, rel=1e-12)
    assert R_OFF - m == pytest.approx(DELTA_AFTER_UNIT_FLUX, rel=1e-12)
    assert not clamped
    ode = rk4_memristance(R_OFF, 1.0, 1e-4, DEFAULT_PARAMS, steps=20000)
    assert m == pytest.approx(ode, rel=1e-9)


def test_apply_flux_zero_is_identity():
    assert apply_flux(54321.0, DEFAULT_PARAMS, 0.0) == (54321.0, False)


def test_apply_flux_clamps_at_r_on():
    assert apply_flux(R_OFF, DEFAULT_PARAMS, 1.0) == (R_ON, True)


def test_apply_flux_rejects_negative_flux():
    with pytest.raises(ValueError):
        apply_flux(R_OFF, DEFAULT_PARAMS, -1e-6)


def test_apply_flux_rejects_out_of_range_state():
    with pytest.raises(ValueError):
        apply_flux(R_OFF * 2, DEFAULT_PARAMS, 1e-6)


# -- properties -------------------------------------------------------------

state_m = st.floats(min_value=2 * R_ON, max_value=R_OFF)
small_flux = st.floats(min_value=0.0, max_value=1e-2)


@settings(max_examples=200, deadline=None)
@given(m0=state_m, flux1=small_flux, flux2=small_flux)
def test_flux_additivity(m0, flux1, flux2):
    params = DEFAULT_PARAMS
    combined, clamped = apply_flux(m0, params, flux1 + flux2)
    step, step_clamped = apply_flux(apply_flux(m0, params, flux1)[0], params, flux2)
    if clamped:
        # Once the total clamps, the sequential path clamps too.
        assert step == R_ON
        return
    assert step == pytest.approx(combined, rel=1e-12)
    assert not step_clamped


@settings(max_examples=200, deadline=None)
@given(m0=state_m, flux=st.floats(min_value=1e-9, max_value=1e-2), extra=st.floats(min_value=1e-9, max_value=1e-2))
def test_flux_monotonicity_and_bounds(m0, flux, extra):
    params = DEFAULT_PARAMS
    a, _ = apply_flux(m0, params, flux)
    b, b_clamped = apply_flux(m0, params, flux + extra)
    assert R_ON <= b <= a <= m0
    if not b_clamped:
        assert b < a


grade = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(
    m0=state_m,
    c=grade,
    r=grade,
    t0=st.floats(min_value=1e-9, max_value=1e-3),
    v_th=st.floats(min_value=0.0, max_value=2.0, exclude_max=True),
)
def test_every_writer_matches_the_closed_form_oracle(m0, c, r, t0, v_th):
    """Device, crossbar, implication f and both relation modes against the oracle.

    Two-cell grids drive cell (i, j) at ``col[j] + row[i]`` volts for ``t0``
    seconds, of which only the part above the write threshold ``v_th`` moves
    flux; ``apply_flux`` takes flux directly. Cell (1, 1) gets no drive at
    all, and zero flux must leave every writer bit-identical.
    """
    params = replace(DEFAULT_PARAMS, v_th=v_th)
    flux = (c + r) * t0
    device, _ = apply_flux(m0, params, flux)
    assert device == pytest.approx(closed_form_memristance(m0, flux, params), rel=1e-12)
    assert apply_flux(m0, params, 0.0)[0] == m0

    f = implication_f(c + r, params, t0)
    want = pulse_memristance(R_OFF, c + r, t0, params)
    assert R_OFF - f == pytest.approx(want, rel=1e-12)
    assert implication_f(0.0, params, t0) == 0.0

    col, row = np.array([c, 0.0]), np.array([r, 0.0])
    xb = Crossbar(2, 2, params, memristance=np.full((2, 2), m0))
    xb.write_pulse(col, row, t0)
    u = Universe(0.0, 1.0, 2)
    mu0 = np.full((2, 2), R_OFF - m0)
    hw = Relation(u, u, mode="hardware", mu=mu0, params=params)
    add = Relation(u, u, mode="additive", params=params)
    for rel in (hw, add):
        rel.accumulate(col, row, t0)
    for i in range(2):
        for j in range(2):
            drive = col[j] + row[i]
            want = pulse_memristance(m0, drive, t0, params)
            assert xb.memristance[i, j] == pytest.approx(want, rel=1e-12)
            assert R_OFF - hw.mu[i, j] == pytest.approx(want, rel=1e-12)
            fresh = pulse_memristance(R_OFF, drive, t0, params)
            assert R_OFF - add.mu[i, j] == pytest.approx(fresh, rel=1e-12)
            if drive == 0.0:
                assert xb.memristance[i, j] == m0
                assert hw.mu[i, j] == mu0[i, j]
                assert add.mu[i, j] == 0.0


THRESHOLD_PARAMS = replace(DEFAULT_PARAMS, v_th=1.0)
maybe_zero = st.one_of(st.just(0.0), grade)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=6),
    t0=st.floats(min_value=1e-9, max_value=1e-3),
)
def test_zero_grade_lines_are_never_written_at_one_volt(data, rows, cols, t0):
    """At v_th = 1 a line at grade 0 leaves its cells bit-identical.

    The other line's drive is at most 1 V, which does not exceed the
    threshold, so ``max(0, a + b - 1)`` is exactly 0 (a t-norm: T(a, 0) = 0).
    """
    m0 = np.array(data.draw(st.lists(state_m, min_size=rows * cols, max_size=rows * cols)))
    m0 = m0.reshape(rows, cols)
    xb = Crossbar(rows, cols, THRESHOLD_PARAMS, memristance=m0)
    ui, uo = Universe(0.0, 1.0, cols), Universe(0.0, 1.0, rows)
    rel = Relation(ui, uo, mode="hardware", mu=R_OFF - m0, params=THRESHOLD_PARAMS)
    mu0 = rel.mu.copy()
    idle = np.ones((rows, cols), dtype=bool)  # a grade-0 line in every pulse so far
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        col = np.array(data.draw(st.lists(maybe_zero, min_size=cols, max_size=cols)))
        row = np.array(data.draw(st.lists(maybe_zero, min_size=rows, max_size=rows)))
        xb.write_pulse(col, row, t0)
        rel.accumulate(col, row, t0)
        idle &= (row[:, None] == 0.0) | (col[None, :] == 0.0)
    assert np.array_equal(xb.memristance[idle], m0[idle])
    assert np.array_equal(rel.mu[idle], mu0[idle])


@pytest.mark.parametrize("v, v_th", [(2.0, 1.0), (1.6, 1.0), (1.0, 1.0), (0.4, 1.0), (1.9, 1.5)])
def test_threshold_write_matches_ode(v, v_th):
    """A pristine cell driven at v volts, integrated through the threshold ODE."""
    params = replace(DEFAULT_PARAMS, v_th=v_th)
    xb = Crossbar(1, 1, params)
    xb.write_pulse([v / 2], [v / 2], 1e-4)
    ode = rk4_memristance(R_OFF, v, 1e-4, params, steps=2000)
    assert xb.memristance[0, 0] == pytest.approx(ode, rel=1e-9)
    if v <= v_th:
        assert xb.memristance[0, 0] == R_OFF


def test_ode_agreement_on_random_states():
    """Closed form vs explicit integration on 100 random (M0, v, t) triples."""
    rng = np.random.default_rng(12345)
    params = DEFAULT_PARAMS
    b = beta(params)
    for _ in range(100):
        m0 = rng.uniform(2 * R_ON, R_OFF)
        v = rng.uniform(0.05, 2.0)
        # Stay clear of the clamp: spend at most 60 % of the flux budget.
        t = rng.uniform(0.1, 0.6) * (m0**2 - R_ON**2) / (b * v)
        closed, clamped = apply_flux(m0, params, v * t)
        ode = rk4_memristance(m0, v, t, params, steps=4000)
        assert not clamped
        assert closed == pytest.approx(ode, rel=1e-9)
