import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import (
    DEFAULT_PARAMS,
    MemristorParams,
    MemristorState,
    apply_flux,
    beta,
    delta_m,
)
from crossfuzzy.fuzzy import FuzzyNumber, Universe
from crossfuzzy.relation import ImplicationParams, Relation, implication_f
from oracles import closed_form_memristance, rk4_memristance

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
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        MemristorParams(**kwargs)


def test_apply_flux_matches_closed_form_and_ode():
    out = apply_flux(MemristorState(R_OFF), DEFAULT_PARAMS, 1e-4)
    assert out.memristance == pytest.approx(M_AFTER_UNIT_FLUX, rel=1e-12)
    assert not out.saturated
    ode = rk4_memristance(R_OFF, 1.0, 1e-4, DEFAULT_PARAMS, steps=20000)
    assert out.memristance == pytest.approx(ode, rel=1e-9)


def test_apply_flux_zero_is_identity():
    state = MemristorState(54321.0)
    out = apply_flux(state, DEFAULT_PARAMS, 0.0)
    assert out.memristance == state.memristance
    assert not out.saturated


def test_apply_flux_clamps_at_r_on():
    out = apply_flux(MemristorState(R_OFF), DEFAULT_PARAMS, 1.0)
    assert out.memristance == R_ON
    assert out.saturated


def test_apply_flux_rejects_negative_flux():
    with pytest.raises(ValueError):
        apply_flux(MemristorState(R_OFF), DEFAULT_PARAMS, -1e-6)


def test_apply_flux_rejects_out_of_range_state():
    with pytest.raises(ValueError):
        apply_flux(MemristorState(R_OFF * 2), DEFAULT_PARAMS, 1e-6)


def test_delta_m_endpoints():
    assert delta_m(MemristorState(R_OFF), DEFAULT_PARAMS) == 0.0
    assert delta_m(MemristorState(R_ON), DEFAULT_PARAMS) == R_OFF - R_ON
    assert delta_m(MemristorState(M_AFTER_UNIT_FLUX), DEFAULT_PARAMS) == pytest.approx(
        DELTA_AFTER_UNIT_FLUX, rel=1e-12
    )


# -- properties -------------------------------------------------------------

state_m = st.floats(min_value=2 * R_ON, max_value=R_OFF)
small_flux = st.floats(min_value=0.0, max_value=1e-2)


@settings(max_examples=200, deadline=None)
@given(m0=state_m, flux1=small_flux, flux2=small_flux)
def test_flux_additivity(m0, flux1, flux2):
    params = DEFAULT_PARAMS
    combined = apply_flux(MemristorState(m0), params, flux1 + flux2)
    if combined.saturated:
        # Once the total clamps, the sequential path clamps too.
        step = apply_flux(apply_flux(MemristorState(m0), params, flux1), params, flux2)
        assert step.memristance == R_ON
        return
    step = apply_flux(apply_flux(MemristorState(m0), params, flux1), params, flux2)
    assert step.memristance == pytest.approx(combined.memristance, rel=1e-12)
    assert not step.saturated


@settings(max_examples=200, deadline=None)
@given(m0=state_m, flux=st.floats(min_value=1e-9, max_value=1e-2), extra=st.floats(min_value=1e-9, max_value=1e-2))
def test_flux_monotonicity_and_bounds(m0, flux, extra):
    params = DEFAULT_PARAMS
    a = apply_flux(MemristorState(m0), params, flux)
    b = apply_flux(MemristorState(m0), params, flux + extra)
    assert R_ON <= b.memristance <= a.memristance <= m0
    if not b.saturated:
        assert b.memristance < a.memristance


grade = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(m0=state_m, c=grade, r=grade, t0=st.floats(min_value=1e-9, max_value=1e-3))
def test_every_writer_matches_the_closed_form_oracle(m0, c, r, t0):
    """Device, crossbar, implication f and hardware relation against the oracle.

    Two-cell grids drive cell (i, j) with ``(col[j] + row[i]) * t0``; cell
    (1, 1) gets no drive at all, and zero flux must leave every writer
    bit-identical.
    """
    params = DEFAULT_PARAMS
    flux = (c + r) * t0
    device = apply_flux(MemristorState(m0), params, flux).memristance
    assert device == pytest.approx(closed_form_memristance(m0, flux, params), rel=1e-12)
    assert apply_flux(MemristorState(m0), params, 0.0).memristance == m0

    f = implication_f(c + r, ImplicationParams(params, t0))
    want = closed_form_memristance(R_OFF, flux, params)
    assert R_OFF - f == pytest.approx(want, rel=1e-12)
    assert implication_f(0.0, ImplicationParams(params, t0)) == 0.0

    col, row = np.array([c, 0.0]), np.array([r, 0.0])
    xb = Crossbar(2, 2, params, memristance=np.full((2, 2), m0))
    xb.write_pulse(col, row, t0)
    u = Universe(0.0, 1.0, 2)
    mu0 = np.full((2, 2), R_OFF - m0)
    rel = Relation(u, u, mode="hardware", mu=mu0)
    rel.accumulate(FuzzyNumber(u, col), FuzzyNumber(u, row), ImplicationParams(params, t0))
    for i in range(2):
        for j in range(2):
            cell_flux = (col[j] + row[i]) * t0
            want = closed_form_memristance(m0, cell_flux, params)
            assert xb.memristance[i, j] == pytest.approx(want, rel=1e-12)
            assert R_OFF - rel.mu[i, j] == pytest.approx(want, rel=1e-12)
            if cell_flux == 0.0:
                assert xb.memristance[i, j] == m0
                assert rel.mu[i, j] == mu0[i, j]


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
        closed = apply_flux(MemristorState(m0), params, v * t)
        ode = rk4_memristance(m0, v, t, params, steps=4000)
        assert not closed.saturated
        assert closed.memristance == pytest.approx(ode, rel=1e-9)
