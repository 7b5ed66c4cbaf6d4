from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS, MemristorParams, beta
from crossfuzzy.fuzzy import FuzzyNumber, Universe, fuzzify_gaussian
from crossfuzzy.harness import default_config, generate_dataset
from crossfuzzy.relation import Relation, implication_f
from crossfuzzy.system import Block, model_from_json, model_to_json

R_OFF = DEFAULT_PARAMS.r_off
R_ON = DEFAULT_PARAMS.r_on
T0 = 1e-4  # s

F_OF_2 = 19.80196058821457
TWO_F_OF_1 = 19.800980197032914


def test_implication_zero_and_reference_point():
    assert implication_f(0.0, DEFAULT_PARAMS, T0) == 0.0
    assert implication_f(2.0, DEFAULT_PARAMS, T0) == pytest.approx(F_OF_2, rel=1e-12)
    assert 2.0 * implication_f(1.0, DEFAULT_PARAMS, T0) == pytest.approx(TWO_F_OF_1, rel=1e-12)


def test_implication_matches_single_device_write():
    # f(nu) is exactly the stored value a pristine crossbar cell gains from
    # one pulse whose summed grade is nu.
    xb = Crossbar(1, 1, DEFAULT_PARAMS)
    xb.write_pulse([0.75], [0.5], T0)
    f = implication_f(1.25, DEFAULT_PARAMS, T0)
    assert f == pytest.approx(xb.snapshot_delta()[0, 0], rel=1e-12)


def test_implication_rejects_negative():
    with pytest.raises(ValueError):
        implication_f(-0.1, DEFAULT_PARAMS, T0)
    nu = np.ones((3, 4))
    nu[2, 1] = -0.1  # off the first row: every entry is checked, not one axis
    with pytest.raises(ValueError, match="non-negative"):
        implication_f(nu, DEFAULT_PARAMS, T0)
    with pytest.raises(ValueError):
        implication_f(0.5, DEFAULT_PARAMS, 0.0)


def test_implication_monotone_increasing():
    nus = np.linspace(0.0, 2.0, 101)
    vals = implication_f(nus, DEFAULT_PARAMS, T0)
    assert np.all(np.diff(vals) > 0)


def test_implication_is_superadditive():
    # Convexity with f(0) = 0 makes f(a+b) >= f(a) + f(b); the gap at the
    # reference point is about 1e-3 ohm.
    def f(nu):
        return implication_f(nu, DEFAULT_PARAMS, T0)

    assert f(2.0) > 2.0 * f(1.0)
    for a, b in [(0.3, 0.4), (1.0, 0.7), (0.05, 1.9)]:
        assert f(a + b) >= f(a) + f(b)


def test_implication_saturates_at_full_swing():
    assert implication_f(2.0, DEFAULT_PARAMS, 1.0) == R_OFF - R_ON


def written_once(a: FuzzyNumber, b: FuzzyNumber, mode: str = "hardware") -> Relation:
    """A relation written by a single pulse pairing fuzzy sets a (input) and b (output)."""
    rel = Relation(a.universe, b.universe, mode=mode)
    rel.accumulate(a.grades, b.grades, T0)
    return rel


def test_relation_from_zero_sets_is_zero():
    u = Universe(0.0, 1.0, 8)
    a = FuzzyNumber(u, np.zeros(8))
    b = FuzzyNumber(u, np.zeros(8))
    rel = written_once(a, b)
    assert np.all(rel.mu == 0.0)


def test_relation_from_one_hot_sets_is_a_cross():
    ui = Universe(0.0, 1.0, 6)
    uo = Universe(0.0, 1.0, 5)
    a = np.zeros(6)
    a[2] = 1.0
    b = np.zeros(5)
    b[3] = 1.0
    rel = written_once(FuzzyNumber(ui, a), FuzzyNumber(uo, b))
    f1 = implication_f(1.0, DEFAULT_PARAMS, T0)
    expected = np.zeros((5, 6))
    expected[3, :] = f1
    expected[:, 2] = f1
    expected[3, 2] = implication_f(2.0, DEFAULT_PARAMS, T0)
    assert np.allclose(rel.mu, expected, rtol=1e-12, atol=0.0)


def test_relation_from_sets_equals_pristine_write():
    ui = Universe(0.0, 1.0, 10)
    uo = Universe(0.0, 1.0, 7)
    a = fuzzify_gaussian(0.4, 0.1, ui)
    b = fuzzify_gaussian(0.6, 0.1, uo)
    rel = written_once(a, b)
    xb = Crossbar(7, 10, DEFAULT_PARAMS)
    xb.write_pulse(a.grades, b.grades, T0)
    assert np.allclose(rel.mu, xb.snapshot_delta(), rtol=1e-12, atol=0.0)


def test_accumulate_first_pulse_mode_independent():
    ui = Universe(0.0, 1.0, 9)
    uo = Universe(0.0, 1.0, 9)
    a = fuzzify_gaussian(0.3, 0.08, ui)
    b = fuzzify_gaussian(0.7, 0.08, uo)
    add = written_once(a, b, mode="additive")
    hw = written_once(a, b, mode="hardware")
    assert np.allclose(add.mu, hw.mu, rtol=1e-12, atol=0.0)


def test_accumulate_two_identical_pulses_modes_diverge():
    u = Universe(0.0, 1.0, 2)
    a = FuzzyNumber(u, np.array([1.0, 0.0]))
    b = FuzzyNumber(u, np.array([0.0, 0.0]))
    add = written_once(a, b, mode="additive")
    add.accumulate(a.grades, b.grades, T0)
    hw = written_once(a, b, mode="hardware")
    hw.accumulate(a.grades, b.grades, T0)
    # summed grade 1 twice: additive stacks f(1) + f(1), hardware lands on f(2)
    assert add.mu[0, 0] == pytest.approx(TWO_F_OF_1, rel=1e-12)
    assert hw.mu[0, 0] == pytest.approx(F_OF_2, rel=1e-12)
    assert hw.mu[0, 0] > add.mu[0, 0]


def test_accumulate_zero_grades_is_identity():
    u = Universe(0.0, 1.0, 5)
    a = fuzzify_gaussian(0.5, 0.1, u)
    b = fuzzify_gaussian(0.5, 0.1, u)
    zero = np.zeros(5)
    for mode in ("additive", "hardware"):
        rel = written_once(a, b, mode=mode)
        before = rel.mu.copy()
        rel.accumulate(zero, zero, T0)
        assert np.array_equal(rel.mu, before)


@pytest.mark.parametrize("mode", ["additive", "hardware"])
def test_mu_is_read_only(mode):
    """``mu`` has no setter and its array refuses writes, so no weight can
    turn negative after the constructor checked them."""
    u = Universe(0.0, 1.0, 4)
    rel = Relation(u, u, mode=mode, mu=np.full((4, 4), 2.0))
    for step in (lambda: None, lambda: rel.accumulate(fuzzify_gaussian(0.5, 0.2, u).grades,
                                                      fuzzify_gaussian(0.5, 0.2, u).grades,
                                                      T0)):
        step()
        before = rel.mu.copy()
        with pytest.raises(AttributeError):
            rel.mu = np.full((4, 4), -3.0)
        with pytest.raises(ValueError):
            rel.mu[0, 0] = -3.0
        assert np.array_equal(rel.mu, before)
    assert rel.infer(fuzzify_gaussian(0.5, 0.2, u).grades).min() > 0.0


def test_universe_mismatch_rejected():
    """Rows laid out on a universe of another count than the relation's are
    refused, in writes and reads."""
    rel = Relation(Universe(0.0, 1.0, 5), Universe(0.0, 1.0, 4))
    for col, row in ((np.zeros(4), np.zeros(4)), (np.zeros(5), np.zeros(5)),
                     (np.zeros(5), np.zeros((1, 4))), (np.zeros(4), np.zeros(5))):
        with pytest.raises(ValueError, match="shape"):
            rel.accumulate(col, row, T0)
    for x in (np.zeros(4), np.zeros(6), np.zeros((1, 5)), 0.0):
        with pytest.raises(ValueError, match="shape"):
            rel.infer(x)
    assert not rel.mu.any()


def test_infer_extracts_columns_and_is_linear():
    rng = np.random.default_rng(17)
    ui = Universe(0.0, 1.0, 8)
    uo = Universe(0.0, 1.0, 6)
    rel = Relation(ui, uo, mu=rng.uniform(0, 30, (6, 8)))
    one_hot = np.zeros(8)
    one_hot[5] = 0.6
    out = rel.infer(one_hot)
    assert np.allclose(out, 0.6 * rel.mu[:, 5], rtol=1e-12, atol=0.0)
    # two-sample input: weighted sum of two columns
    two = np.zeros(8)
    two[1], two[4] = 0.3, 0.9
    out2 = rel.infer(two)
    assert np.allclose(
        out2, 0.3 * rel.mu[:, 1] + 0.9 * rel.mu[:, 4], rtol=1e-12, atol=1e-15
    )
    assert np.all(rel.infer(np.zeros(8)) == 0.0)


def test_a_clamped_hardware_relation_stays_in_range_and_reloads():
    """Rounding in the hardware chain can leave a clamped cell an ulp above
    r_off - r_on (56.00000000000001 on this 17-73 ohm device); the relation
    holds it at that top, so its state loads again from model JSON."""
    params = MemristorParams(mu_v=1e-14, d=1e-8, r_on=17.0, r_off=73.0)
    u = Universe(0.0, 1.0, 2)
    rel = Relation(u, u, mu=np.full((2, 2), 6.40028136653607), params=params)
    rel.accumulate(np.ones(2), np.ones(2), 100.0)  # clamps every cell at r_on
    assert np.array_equal(rel.mu, np.full((2, 2), 56.0))
    back = model_from_json(model_to_json(Block(rel, [("x", u)], u))).backend
    assert np.array_equal(back.mu, rel.mu) and back.params == params


# -- properties ---------------------------------------------------------------


def _random_pair(rng, ui, uo):
    """Input and output grade rows: one random bell on each universe."""
    a = fuzzify_gaussian(rng.uniform(ui.lo, ui.hi), 0.08 * (ui.hi - ui.lo), ui)
    b = fuzzify_gaussian(rng.uniform(uo.lo, uo.hi), 0.08 * (uo.hi - uo.lo), uo)
    return a.grades, b.grades


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), pulses=st.integers(min_value=1, max_value=8))
def test_hardware_relation_tracks_crossbar(seed, pulses):
    rng = np.random.default_rng(seed)
    ui = Universe(0.0, 1.0, 12)
    uo = Universe(0.0, 1.0, 9)
    t0 = 1e-6
    rel = Relation(ui, uo, mode="hardware")
    xb = Crossbar(9, 12, DEFAULT_PARAMS)
    for _ in range(pulses):
        a, b = _random_pair(rng, ui, uo)
        rel.accumulate(a, b, t0)
        xb.write_pulse(a, b, t0)
    assert np.allclose(rel.mu, xb.snapshot_delta(), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("v_th", [0.0, 1.0])
def test_hardware_relation_equals_its_crossbar_bit_for_bit(v_th):
    """Trained from zero on exp-f1's data, a relation holds exactly r_off - M."""
    cfg = default_config("exp-f1")
    cfg = replace(cfg, device=replace(cfg.device, v_th=v_th))
    ui, uo = cfg.input_universes["x"], cfg.output_universe
    t0 = cfg.resolved_t0()
    rel = Relation(ui, uo, mode="hardware", params=cfg.device)
    xb = Crossbar(uo.count, ui.count, cfg.device)
    dataset = generate_dataset(cfg.dataset, cfg.input_universes, uo)
    for drive, output in zip(dataset.drives, dataset.outputs):
        rel.accumulate(drive, output, t0)
        xb.write_pulse(drive, output, t0)
    assert np.array_equal(rel.mu, xb.snapshot_delta())
    assert rel.mu.max() > 1.0  # ohm: the run wrote something


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), pulses=st.integers(min_value=2, max_value=40))
def test_mode_gap_is_one_sided_and_small(seed, pulses):
    """Within the write budget the modes agree to 5e-4 with hardware ahead."""
    rng = np.random.default_rng(seed)
    ui = Universe(0.0, 1.0, 10)
    uo = Universe(0.0, 1.0, 10)
    pairs = [_random_pair(rng, ui, uo) for _ in range(pulses)]
    total_nu = sum(a[None, :] + b[:, None] for a, b in pairs)
    t0 = 1e-3 * R_OFF**2 / (beta(DEFAULT_PARAMS) * total_nu.max())
    add = Relation(ui, uo, mode="additive")
    hw = Relation(ui, uo, mode="hardware")
    for a, b in pairs:
        add.accumulate(a, b, t0)
        hw.accumulate(a, b, t0)
    assert np.all(hw.mu >= add.mu - 1e-9)
    # Relative agreement is only defined above the float-quantization scale:
    # the r_off^2 subtraction quantizes stored values at ~1e-11 ohm, so cells
    # under a micro-ohm (budget-scale cells hold ~100 ohm) are skipped.
    mask = add.mu > 1e-6
    gap = np.abs(hw.mu[mask] - add.mu[mask]) / add.mu[mask]
    assert gap.max() <= 5e-4


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_infer_linearity(seed):
    rng = np.random.default_rng(seed)
    ui = Universe(0.0, 1.0, 11)
    uo = Universe(0.0, 1.0, 7)
    rel = Relation(ui, uo, mu=rng.uniform(0, 40, (7, 11)))
    x = rng.uniform(0, 1, 11)
    z = rng.uniform(0, 1, 11)
    a, b = rng.uniform(-3, 3, 2)
    lhs = rel.infer(a * x + b * z)
    rhs = a * rel.infer(x) + b * rel.infer(z)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), pulses=st.integers(min_value=1, max_value=6))
def test_monotone_learning(seed, pulses):
    rng = np.random.default_rng(seed)
    ui = Universe(0.0, 1.0, 9)
    uo = Universe(0.0, 1.0, 9)
    t0 = 10 ** rng.uniform(-6, -4)
    for mode in ("additive", "hardware"):
        rel = Relation(ui, uo, mode=mode)
        for _ in range(pulses):
            before = rel.mu.copy()
            rel.accumulate(*_random_pair(rng, ui, uo), t0)
            assert np.all(rel.mu >= before - 1e-9)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_read_ideal_bridges_to_infer(seed):
    """A fault-free crossbar read equals -(1/r_off) times the oracle inference."""
    rng = np.random.default_rng(seed)
    ui = Universe(0.0, 1.0, 10)
    uo = Universe(0.0, 1.0, 8)
    t0 = 1e-6
    rel = Relation(ui, uo, mode="hardware")
    xb = Crossbar(8, 10, DEFAULT_PARAMS)
    for _ in range(4):
        a, b = _random_pair(rng, ui, uo)
        rel.accumulate(a, b, t0)
        xb.write_pulse(a, b, t0)
    probe = fuzzify_gaussian(rng.uniform(0, 1), 0.07, ui).grades
    lhs = xb.read_ideal(probe)
    rhs = (-1.0 / R_OFF) * rel.infer(probe)
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-15)
