import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.fuzzy import (
    EmptyOutputError,
    FuzzyNumber,
    Universe,
    defuzzify_centroid,
    fuzzify_gaussian,
    normalize_peak,
    regrid,
)
from oracles import triangle, weighted_average


def test_universe_grid_convention():
    u = Universe(1.0, 10.0, 90)
    assert u.resolution == 0.1
    assert u.values[0] == 1.0
    assert u.values[-1] == pytest.approx(9.9)
    z = Universe(0.0, 1.12, 100)
    assert z.resolution == pytest.approx(0.0112, rel=1e-12)


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Universe(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        Universe(2.0, 1.0, 10)


@pytest.mark.parametrize(
    "lo, hi, count",
    [
        (0.0, math.inf, 3),
        (-math.inf, 0.0, 3),
        (0.0, math.nan, 3),
        (math.nan, 1.0, 3),
        (-1e308, 1e308, 3),  # finite ends, but the width overflows
        (0.0, 1.0, 2.5),
        (0.0, 1.0, 10.0),
        (0.0, 1.0, "10"),
    ],
)
def test_universe_rejects_non_finite_ends_and_non_integer_counts(lo, hi, count):
    with pytest.raises(ValueError):
        Universe(lo, hi, count)


def test_universe_accepts_numpy_integer_counts():
    assert Universe(0.0, 1.0, np.int64(10)) == Universe(0.0, 1.0, 10)


def test_fuzzy_number_validation():
    u = Universe(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        FuzzyNumber(u, np.zeros(3))
    with pytest.raises(ValueError):
        FuzzyNumber(u, np.array([0.0, np.nan, 0.0, 0.0]))


def test_fuzzify_peak_on_grid_point():
    u = Universe(0.0, 10.0, 5)  # values 0, 2, 4, 6, 8
    fn = fuzzify_gaussian(4.0, 1.0, u)
    assert fn.grades[2] == 1.0
    assert fn.grades.max() == 1.0
    # even function of distance: symmetric grades around the center
    assert fn.grades[1] == pytest.approx(fn.grades[3], rel=1e-15)
    assert fn.grades[0] == pytest.approx(fn.grades[4], rel=1e-15)


def test_fuzzify_crisp_limit_is_one_hot():
    u = Universe(0.0, 1.0, 100)
    fn = fuzzify_gaussian(0.503, u.resolution / 20, u)
    assert fn.grades.sum() == 1.0
    assert fn.grades[50] == 1.0  # nearest grid point to 0.503 is 0.50


def test_fuzzify_validation_and_warning():
    u = Universe(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        fuzzify_gaussian(0.5, 0.0, u)
    with pytest.warns(UserWarning):
        fuzzify_gaussian(1.7, 0.1, u)


def test_centroid_symmetric_triangle():
    u = Universe(1.0, 4.0, 3)  # values 1, 2, 3
    fn = FuzzyNumber(u, np.array([0.5, 1.0, 0.5]))
    assert defuzzify_centroid(fn) == 2.0
    scaled = FuzzyNumber(u, fn.grades * 10.0)
    assert defuzzify_centroid(scaled) == 2.0


def test_centroid_unnormalized_grades():
    # Heights above 1 are legitimate for inference outputs.
    u = Universe(2.0, 5.5, 7)  # values 2, 2.5, ..., 5
    grades = [0.0, 1.0, 2.0, 1.0, 0.5, 0.0, 0.0]
    fn = FuzzyNumber(u, np.array(grades))
    expected = weighted_average(u.values, grades)
    assert expected == pytest.approx(14.0 / 4.5, rel=1e-15)
    assert defuzzify_centroid(fn) == pytest.approx(expected, rel=1e-15)


def test_centroid_rejects_degenerate_vectors():
    u = Universe(0.0, 1.0, 4)
    with pytest.raises(EmptyOutputError):
        defuzzify_centroid(FuzzyNumber(u, np.zeros(4)))
    with pytest.raises(ValueError):
        defuzzify_centroid(FuzzyNumber(u, np.array([1.0, -1.0, 0.0, 0.0])))


def test_normalize_peak():
    u = Universe(0.0, 3.0, 3)
    fn = normalize_peak(FuzzyNumber(u, np.array([0.0, 2.0, 4.0])))
    assert np.array_equal(fn.grades, [0.0, 0.5, 1.0])
    one_hot = FuzzyNumber(u, np.array([0.0, 1.0, 0.0]))
    assert np.array_equal(normalize_peak(one_hot).grades, one_hot.grades)
    with pytest.raises(EmptyOutputError):
        normalize_peak(FuzzyNumber(u, np.zeros(3)))


@settings(max_examples=100, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_normalize_is_scale_free(scale):
    u = Universe(0.0, 4.0, 4)
    g = np.array([0.1, 0.7, 0.3, 0.0])
    a = normalize_peak(FuzzyNumber(u, g))
    b = normalize_peak(FuzzyNumber(u, g * scale))
    assert np.allclose(a.grades, b.grades, rtol=1e-12, atol=0.0)


def test_regrid_identity_and_shared_points():
    u = Universe(0.0, 3.0, 3)  # values 0, 1, 2
    fn = FuzzyNumber(u, np.array([0.0, 0.5, 1.0]))
    same = regrid(fn, u)
    assert np.array_equal(same.grades, fn.grades)
    fine = Universe(0.0, 2.5, 5)  # values 0, 0.5, ..., 2 share 0, 1, 2 with u
    refined = regrid(fn, fine)
    assert refined.grades[0] == 0.0
    assert refined.grades[2] == 0.5
    assert refined.grades[4] == 1.0
    # linear ramp: interpolated midpoints sit on the line
    assert refined.grades[1] == pytest.approx(0.25, rel=1e-15)
    assert refined.grades[3] == pytest.approx(0.75, rel=1e-15)


def test_regrid_zero_outside_source_domain():
    src = Universe(0.0, 1.0, 10)  # values 0, 0.1, ..., 0.9
    fn = FuzzyNumber(src, np.ones(10))
    wide = regrid(fn, Universe(-1.0, 3.0, 40))
    v = wide.universe.values
    assert np.all(wide.grades[v < -0.05] == 0.0)
    assert np.all(wide.grades[v > 0.95] == 0.0)
    assert np.all(wide.grades[(v > 0.05) & (v < 0.85)] == 1.0)


def test_regrid_disjoint_domains_rejected():
    fn = FuzzyNumber(Universe(0.0, 1.0, 10), np.ones(10))
    with pytest.raises(ValueError):
        regrid(fn, Universe(5.0, 6.0, 10))


def test_regrid_coarse_triangle_centroid_shift():
    # Brute-force reference: the same triangle sampled on a dense grid.
    coarse = Universe(0.0, 1.0, 12)
    target = Universe(0.0, 1.0, 50)
    dense = Universe(0.0, 1.0, 10000)
    tri = lambda x: triangle(x, 0.2, 0.45, 0.8)
    fn = FuzzyNumber(coarse, np.array([tri(v) for v in coarse.values]))
    ref = FuzzyNumber(dense, np.array([tri(v) for v in dense.values]))
    moved = defuzzify_centroid(regrid(fn, target))
    assert abs(moved - defuzzify_centroid(ref)) <= target.resolution


@settings(max_examples=200, deadline=None)
@given(
    count=st.integers(min_value=20, max_value=200),
    frac=st.floats(min_value=0.0, max_value=1.0),
    sigma_cells=st.floats(min_value=0.5, max_value=5.0),
)
def test_fuzzify_defuzzify_round_trip(count, frac, sigma_cells):
    u = Universe(0.0, 1.0, count)
    sigma = sigma_cells * u.resolution
    lo, hi = 3 * sigma, 1.0 - 3 * sigma
    if lo >= hi:
        return
    x0 = lo + frac * (hi - lo)
    x1 = defuzzify_centroid(fuzzify_gaussian(x0, sigma, u))
    assert abs(x1 - x0) <= u.resolution


def test_json_round_trip():
    u = Universe(0.0, 1.12, 100)
    fn = fuzzify_gaussian(0.7, 0.056, u)
    blob = json.dumps(fn.to_json())
    back = FuzzyNumber.from_json(json.loads(blob))
    assert back.universe == u
    assert np.array_equal(back.grades, fn.grades)
