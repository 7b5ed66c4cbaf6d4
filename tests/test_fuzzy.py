import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.fuzzy import (
    EmptyOutputError,
    FuzzyNumber,
    Universe,
    centroid_rows,
    defuzzify_centroid,
    fuzzify_gaussian,
    normalize_peak,
    normalize_peak_rows,
    regrid,
    regrid_rows,
)
from oracles import gaussian_grades, triangle, weighted_average


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


GRADE_ROWS = st.integers(2, 30).flatmap(
    lambda n: st.lists(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any),
                       min_size=1, max_size=8).map(np.array))


@settings(max_examples=100, deadline=None)
@given(rows=GRADE_ROWS, lo=st.floats(-5.0, 5.0), width=st.floats(0.1, 10.0))
def test_row_functions_are_their_rows_taken_alone(rows, lo, width):
    """A row's centroid and peak normalization do not depend on the rows
    beside it, and centroids match the pure-Python weighted average."""
    u = Universe(lo, lo + width, rows.shape[1])
    centroids = centroid_rows(u, rows)
    peaked = normalize_peak_rows(rows)
    for k, row in enumerate(rows):
        assert centroids[k] == defuzzify_centroid(FuzzyNumber(u, row))
        assert centroids[k] == pytest.approx(weighted_average(u.values, row), rel=1e-12, abs=1e-12)
        assert np.array_equal(peaked[k], normalize_peak(FuzzyNumber(u, row)).grades)


@settings(max_examples=100, deadline=None)
@given(
    src=st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 4.0), st.integers(2, 40)),
    tgt=st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 4.0), st.integers(2, 40)),
    seed=st.integers(0, 2**32 - 1),
)
def test_regrid_rows_equal_np_interp(src, tgt, seed):
    """Each row regrids bit for bit as ``np.interp`` (zero outside) does it."""
    source = Universe(src[0], src[0] + src[1], src[2])
    target = Universe(tgt[0], tgt[0] + tgt[1], tgt[2])
    rows = np.random.default_rng(seed).uniform(0.0, 1.0, (5, source.count))
    if source.values[-1] < target.values[0] or target.values[-1] < source.values[0]:
        with pytest.raises(ValueError, match="disjoint"):
            regrid_rows(rows, source, target)
        return
    want = [np.interp(target.values, source.values, row, left=0.0, right=0.0) for row in rows]
    assert np.array_equal(regrid_rows(rows, source, target), np.array(want))
    shared = Universe(source.lo, source.hi, source.count)  # every target point hits a grid point
    assert np.array_equal(regrid_rows(rows, source, shared), rows)


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


UNIVERSES = st.sampled_from([Universe(0.0, 1.0, 100), Universe(1.0, 10.0, 90),
                             Universe(0.0, 1.12, 100), Universe(-3.0, 5.0, 7)])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), universe=UNIVERSES, one_hot=st.booleans())
def test_fuzzify_gaussian_equals_the_oracle_bit_for_bit(data, universe, one_hot):
    """Over crisp values in and out of the universe and widths on both sides
    of the one-hot switch, the grades equal the first-written expression
    bit for bit and are a float array of the universe's length."""
    width = universe.hi - universe.lo
    x0 = data.draw(st.floats(universe.lo - 2 * width, universe.hi + 2 * width))
    tenth = universe.resolution / 10.0
    sigma = data.draw(st.floats(tenth * 1e-6, tenth, exclude_max=True) if one_hot
                      else st.floats(tenth, 1e6 * width))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # x0 outside the universe
        fn = fuzzify_gaussian(x0, sigma, universe)
    want = gaussian_grades(x0, sigma, universe)
    assert fn.universe is universe
    assert fn.grades.dtype == float and fn.grades.shape == (universe.count,)
    assert fn.grades.tobytes() == want.tobytes()


def test_json_round_trip():
    u = Universe(0.0, 1.12, 100)
    fn = fuzzify_gaussian(0.7, 0.056, u)
    blob = json.dumps(fn.to_json())
    back = FuzzyNumber.from_json(json.loads(blob))
    assert back.universe == u
    assert np.array_equal(back.grades, fn.grades)


WIDE_ENDS = (st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                      max_size=2, unique=True).map(sorted)
             .filter(lambda ends: math.isfinite(ends[1] - ends[0])))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), wide=st.booleans())
def test_far_bells_equal_the_oracle_wherever_it_does_not_overflow(data, wide):
    """Over every finite crisp value on four paper-sized universes, and every
    crisp value inside universes with ends anywhere in the float range, with
    bell widths from the one-hot switch to the float limit: where the
    first-written expression computes without overflow or a division by zero,
    the grades equal it bit for bit; elsewhere they are still grades in
    [0, 1], and numpy reports neither (the suite makes its warnings errors)."""
    if wide:
        lo, hi = data.draw(WIDE_ENDS)
        universe = Universe(lo, hi, data.draw(st.integers(2, 200)))
        x0 = data.draw(st.floats(lo, hi))
    else:
        universe = data.draw(UNIVERSES)
        x0 = data.draw(st.floats(allow_nan=False, allow_infinity=False))
    sigma = data.draw(st.floats(universe.resolution / 10.0, sys.float_info.max)
                      .filter(lambda s: s > 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # x0 outside the universe
        fn = fuzzify_gaussian(x0, sigma, universe)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            want = gaussian_grades(x0, sigma, universe)
    except FloatingPointError:
        assert ((0.0 <= fn.grades) & (fn.grades <= 1.0)).all()
        return
    assert fn.grades.tobytes() == want.tobytes()
