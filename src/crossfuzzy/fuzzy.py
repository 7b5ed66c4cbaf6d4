"""Discrete universes of discourse and fuzzy numbers as membership vectors.

A ``Universe`` is a uniform grid of ``count`` concept values covering
``[lo, hi)`` with resolution ``(hi - lo) / count``; grid point ``j`` sits at
``lo + j * resolution``. A ``FuzzyNumber`` pairs one membership grade with
each grid point. Grades produced by fuzzification live in [0, 1]; grades
produced by circuit reads are raw voltages and may be negative or exceed 1,
which is fine because centroid defuzzification is scale- and sign-invariant.

``centroid_rows``, ``normalize_peak_rows`` and ``regrid_rows`` work on
grade matrices, one fuzzy number per row (the last axis holds the grades, so
a single grade vector is one row); ``defuzzify_centroid``,
``normalize_peak`` and ``regrid`` are their one-row case.

A universe is written and read as JSON by ``jsonio`` (keys ``lo``, ``hi`` and
``count``); a fuzzy number's JSON holds its ``universe`` and its ``grades``,
which must be JSON numbers (``jsonio.all_numbers``): ``true``, ``false`` and
strings are refused, not read as 1, 0 and the number they spell.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jsonio

__all__ = [
    "EmptyOutputError",
    "Universe",
    "FuzzyNumber",
    "fuzzify_gaussian",
    "centroid_rows",
    "defuzzify_centroid",
    "normalize_peak_rows",
    "normalize_peak",
    "regrid_rows",
    "regrid",
]


class EmptyOutputError(ValueError):
    """An all-zero membership vector reached an operation that needs mass.

    Signals an untrained region when raised during inference.
    """


@dataclass(frozen=True)
class Universe:
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if not (isinstance(self.count, numbers.Integral) and self.count >= 2):
            raise ValueError(f"universe needs an integer count >= 2, got {self.count!r}")
        if not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ValueError(f"need finite lo < hi, got [{self.lo}, {self.hi}]")

    @cached_property
    def resolution(self) -> float:
        return (self.hi - self.lo) / self.count

    @cached_property
    def values(self) -> np.ndarray:
        v = self.lo + np.arange(self.count) * self.resolution
        v.setflags(write=False)
        return v

    from_json = classmethod(jsonio.from_json)
    to_json = jsonio.to_json


@dataclass
class FuzzyNumber:
    universe: Universe
    grades: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.grades, dtype=float)
        if g.shape != (self.universe.count,):
            raise ValueError(
                f"grades shape {g.shape} does not match universe count {self.universe.count}"
            )
        if not np.isfinite(g).all():
            raise ValueError("grades must be finite")
        self.grades = g

    @classmethod
    def _unchecked(cls, universe: Universe, grades: np.ndarray) -> "FuzzyNumber":
        # For grades the package made itself: a float array of the universe's
        # length, finite by construction. Skips ``__post_init__``.
        fn = object.__new__(cls)
        fn.universe = universe
        fn.grades = grades
        return fn

    @classmethod
    def from_json(cls, obj: dict) -> "FuzzyNumber":
        """Read a fuzzy number's JSON; its grades must be JSON numbers."""
        fn = cls(Universe.from_json(obj["universe"], "universe"), obj["grades"])
        if not jsonio.all_numbers(obj["grades"]):
            raise ValueError("grades must be a list of numbers")
        return fn

    def to_json(self) -> dict:
        return {"universe": self.universe.to_json(), "grades": self.grades.tolist()}


def fuzzify_gaussian(x0: float, sigma: float, universe: Universe) -> FuzzyNumber:
    """Bell-shaped membership vector centered on the crisp value ``x0``.

    ``sigma`` is the bell width in concept units. Widths below a tenth of the
    grid resolution degrade gracefully to a one-hot at the nearest grid point
    (the crisp limit). Finite values outside the universe are accepted but
    warned; a non-finite ``x0`` or ``sigma`` raises ``ValueError``. The grades
    are made from these checked scalars, so they are not validated again.
    A bell centred more than 40 sigma outside the universe is all zeros, as
    exp(-800) underflows. Any other bell whose ``(v - x0) ** 2`` would
    overflow (a sigma or a universe past about 1e152), or whose ``2 sigma ** 2``
    would underflow to 0 (a sigma below about 1e-162), is computed in units of
    sigma, inside the universe as outside it.
    """
    if not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not math.isfinite(x0):
        raise ValueError(f"crisp value x0 must be finite, got {x0}")
    v = universe.values
    one_hot = sigma < universe.resolution / 10.0
    if not (universe.lo <= x0 <= universe.hi):
        warnings.warn(
            f"crisp value {x0} lies outside universe [{universe.lo}, {universe.hi}]",
            stacklevel=2,
        )
        if not one_hot and max(universe.lo - x0, x0 - universe.hi) > 40.0 * sigma:
            return FuzzyNumber._unchecked(universe, np.zeros(universe.count))
    if one_hot:
        grades = np.zeros(universe.count)
        grades[int(np.argmin(np.abs(v - x0)))] = 1.0
    elif not 1e-150 < sigma < 1e100 and (-2.0 * sigma * sigma == 0.0 or math.inf == (
            far := max(abs(universe.lo - x0), abs(float(v[-1]) - x0))) * far):
        # 2 sigma^2 underflows to 0 or (v - x0) ** 2 overflows (Python floats give 0
        # and inf without a warning), where (v - x0) / sigma stays in range. Neither
        # can happen for a sigma inside the bounds tested first, which cost less than
        # the test itself: a bell's grid points lie within (40 + 10 count) sigma of x0.
        # A wide bell halves v, x0 and sigma first, so v - x0 cannot overflow; halving
        # a number that is not subnormal is exact, and a wide bell's quotient does not
        # see the last bit of one that is. A narrow bell keeps a subnormal sigma whole.
        h = 0.5 if sigma > 1.0 else 1.0
        grades = np.exp(np.square((v * h - x0 * h) / (sigma * h)) / -2.0)
    else:  # bit for bit exp(-((v - x0) ** 2) / (2 sigma^2)), with one ufunc fewer
        grades = np.exp(np.square(v - x0) / (-2.0 * sigma * sigma))
    return FuzzyNumber._unchecked(universe, grades)


def centroid_rows(universe: Universe, rows: np.ndarray) -> np.ndarray:
    """Grade-weighted average of the grid values, one per row of a grade matrix.

    Invariant under scaling of a row by any non-zero constant, so raw
    read-out voltages defuzzify to the same crisp value as the conditioned
    fuzzy number. Raises ``EmptyOutputError`` if a row is all zero and
    ``ValueError`` if a row's grades cancel to a zero sum.
    """
    total = rows.sum(axis=-1)
    if np.count_nonzero(total) < np.size(total):  # an all-zero row sums to zero too
        if not rows.any(axis=-1).all():
            raise EmptyOutputError("cannot defuzzify an all-zero fuzzy number")
        raise ValueError("grades sum to zero; centroid undefined for sign-cancelling vectors")
    return (universe.values * rows).sum(axis=-1) / total


def defuzzify_centroid(fn: FuzzyNumber) -> float:
    """``centroid_rows`` of one fuzzy number."""
    return float(centroid_rows(fn.universe, fn.grades))


def normalize_peak_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a grade matrix so its maximum equals 1. Centroids are unchanged.

    Raises ``EmptyOutputError`` if a row has no positive grade.
    """
    peak = rows.max(axis=-1)
    if not (peak > 0.0).all():
        raise EmptyOutputError("cannot peak-normalize a vector with no positive grade")
    return rows / peak[..., None]


def normalize_peak(fn: FuzzyNumber) -> FuzzyNumber:
    """``normalize_peak_rows`` of one fuzzy number."""
    return FuzzyNumber(fn.universe, normalize_peak_rows(fn.grades))


def regrid_rows(rows: np.ndarray, source: Universe, target: Universe) -> np.ndarray:
    """Linearly interpolate each row's membership curve from ``source`` onto ``target``.

    Grades are zero outside the source domain, and the domains must
    overlap. Each value is computed as ``np.interp`` computes it (a grid
    point hit exactly is copied; between two points it is
    ``slope * (x - x_j) + y_j``), so every row equals
    ``np.interp(target.values, source.values, row, left=0.0, right=0.0)``
    bit for bit.
    """
    src, tgt = source.values, target.values
    if src[-1] < tgt[0] or tgt[-1] < src[0]:
        raise ValueError(
            f"disjoint domains: source [{source.lo}, {source.hi}] vs "
            f"target [{target.lo}, {target.hi}]"
        )
    j = np.clip(np.searchsorted(src, tgt, side="right") - 1, 0, src.size - 1)
    inside = (src[0] <= tgt) & (tgt <= src[-1])
    hit = inside & (src[j] == tgt)
    between = inside & ~hit
    jb = j[between]
    out = np.zeros(rows.shape[:-1] + tgt.shape)
    out[..., hit] = rows[..., j[hit]]
    slope = (rows[..., jb + 1] - rows[..., jb]) / (src[jb + 1] - src[jb])
    out[..., between] = slope * (tgt[between] - src[jb]) + rows[..., jb]
    return out


def regrid(fn: FuzzyNumber, target: Universe) -> FuzzyNumber:
    """``regrid_rows`` of one fuzzy number onto ``target``."""
    return FuzzyNumber(target, regrid_rows(fn.grades, fn.universe, target))
