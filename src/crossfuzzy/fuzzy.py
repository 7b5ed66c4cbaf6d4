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
``normalize_peak`` and ``regrid`` are their one-row case. ``check_overlap``
is the one test that a regrid's two universes overlap, ``check_span`` the one
rule of a domain's ends and ``check_sigma`` the one rule of a bell's width.

``fuzzify_gaussian`` keeps the last bells it made on small universes (at
most ``_BELL_ENTRIES`` of at most ``_BELL_POINTS`` grid points), so a value
that a probe lattice repeats costs its checks, not its arithmetic; those
bells' grades are read-only, as a universe's ``values`` are.

Universes and fuzzy numbers are written and read as JSON by ``jsonio``: a
universe's keys are ``lo``, ``hi`` and ``count``, a fuzzy number's its
``universe`` and its ``grades``, a ``jsonio.Array[1]`` of JSON numbers
(``true``, ``false`` and strings are refused, not read as 1, 0 and the
number they spell).
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
    "defuzzify_centroid",
    "normalize_peak",
    "regrid",
]


class EmptyOutputError(ValueError):
    """An all-zero membership vector reached an operation that needs mass.

    Signals an untrained region when raised during inference.
    """


def check_span(lo: float, hi: float, prefix: str = "") -> None:
    """The one rule of a domain's ends: finite ``lo < hi``, a finite width apart.

    ``Universe`` and an experiment's domains both call this; ``prefix``
    starts the message, naming the value at the boundary that took it. Raises
    ``ValueError``.
    """
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"{prefix}need finite lo < hi, got [{lo}, {hi}]")


@dataclass(frozen=True)
class Universe:
    lo: float
    hi: float
    count: int

    def __post_init__(self) -> None:
        if not (isinstance(self.count, numbers.Integral) and self.count >= 2):
            raise ValueError(f"universe needs an integer count >= 2, got {self.count!r}")
        check_span(self.lo, self.hi)
        for end in ("lo", "hi"):  # a numpy end (float32) would compute in its own type
            if not isinstance(getattr(self, end), int):
                object.__setattr__(self, end, float(getattr(self, end)))

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
    grades: jsonio.Array[1] = field(repr=False)  # a float array once built

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

    from_json = classmethod(jsonio.from_json)
    to_json = jsonio.to_json


def check_sigma(sigma: float) -> None:
    """The one rule of a bell width: positive and finite (NaN fails).

    ``fuzzify_gaussian`` and a dataset's spec both call this, one sigma at a
    time. Raises ``ValueError``.
    """
    if not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


# The bell cache, (x0, sigma, lo, hi, count) -> read-only grades: 128 bells of at
# most 256 points hold at most 256 KB. Without a lock, threads that fill it at once
# may compute one bell twice or overrun the bound by one bell each, never mix bells.
_BELL_ENTRIES = 128
_BELL_POINTS = 256
_BELLS: dict[tuple, np.ndarray] = {}


def fuzzify_gaussian(x0: float, sigma: float, universe: Universe) -> FuzzyNumber:
    """Bell-shaped membership vector centered on the crisp value ``x0``.

    ``sigma`` is the bell width in concept units. Widths below a tenth of the
    grid resolution degrade gracefully to a one-hot at the nearest grid point
    (the crisp limit). Finite values outside the universe are accepted but
    warned, at every call; a non-finite ``x0`` raises ``ValueError``, as a
    ``sigma`` that fails ``check_sigma`` does. The grades are ``_bell``'s,
    computed from ``float(x0)`` and ``float(sigma)`` (a float32 width or a
    0-d array gives the bell of the float it holds).

    A universe of at most ``_BELL_POINTS`` (256) points serves a repeated
    ``(x0, sigma)`` from a cache of the last bells made, at most
    ``_BELL_ENTRIES`` (128) of them, which is emptied when full. Equal
    universes share its entries, as ``0.0`` and ``-0.0`` or an int and its
    float do, and their bells are the same bits. Such a bell's grades are
    read-only and may be shared by callers; ``fn.universe`` is always the
    ``universe`` passed. A larger universe's bell is made afresh, writeable.
    The bound is a cliff: a lattice whose axes hold at most 128 distinct
    bells between them (two axes on one universe and width share theirs)
    misses once per bell, but one with more (150 x 150 on two such axes)
    misses at every call of its fast axis, and a miss costs about 0.7 us
    more than the uncached bell, as every call on random draws does.
    """
    check_sigma(sigma)
    if not math.isfinite(x0):
        raise ValueError(f"crisp value x0 must be finite, got {x0}")
    if not (universe.lo <= x0 <= universe.hi):
        warnings.warn(
            f"crisp value {x0} lies outside universe [{universe.lo}, {universe.hi}]",
            stacklevel=2,
        )
    x0, sigma = float(x0), float(sigma)
    if universe.count > _BELL_POINTS:
        return FuzzyNumber._unchecked(universe, _bell(x0, sigma, universe))
    key = (x0, sigma, universe.lo, universe.hi, universe.count)
    grades = _BELLS.get(key)
    if grades is None:
        grades = _bell(x0, sigma, universe)
        grades.setflags(False)  # write=False, by position: the keyword doubles the cost
        if len(_BELLS) >= _BELL_ENTRIES:
            _BELLS.clear()
        _BELLS[key] = grades
    return FuzzyNumber._unchecked(universe, grades)


def _bell(x0: float, sigma: float, universe: Universe) -> np.ndarray:
    """The grades of ``fuzzify_gaussian(x0, sigma, universe)``, from its checked scalars.

    Pure: the same arguments give the same bits. The grades are made from
    checked scalars, so they are not validated again. A bell centred more
    than 40 sigma outside the universe is all zeros, as exp(-800)
    underflows. Any other bell whose ``(v - x0) ** 2`` would overflow (a
    sigma or a universe past about 1e152), or whose ``2 sigma ** 2`` would
    underflow to 0 (a sigma below about 1e-162), is computed in units of
    sigma, inside the universe as outside it.
    """
    v = universe.values
    if sigma < universe.resolution / 10.0:  # one-hot
        grades = np.zeros(universe.count)
        grades[int(np.argmin(np.abs(v - x0)))] = 1.0
        return grades
    if not (universe.lo <= x0 <= universe.hi) and (
            max(universe.lo - x0, x0 - universe.hi) > 40.0 * sigma):
        return np.zeros(universe.count)
    if not 1e-150 < sigma < 1e100 and (-2.0 * sigma * sigma == 0.0 or math.inf == (
            far := max(abs(universe.lo - x0), abs(float(v[-1]) - x0))) * far):
        # 2 sigma^2 underflows to 0 or (v - x0) ** 2 overflows (Python floats give 0
        # and inf without a warning), where (v - x0) / sigma stays in range. Neither
        # can happen for a sigma inside the bounds tested first, which cost less than
        # the test itself: a bell's grid points lie within (40 + 10 count) sigma of x0.
        # A wide bell halves v, x0 and sigma first, so v - x0 cannot overflow; halving
        # a number that is not subnormal is exact, and a wide bell's quotient does not
        # see the last bit of one that is. A narrow bell keeps a subnormal sigma whole.
        h = 0.5 if sigma > 1.0 else 1.0
        return np.exp(np.square((v * h - x0 * h) / (sigma * h)) / -2.0)
    # bit for bit exp(-((v - x0) ** 2) / (2 sigma^2)), with one ufunc fewer
    return np.exp(np.square(v - x0) / (-2.0 * sigma * sigma))


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


def check_overlap(source: Universe, target: Universe) -> None:
    """Refuse a regrid from ``source`` onto ``target`` whose grid points share no span.

    The test is on the grid points, not on ``[lo, hi)``: a target that lies
    past the source's last point would read zeros only. Every boundary that
    chains one universe into another (``regrid_rows``, ``Pipeline`` and a
    chained experiment's config) calls this one test. Raises ``ValueError``.
    """
    if source.values[-1] < target.values[0] or target.values[-1] < source.values[0]:
        raise ValueError(
            f"disjoint domains: source [{source.lo}, {source.hi}] vs "
            f"target [{target.lo}, {target.hi}]"
        )


def regrid_rows(rows: np.ndarray, source: Universe, target: Universe) -> np.ndarray:
    """Linearly interpolate each row's membership curve from ``source`` onto ``target``.

    Grades are zero outside the source domain, and the domains must
    overlap (``check_overlap``). Each value is computed as ``np.interp``
    computes it (a grid point hit exactly is copied; between two points it
    is ``slope * (x - x_j) + y_j``), so every row equals
    ``np.interp(target.values, source.values, row, left=0.0, right=0.0)``
    bit for bit.
    """
    check_overlap(source, target)
    src, tgt = source.values, target.values
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
