"""Discrete universes of discourse and fuzzy numbers as membership vectors.

A ``Universe`` is a uniform grid of ``count`` concept values covering
``[lo, hi)`` with resolution ``(hi - lo) / count``; grid point ``j`` sits at
``lo + j * resolution``. A ``FuzzyNumber`` pairs one membership grade with
each grid point. Grades produced by fuzzification live in [0, 1]; grades
produced by circuit reads are raw voltages and may be negative or exceed 1,
which is fine because centroid defuzzification is scale- and sign-invariant.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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

    @property
    def resolution(self) -> float:
        return (self.hi - self.lo) / self.count

    @cached_property
    def values(self) -> np.ndarray:
        v = self.lo + np.arange(self.count) * self.resolution
        v.setflags(write=False)
        return v

    @classmethod
    def from_json(cls, obj: dict) -> "Universe":
        return cls(lo=obj["lo"], hi=obj["hi"], count=obj["count"])

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "count": self.count}


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
        if not np.all(np.isfinite(g)):
            raise ValueError("grades must be finite")
        self.grades = g

    @classmethod
    def from_json(cls, obj: dict) -> "FuzzyNumber":
        return cls(Universe.from_json(obj["universe"]), np.asarray(obj["grades"], float))

    def to_json(self) -> dict:
        return {"universe": self.universe.to_json(), "grades": self.grades.tolist()}


def fuzzify_gaussian(x0: float, sigma: float, universe: Universe) -> FuzzyNumber:
    """Bell-shaped membership vector centered on the crisp value ``x0``.

    ``sigma`` is the bell width in concept units. Widths below a tenth of the
    grid resolution degrade gracefully to a one-hot at the nearest grid point
    (the crisp limit). Values outside the universe are accepted but warned.
    """
    if not (0 < sigma < math.inf):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not (universe.lo <= x0 <= universe.hi):
        warnings.warn(
            f"crisp value {x0} lies outside universe [{universe.lo}, {universe.hi}]",
            stacklevel=2,
        )
    v = universe.values
    if sigma < universe.resolution / 10.0:
        grades = np.zeros(universe.count)
        grades[int(np.argmin(np.abs(v - x0)))] = 1.0
        return FuzzyNumber(universe, grades)
    return FuzzyNumber(universe, np.exp(-((v - x0) ** 2) / (2.0 * sigma * sigma)))


def defuzzify_centroid(fn: FuzzyNumber) -> float:
    """Grade-weighted average of the grid values.

    Invariant under scaling of the grades by any non-zero constant, so raw
    read-out voltages defuzzify to the same crisp value as the conditioned
    fuzzy number. Raises ``EmptyOutputError`` on an all-zero vector.
    """
    g = fn.grades
    if not np.any(g):
        raise EmptyOutputError("cannot defuzzify an all-zero fuzzy number")
    total = g.sum()
    if total == 0.0:
        raise ValueError("grades sum to zero; centroid undefined for sign-cancelling vectors")
    return float((fn.universe.values * g).sum() / total)


def normalize_peak(fn: FuzzyNumber) -> FuzzyNumber:
    """Scale grades so the maximum equals 1. Centroid is unchanged."""
    peak = fn.grades.max()
    if peak <= 0.0:
        raise EmptyOutputError("cannot peak-normalize a vector with no positive grade")
    return FuzzyNumber(fn.universe, fn.grades / peak)


def regrid(fn: FuzzyNumber, target: Universe) -> FuzzyNumber:
    """Linearly interpolate the membership curve onto another grid.

    Grades are zero outside the source domain. The domains must overlap.
    """
    src = fn.universe.values
    tgt = target.values
    if src[-1] < tgt[0] or tgt[-1] < src[0]:
        raise ValueError(
            f"disjoint domains: source [{fn.universe.lo}, {fn.universe.hi}] vs "
            f"target [{target.lo}, {target.hi}]"
        )
    return FuzzyNumber(target, np.interp(tgt, src, fn.grades, left=0.0, right=0.0))
