"""Software fuzzy relations: the crossbar's learning rule without the circuit.

A relation is a non-negative matrix ``mu`` (in ohm, matching the crossbar's
stored-value units) over output rows x input columns. Each training pair of
fuzzy numbers deposits ``f(input_grade + output_grade)`` at every cell, where

    f(nu) = r_off - sqrt(r_off**2 - beta * t0 * nu)

is the increment one write pulse of duration ``t0`` leaves on a pristine
device seeing the summed grade as its drive voltage (``device.drift``).

Two accumulation modes exist. ``additive`` sums the per-pulse increments
(the mathematical idealization); ``hardware`` chains the device state
through the pulses exactly like a crossbar does, which is equivalent to
applying f to the per-cell total of the summed grades. f is convex, so
hardware accumulation runs slightly ahead of additive; the two agree to
first order while stored values stay far below r_off.

Inference is a plain matrix-vector product: output grades = mu @ input
grades. No normalization is applied; centroid defuzzification ignores
scale anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .device import MemristorParams, drift
from .fuzzy import FuzzyNumber, Universe

__all__ = ["ImplicationParams", "Relation", "implication_f", "relation_from_sets"]

RELATION_MODES = ("additive", "hardware")


@dataclass(frozen=True)
class ImplicationParams:
    """Device constants plus the write-pulse duration."""

    device: MemristorParams
    t0: float  # seconds

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"t0 must be positive and finite, got {self.t0}")


def implication_f(nu, params: ImplicationParams):
    """Stored-value increment for a summed membership grade ``nu``.

    Strictly increasing and convex in nu; saturates at ``r_off - r_on`` once
    the pulse would clamp the device. Accepts scalars or arrays.
    """
    nu = np.asarray(nu, dtype=float)
    if not np.all(nu >= 0):
        raise ValueError("summed grades must be non-negative")
    r_off = params.device.r_off
    out = r_off - drift(r_off, params.t0 * nu, params.device)[0]
    return float(out) if out.ndim == 0 else out


class Relation:
    saturation_count = 0  # clamp events are counted by crossbars only

    def __init__(
        self,
        input_universe: Universe,
        output_universe: Universe,
        mode: str = "hardware",
        mu: np.ndarray | None = None,
    ):
        if mode not in RELATION_MODES:
            raise ValueError(f"mode must be one of {RELATION_MODES}, got {mode!r}")
        self.input_universe = input_universe
        self.output_universe = output_universe
        self.mode = mode
        shape = (output_universe.count, input_universe.count)
        if mu is None:
            mu = np.zeros(shape)
        else:
            mu = np.array(mu, dtype=float)
            if mu.shape != shape:
                raise ValueError(f"mu shape {mu.shape} != {shape}")
            if mu.min() < 0:
                raise ValueError("mu must be non-negative")
        self.mu = mu

    def _check_pair(self, a: FuzzyNumber, b: FuzzyNumber) -> None:
        if a.universe != self.input_universe:
            raise ValueError("input fuzzy number lives on the wrong universe")
        if b.universe != self.output_universe:
            raise ValueError("output fuzzy number lives on the wrong universe")

    def accumulate(self, a: FuzzyNumber, b: FuzzyNumber, params: ImplicationParams) -> None:
        """Fold one training pair (input a, output b) into the relation."""
        self._check_pair(a, b)
        nu = a.grades[None, :] + b.grades[:, None]
        if self.mode == "additive":
            self.mu = self.mu + implication_f(nu, params)
            return
        if not (np.all(a.grades >= 0) and np.all(b.grades >= 0)):
            raise ValueError("training grades must be non-negative")
        # Chain the device state: continue the flux integration from
        # m = r_off - mu and add the drop m - m_new. Cells without flux add
        # exactly 0, so they keep mu bit-identical. While M stays above
        # r_off / 2 every step is exact, so a relation trained from zero
        # holds exactly r_off - M of the crossbar it mirrors.
        m = params.device.r_off - self.mu
        nu *= params.t0
        m_new, _ = drift(m, nu, params.device)
        np.subtract(m, m_new, out=m_new)
        m_new += self.mu
        self.mu = m_new

    def snapshot_delta(self) -> np.ndarray:
        """A copy of the stored-value matrix mu (ohm)."""
        return self.mu.copy()

    def infer(self, a: FuzzyNumber) -> FuzzyNumber:
        """Compose an input fuzzy number with the relation."""
        if a.universe != self.input_universe:
            raise ValueError("input fuzzy number lives on the wrong universe")
        return FuzzyNumber(self.output_universe, self.mu @ a.grades)


def relation_from_sets(
    a: FuzzyNumber, b: FuzzyNumber, params: ImplicationParams, mode: str = "hardware"
) -> Relation:
    """Relation written by a single pulse pairing fuzzy sets a (input) and b (output)."""
    rel = Relation(a.universe, b.universe, mode=mode)
    rel.accumulate(a, b, params)
    return rel
