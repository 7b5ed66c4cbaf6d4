"""Software fuzzy relations: the crossbar's learning rule without the circuit.

A relation is a non-negative matrix ``mu`` (in ohm, matching the crossbar's
stored-value units) over output rows x input columns. Each training pair of
fuzzy numbers deposits ``f(input_grade + output_grade)`` at every cell, where

    f(nu) = r_off - sqrt(r_off**2 - beta * t0 * max(0, nu - v_th))

is the increment one write pulse of duration ``t0`` leaves on a pristine
device seeing the summed grade as its drive voltage (``device.pulse_flux``
and ``device.drift``). With the default threshold ``v_th = 0`` every cell
takes flux ``t0 * nu``; at ``v_th = 1`` the flux ``t0 * max(0, a + b - 1)``
is the Lukasiewicz conjunction of the two grades. ``implication_f``,
``Relation.accumulate`` and ``relation_from_sets`` take the device constants
and ``t0`` as plain arguments, and ``pulse_flux`` checks both the grades and
``t0``.

Two accumulation modes exist. ``additive`` sums the per-pulse increments
(the mathematical idealization); ``hardware`` chains the device state
through the pulses exactly like a crossbar does, which is equivalent to
putting the per-cell total flux through the device closed form once. f is
convex, so hardware accumulation runs slightly ahead of additive; the two
agree to first order while stored values stay far below r_off.

Inference is a plain matrix-vector product: output grades = mu @ input
grades. No normalization is applied; centroid defuzzification ignores
scale anyway.
"""

from __future__ import annotations

import numpy as np

from .device import MemristorParams, drift, pulse_flux
from .fuzzy import FuzzyNumber, Universe

__all__ = ["Relation", "implication_f", "relation_from_sets"]

RELATION_MODES = ("additive", "hardware")


def implication_f(nu, device: MemristorParams, t0: float):
    """Stored-value increment for a summed membership grade ``nu``.

    Zero up to the write threshold ``v_th``, then strictly increasing and
    convex in nu; saturates at ``r_off - r_on`` once the pulse would clamp
    the device. Accepts scalars or arrays; ``t0`` is the pulse duration (s).
    """
    nu = np.asarray(nu, dtype=float)
    r_off = device.r_off
    out = r_off - drift(r_off, pulse_flux(nu, 0.0, t0, device), device)[0]
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
            if not (mu.min() >= 0 and np.isfinite(mu).all()):
                raise ValueError("mu must be finite and non-negative")
        self.mu = mu

    def _check_pair(self, a: FuzzyNumber, b: FuzzyNumber) -> None:
        if a.universe != self.input_universe:
            raise ValueError("input fuzzy number lives on the wrong universe")
        if b.universe != self.output_universe:
            raise ValueError("output fuzzy number lives on the wrong universe")

    def accumulate(
        self, a: FuzzyNumber, b: FuzzyNumber, device: MemristorParams, t0: float
    ) -> None:
        """Fold one training pair (input a, output b) into the relation.

        One write pulse of ``t0`` seconds on a device with constants
        ``device``. Hardware mode checks each grade; additive mode, like
        ``implication_f``, checks each cell's summed grade.
        """
        self._check_pair(a, b)
        if self.mode == "additive":
            nu = a.grades[None, :] + b.grades[:, None]
            self.mu = self.mu + implication_f(nu, device, t0)
            return
        # Chain the device state: continue the flux integration from
        # m = r_off - mu and add the drop m - m_new. Cells without flux add
        # exactly 0, so they keep mu bit-identical. The flux is the
        # crossbar's, and while M stays above r_off / 2 every step is exact,
        # so a relation trained from zero holds exactly r_off - M of the
        # crossbar it mirrors.
        flux = pulse_flux(a.grades, b.grades, t0, device)
        m = device.r_off - self.mu
        m_new, _ = drift(m, flux, device)
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
    a: FuzzyNumber, b: FuzzyNumber, device: MemristorParams, t0: float, mode: str = "hardware"
) -> Relation:
    """Relation written by a single pulse pairing fuzzy sets a (input) and b (output)."""
    rel = Relation(a.universe, b.universe, mode=mode)
    rel.accumulate(a, b, device, t0)
    return rel
