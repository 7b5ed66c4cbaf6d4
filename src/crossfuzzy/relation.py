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
and ``t0`` as plain arguments; ``accumulate`` takes line grades in [0, 1], as
a crossbar does, and ``implication_f`` summed grades up to 2.

Two accumulation modes exist. ``additive`` sums the per-pulse increments
(the mathematical idealization); ``hardware`` chains the device state
through the pulses exactly like a crossbar does, which is equivalent to
putting the per-cell total flux through the device closed form once. f is
convex, so hardware accumulation runs slightly ahead of additive; the two
agree to first order while stored values stay far below r_off.

``mu`` lives in a ``device.StoredArray``, as a crossbar's M does, so
hardware accumulation defers its pulses exactly as a crossbar does: on a
threshold-free device each pulse adds to two line-flux sums, settled by one
``_chain`` the first time the read-only ``mu`` property is read, which
``infer``, ``snapshot_delta`` and serialization do. A relation and a
crossbar given the same pulses hold the same sums, so a relation trained
from zero still holds exactly ``r_off - M`` of its crossbar when both
settle at one point.

Inference is a plain matrix-vector product: output grades = mu @ input
grades. No normalization is applied; centroid defuzzification ignores
scale anyway. Like a crossbar's reads, ``infer`` refuses inputs beyond a
magnitude bound that keeps the product finite; the bound follows from the
largest stored value, so it is measured on the first read after a write
and kept until the next one.
"""

from __future__ import annotations

import numpy as np

from .device import MemristorParams, StoredArray, check_grades, check_pulse, drift, pulse_flux
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
    check_pulse(t0, nu)
    r_off = device.r_off
    out = r_off - drift(r_off, pulse_flux(nu, 0.0, t0, device), device)[0]
    return float(out) if out.ndim == 0 else out


def _chain(mu: np.ndarray, flux: np.ndarray, device: MemristorParams) -> np.ndarray:
    # The hardware rule's eager write: continue the device state's flux
    # integration from m = r_off - mu and add the drop m - m_new. Cells
    # without flux add exactly 0, so they keep mu bit-identical. The flux is
    # the crossbar's, and while M stays above r_off / 2 every step is exact,
    # so a relation trained from zero holds exactly r_off - M of the
    # crossbar it mirrors.
    m = device.r_off - mu
    m_new, _ = drift(m, flux, device)
    np.subtract(m, m_new, out=m_new)
    m_new += mu
    return m_new


class Relation:
    saturation_count = 0  # clamp events are counted by crossbars only
    inverts = False  # reads are the plain matrix product

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
        self._store = StoredArray(mu)
        self._read_bound = None  # largest |x| infer takes; None until measured

    @property
    def mu(self) -> np.ndarray:
        """The stored-value matrix (ohm), with every deferred pulse settled; read-only."""
        return self._store.state(_chain)

    def accumulate(
        self, a: FuzzyNumber, b: FuzzyNumber, device: MemristorParams, t0: float
    ) -> None:
        """Fold one training pair (input a, output b) into the relation.

        One write pulse of ``t0`` seconds on a device with constants
        ``device``. Every grade of both lines must lie in [0, 1], as on a
        crossbar, and ``t0`` must be finite and positive; the lines are checked
        here because ``implication_f`` sees only the summed grades, which a
        negative grade can hide. In hardware mode the pulse is deferred when
        the headroom rule allows.
        """
        if a.universe != self.input_universe:
            raise ValueError("input fuzzy number lives on the wrong universe")
        if b.universe != self.output_universe:
            raise ValueError("output fuzzy number lives on the wrong universe")
        check_grades(t0, a.grades, b.grades)
        self._read_bound = None
        if self.mode == "additive":
            nu = a.grades[None, :] + b.grades[:, None]
            self._store.replace(self.mu + implication_f(nu, device, t0))
            return
        self._store.pulse(a.grades, b.grades, t0, device, _chain,
                          lambda mu: device.r_off - mu.max())

    def snapshot_delta(self) -> np.ndarray:
        """A copy of the stored-value matrix mu (ohm)."""
        return self.mu.copy()

    def infer(self, a: FuzzyNumber) -> FuzzyNumber:
        """Compose an input fuzzy number with the relation.

        Grades beyond ``±max / (2 * n) / max(1, mu.max())`` (``max`` the
        largest float, ``n`` the input count) raise ``ValueError``: within
        it every sum in ``mu @ grades`` stays below half the float range.
        """
        if a.universe != self.input_universe:
            raise ValueError("input fuzzy number lives on the wrong universe")
        mu = self.mu
        if self._read_bound is None:
            largest = max(1.0, float(mu.max()))
            self._read_bound = np.finfo(float).max / (2.0 * mu.shape[1]) / largest
        if not np.abs(a.grades).max() <= self._read_bound:
            raise ValueError(
                f"relation inputs must lie within ±{self._read_bound:.3g} to read finite"
            )
        # Within the bound every sum is finite, so the product needs no check.
        return FuzzyNumber._unchecked(self.output_universe, mu @ a.grades)


def relation_from_sets(
    a: FuzzyNumber, b: FuzzyNumber, device: MemristorParams, t0: float, mode: str = "hardware"
) -> Relation:
    """Relation written by a single pulse pairing fuzzy sets a (input) and b (output)."""
    rel = Relation(a.universe, b.universe, mode=mode)
    rel.accumulate(a, b, device, t0)
    return rel
