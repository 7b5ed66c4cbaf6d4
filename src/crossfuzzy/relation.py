"""Software fuzzy relations: the crossbar's learning rule without the circuit.

A relation is a non-negative matrix ``mu`` (in ohm, matching the crossbar's
stored-value units) over output rows x input columns. Each training pair of
grade rows deposits ``f(input_grade + output_grade)`` at every cell, where

    f(nu) = r_off - sqrt(r_off**2 - beta * t0 * max(0, nu - v_th))

is the increment one write pulse of duration ``t0`` leaves on a pristine
device seeing the summed grade as its drive voltage (``device.pulse_flux``
and ``device.drift``). With the default threshold ``v_th = 0`` every cell
takes flux ``t0 * nu``; at ``v_th = 1`` the flux ``t0 * max(0, a + b - 1)``
is the Lukasiewicz conjunction of the two grades. ``implication_f`` takes
the device constants and ``t0`` as plain arguments, and summed grades up
to 2.

``Relation`` has a crossbar's backend contract. It owns its device
(``params``, ``DEFAULT_PARAMS`` unless given) and exposes ``rows`` and
``cols``; ``accumulate(col, row, t0)`` takes one pulse's input and output
grade rows, checked as a crossbar write's are (``device.check_lines``), and
``infer(x)`` returns the grade array ``mu @ x``.

Two accumulation modes exist. ``additive`` sums the per-pulse increments
(the mathematical idealization) and holds any finite ``mu >= 0``;
``hardware`` chains the device state through the pulses exactly like a
crossbar does, which is equivalent to putting the per-cell total flux
through the device closed form once, and holds ``mu`` in ``[0, r_off -
r_on]``, the range of ``r_off - M``. The constructor, and so model JSON,
refuses ``mu`` outside its mode's range. f is convex, so hardware
accumulation runs slightly ahead of additive; the two agree to first order
while stored values stay far below r_off.

A relation is a ``device.StoredArray`` over ``mu``, as a crossbar is over
its M, so hardware accumulation defers its pulses exactly as a crossbar
does: on a threshold-free device each pulse adds to two line-flux sums,
settled by one eager write ``_step`` the first time the read-only ``mu``
property is read, which ``infer``, ``snapshot_delta`` and serialization do.
A relation and a crossbar given the same pulses hold the same sums, so a
relation trained from zero still holds exactly ``r_off - M`` of its
crossbar when both settle at one point. Its smallest memristance
(``_lowest``, for the headroom rule) is ``r_off - mu.max()``. Its
``saturation_count`` is the base class's read-only 0: a relation's writes
hold ``mu`` at its top without counting a clamp.

Inference is a plain matrix-vector product: output grades = mu @ input
grades. No normalization is applied; centroid defuzzification ignores
scale anyway. Like a crossbar's reads, ``infer`` refuses inputs beyond a
magnitude bound that keeps the product finite (``device.check_read``); the
bound follows from the largest stored value, so it is measured on the
first read after ``mu`` changed, and the base class drops it when ``mu``
changes again.
"""

from __future__ import annotations

import numpy as np

from .device import (DEFAULT_PARAMS, MemristorParams, StoredArray, check_lines, check_pulse,
                     check_read, drift, pulse_flux)
from .fuzzy import Universe

__all__ = ["Relation", "implication_f"]

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


class Relation(StoredArray):
    """A software relation on its own device: the crossbar's backend contract.

    ``rows`` x ``cols`` is ``output_universe.count`` x
    ``input_universe.count``. A hardware relation holds ``mu`` in
    ``[0, r_off - r_on]`` of its ``params``, the range of ``r_off - M``; an
    additive one holds any finite ``mu >= 0``.
    """

    inverts = False  # reads are the plain matrix product

    def __init__(
        self,
        input_universe: Universe,
        output_universe: Universe,
        mode: str = "hardware",
        mu: np.ndarray | None = None,
        params: MemristorParams = DEFAULT_PARAMS,
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
            top = params.r_off - params.r_on if mode == "hardware" else np.finfo(float).max
            if not (mu.min() >= 0 and mu.max() <= top):  # NaN fails the first test
                raise ValueError(f"{mode} relation needs every mu finite and in [0, {top:.6g}]")
        super().__init__(mu, params)

    #: The stored-value matrix (ohm), with every held pulse settled; read-only.
    mu = property(StoredArray._settled)

    def _step(self, mu: np.ndarray, flux: np.ndarray) -> np.ndarray:
        # The hardware rule's eager write: continue the device state's flux
        # integration from m = r_off - mu and add the drop m - m_new. Cells
        # without flux add exactly 0, so they keep mu bit-identical. The flux is
        # the crossbar's, and while M stays above r_off / 2 every step is exact,
        # so a relation trained from zero holds exactly r_off - M of the
        # crossbar it mirrors. Rounding can leave a cell near the clamp an ulp
        # above r_off - r_on; it is held at that top, which the constructor takes.
        device = self.params
        m = device.r_off - mu
        m_new, _ = drift(m, flux, device)
        np.subtract(m, m_new, out=m_new)
        m_new += mu
        return np.minimum(m_new, device.r_off - device.r_on, out=m_new)

    def _lowest(self, mu: np.ndarray) -> float:
        return self.params.r_off - mu.max()

    def accumulate(self, col, row, t0: float) -> None:
        """Fold one training pair into the relation: input grades ``col``, output grades ``row``.

        One write pulse of ``t0`` seconds on the relation's device, checked
        as a crossbar's is (``device.check_lines``); the lines are checked
        here because ``implication_f`` sees only the summed grades, which a
        negative grade can hide. In hardware mode the pulse is deferred when
        the headroom rule allows.
        """
        col, row = check_lines(col, row, self.cols, self.rows, t0)
        if self.mode == "additive":
            self._replace(self.mu + implication_f(np.add.outer(row, col), self.params, t0))
            return
        self._pulse(col, row, t0)

    def snapshot_delta(self) -> np.ndarray:
        """A copy of the stored-value matrix mu (ohm)."""
        return self.mu.copy()

    def infer(self, x) -> np.ndarray:
        """Compose input grades ``x`` with the relation: the output grades ``mu @ x``.

        Grades beyond ``±max / (2 * n) / max(1, mu.max())`` (``max`` the
        largest float, ``n`` the input count) raise ``ValueError``: within
        it every sum in ``mu @ x`` stays below half the float range.
        """
        bound = self._derive(Relation._max_input)
        # Within the bound every sum is finite, so the product needs no check.
        return self.mu.dot(check_read(x, self.cols, bound))

    def _max_input(self, mu: np.ndarray) -> float:
        return np.finfo(float).max / (2.0 * self.cols) / max(1.0, float(mu.max()))
