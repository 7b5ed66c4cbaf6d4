"""Linear-drift memristor model in closed form.

The device is a two-terminal resistive film whose memristance M (ohm)
depends on the total flux (integral of voltage over time) that has passed
through it. Under linear dopant drift the squared memristance decays
linearly with flux:

    M_new**2 = M_old**2 - beta(params) * flux

so a write pulse is a single closed-form update instead of a time-stepped
integration. ``drift`` is the only place that update is computed; every
writer (single devices, crossbars, software relations and the write-budget
check) calls it. M is clamped at ``r_on`` (fully switched film); ``drift``
and ``apply_flux`` return ``(m_new, clamped)``, where ``clamped`` marks the
devices where the clamp fired on this update. Only the polarity that
decreases memristance is modeled: ``flux`` must be non-negative.

A write pulse drives a device at ``v`` volts for ``t0`` seconds. Below the
write threshold ``v_th`` the film does not move; above it, only the excess
drives the dopants (the threshold of the TEAM/VTEAM models), so one pulse
deposits ``max(0, v - v_th) * t0`` volt-seconds (``pulse_flux``). The
threshold acts on the drive, not on the state, so flux still adds up per
device. With the default ``v_th = 0`` every pulse writes its full drive.
Every writer checks its inputs with ``check_pulse`` before it moves any
flux: ``t0`` must be finite and positive, and drives must be non-negative
(NaN is rejected). Both backends, ``Crossbar`` and ``Relation``, share one
check per boundary: ``check_lines`` for the two grade rows of a write (their
lengths, and grades in [0, 1]) and ``check_read`` for a read's input (its
length, and a magnitude bound that keeps the read finite).

Deferred writes. At ``v_th = 0`` a pulse moves flux ``t0 * (row[i] + col[j])``
into cell (i, j): a row term plus a column term. Flux adds up, so a run of
pulses that never clamps equals one write of ``np.add.outer(row_sum,
col_sum)``. ``StoredArray`` owns a backend's stored array; it gets the
backend's device and eager write once and decides, pulse by pulse, whether
to hold a pulse as the two line sums (O(rows + cols) work) or to write it
now; held pulses are written as one flux when the array is next
observed (the settle). A pulse is held only when the headroom rule proves
that no cell on the way could clamp:

    max(row_sum) + max(col_sum) < (min(M)**2 * (1 - HOLD_MARGIN) - r_on**2) / beta

with the smallest M of the state the held pulses started from. Stuck cells
hold ``r_off``, the largest value, so the smallest M is a live cell's
whenever one is left. Otherwise, and always at ``v_th > 0``, the pulse is
settled and written eagerly, so clamp events are counted exactly as a
pulse-by-pulse writer counts them. A settled state differs from the
pulse-by-pulse one only by float rounding; the tests hold it to 1e-9 of the
largest stored value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio

__all__ = [
    "MemristorParams",
    "DEFAULT_PARAMS",
    "beta",
    "drift",
    "check_pulse",
    "check_lines",
    "check_read",
    "pulse_flux",
    "StoredArray",
    "apply_flux",
]

#: Relative share of the smallest M**2 that deferred writes leave unused. It
#: covers the float rounding in which a summed flux and a pulse-by-pulse
#: chain of ``drift`` differ (a few ulps of M**2 per pulse).
HOLD_MARGIN = 1e-9


@dataclass(frozen=True)
class MemristorParams:
    """Device constants, SI units throughout.

    Written and read by ``jsonio``: the film thickness goes under ``"D"``, and
    JSON without ``"v_th"`` predates the threshold and loads threshold-free.
    """

    mu_v: float  # ion mobility, m^2 s^-1 V^-1
    d: float = field(metadata={"json": "D"})  # film thickness, m
    r_on: float  # minimum memristance, ohm
    r_off: float  # maximum memristance, ohm
    v_th: float = 0.0  # write threshold, V: drive below it moves no flux

    def __post_init__(self) -> None:
        if not (0 < self.mu_v < math.inf):
            raise ValueError(f"mu_v must be positive and finite, got {self.mu_v}")
        if not (0 < self.d < math.inf):
            raise ValueError(f"d must be positive and finite, got {self.d}")
        if not (0 < self.r_on < self.r_off and self.r_off * self.r_off < math.inf):
            raise ValueError(  # the closed form and the write budget square r_off
                f"need 0 < r_on < r_off and a finite r_off**2, got r_on={self.r_on}, "
                f"r_off={self.r_off}")
        if not (math.isfinite(self.v_th) and self.v_th >= 0):
            raise ValueError(f"v_th must be finite and non-negative, got {self.v_th}")
        try:
            ok = 0 < beta(self) < math.inf
        except (OverflowError, ZeroDivisionError):  # d**2 past the float range or 0
            ok = False
        if not ok:
            raise ValueError(f"beta must be positive and finite for {self}")

    from_json = classmethod(jsonio.from_json)
    to_json = jsonio.to_json


def beta(params: MemristorParams) -> float:
    """Drift constant (ohm^2 / (V s)): d(M^2)/dflux = -beta."""
    return 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2


#: TiO2-like film constants used as the default device in all experiments
#: (threshold-free: every pulse writes its full drive).
DEFAULT_PARAMS = MemristorParams(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5)


def drift(m, flux, params: MemristorParams):
    """The closed form: ``M_new**2 = M**2 - beta * flux``, clamped at ``r_on``.

    ``flux`` is a scalar or an array and must be non-negative (writers check
    their drives with ``check_pulse``); ``m`` is a scalar or has the shape of
    ``flux``. An array ``flux`` is consumed: it is scaled by beta in place,
    so pass a buffer the caller owns. Returns ``(m_new, clamped)``, where
    ``clamped`` marks where the r_on clamp fired.
    Zero flux leaves M bit-identical, because ``sqrt(M * M) == M`` exactly
    in binary64.
    """
    floor = params.r_on * params.r_on
    # The flux buffer becomes the drop, and one working buffer is updated in
    # place: callers keep the result, so the only temporary besides the
    # mask is the caller's flux, freed once the caller returns.
    with np.errstate(over="ignore"):  # a drop past the float range clamps like any other
        flux *= beta(params)  # in place for an array; a scalar is rebound
    m_sq = np.multiply(m, m, out=np.empty_like(flux))
    m_sq -= flux
    clamped = m_sq < floor
    np.maximum(m_sq, floor, out=m_sq)
    return np.sqrt(m_sq, out=m_sq), clamped


def check_pulse(t0: float, *drives) -> None:
    """Reject a pulse the device law does not model.

    ``t0`` must be finite and positive, and every drive array (V) must be
    non-negative; NaN fails both tests. Raises ``ValueError``.
    """
    if not (0 < t0 < math.inf):
        raise ValueError(f"t0 must be positive and finite, got {t0}")
    for drive in drives:
        if not drive.min() >= 0:
            raise ValueError("drives must be non-negative (write polarity reversal not modeled)")


def check_lines(col, row, cols: int, rows: int, t0: float):
    """The write-input check of both backends: one pulse's two line grade vectors.

    ``col`` must hold ``cols`` grades and ``row`` ``rows``, every one in
    [0, 1], and ``t0`` must pass ``check_pulse``. Returns both lines as float
    arrays; raises ``ValueError``.
    """
    col = np.asarray(col, dtype=float)
    row = np.asarray(row, dtype=float)
    if col.shape != (cols,):
        raise ValueError(f"column grades shape {col.shape} != ({cols},)")
    if row.shape != (rows,):
        raise ValueError(f"row grades shape {row.shape} != ({rows},)")
    check_pulse(t0, col, row)
    if not (col.max() <= 1.0 and row.max() <= 1.0):
        raise ValueError("grades must lie in [0, 1]")
    return col, row


def check_read(x, cols: int, bound: float) -> np.ndarray:
    """The read-input check of both backends: ``cols`` inputs within ``±bound``.

    Each backend picks the bound within which every sum its read forms stays
    finite; NaN fails too. Returns ``x`` as a float array; raises
    ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cols,):
        raise ValueError(f"input shape {x.shape} != ({cols},)")
    if not np.abs(x).max() <= bound:
        raise ValueError(f"read inputs must be finite and within ±{bound:.3g}")
    return x


def pulse_flux(col, row, t0: float, params: MemristorParams):
    """The write law: flux ``max(0, col[j] + row[i] - v_th) * t0`` at cell (i, j).

    ``col`` and ``row`` are the drives (V) on the two lines, checked by the
    caller with ``check_pulse``; the result is a new array of shape
    ``row.shape + col.shape`` (``np.add.outer``), so a scalar ``row`` of 0
    turns an already summed drive ``col`` into its flux.
    """
    flux = np.asarray(np.add.outer(np.subtract(row, params.v_th), col))
    np.maximum(flux, 0.0, out=flux)
    with np.errstate(over="ignore"):  # an infinite flux is a full write, which drift clamps
        flux *= t0
    return flux


class StoredArray:
    """A stored array and the threshold-free pulses held on it (module docstring).

    Its owner gives it, once, the device ``params``, its eager write
    ``step(state, flux)``, which returns the new array, and
    ``lowest(state)``, the smallest memristance of a state. Neither callable
    may refer to the owner, so a backend and its arrays are freed without
    the cycle collector.
    """

    def __init__(self, state: np.ndarray, params: MemristorParams, step, lowest):
        self._params = params
        self._step = step
        self._lowest = lowest
        self.replace(state)

    def replace(self, state: np.ndarray) -> None:
        """Take ``state`` as the stored array, read-only, and drop what is held."""
        state.setflags(write=False)
        self._state = state
        self._row = self._col = 0.0  # summed t0 * drive per row and per column (V s)
        self._held = False
        self._headroom = None  # flux the line sums may reach; None until measured

    def state(self) -> np.ndarray:
        """The stored array, with every held pulse settled by one ``step``."""
        if self._held:
            self.replace(self._step(self._state, np.add.outer(self._row, self._col)))
        return self._state

    def pulse(self, col, row, t0: float) -> None:
        """Hold one pulse checked by ``check_lines``, or settle and write it now.

        A pulse is held only on a threshold-free device and while the
        headroom rule holds.
        """
        params = self._params
        if params.v_th == 0:
            if self._headroom is None:
                lo = float(self._lowest(self._state))
                self._headroom = (lo * lo * (1.0 - HOLD_MARGIN) - params.r_on**2) / beta(params)
            row_sum = t0 * row
            row_sum += self._row
            col_sum = t0 * col
            col_sum += self._col
            if row_sum.max() < self._headroom - col_sum.max():  # cannot overflow
                self._row, self._col, self._held = row_sum, col_sum, True
                return
        self.replace(self._step(self.state(), pulse_flux(col, row, t0, params)))


def apply_flux(m: float, params: MemristorParams, flux: float) -> tuple[float, bool]:
    """Advance one device of memristance ``m`` by a pulse carrying ``flux`` volt-seconds.

    Returns ``(m_new, clamped)`` as ``drift`` does; ``clamped`` is set iff
    the r_on clamp fired on this update. Negative or NaN flux (polarity
    reversal) and a memristance outside ``[r_on, r_off]`` are rejected.
    """
    if not flux >= 0:
        raise ValueError(f"flux must be >= 0 (polarity reversal not modeled), got {flux}")
    if not (params.r_on <= m <= params.r_off):
        raise ValueError(f"memristance {m} outside [{params.r_on}, {params.r_off}]")
    m_new, clamped = drift(m, flux, params)
    return float(m_new), bool(clamped)
