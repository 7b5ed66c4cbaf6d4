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
``pulse_flux`` is also where every writer's inputs are checked: ``t0`` must
be finite and positive, and drives must be non-negative (NaN is rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemristorParams",
    "DEFAULT_PARAMS",
    "beta",
    "drift",
    "pulse_flux",
    "apply_flux",
]


@dataclass(frozen=True)
class MemristorParams:
    """Device constants, SI units throughout."""

    mu_v: float  # ion mobility, m^2 s^-1 V^-1
    d: float  # film thickness, m
    r_on: float  # minimum memristance, ohm
    r_off: float  # maximum memristance, ohm
    v_th: float = 0.0  # write threshold, V: drive below it moves no flux

    def __post_init__(self) -> None:
        if not (0 < self.mu_v < math.inf):
            raise ValueError(f"mu_v must be positive and finite, got {self.mu_v}")
        if not (0 < self.d < math.inf):
            raise ValueError(f"d must be positive and finite, got {self.d}")
        if not (0 < self.r_on < self.r_off < math.inf):
            raise ValueError(
                f"need 0 < r_on < r_off < inf, got r_on={self.r_on}, r_off={self.r_off}"
            )
        if not (math.isfinite(self.v_th) and self.v_th >= 0):
            raise ValueError(f"v_th must be finite and non-negative, got {self.v_th}")

    @classmethod
    def from_json(cls, obj: dict) -> "MemristorParams":
        # JSON uses the capitalized film-thickness key "D"; files written
        # before the threshold existed have no "v_th" and load threshold-free.
        return cls(
            mu_v=obj["mu_v"],
            d=obj["D"],
            r_on=obj["r_on"],
            r_off=obj["r_off"],
            v_th=obj.get("v_th", 0.0),
        )

    def to_json(self) -> dict:
        return {
            "mu_v": self.mu_v,
            "D": self.d,
            "r_on": self.r_on,
            "r_off": self.r_off,
            "v_th": self.v_th,
        }


#: TiO2-like film constants used as the default device in all experiments
#: (threshold-free: every pulse writes its full drive).
DEFAULT_PARAMS = MemristorParams(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5)


def beta(params: MemristorParams) -> float:
    """Drift constant (ohm^2 / (V s)): d(M^2)/dflux = -beta."""
    return 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2


def drift(m, flux, params: MemristorParams):
    """The closed form: ``M_new**2 = M**2 - beta * flux``, clamped at ``r_on``.

    ``flux`` is a scalar or an array and must be non-negative (``pulse_flux``
    and ``apply_flux`` check it); ``m`` is a scalar or has the shape of
    ``flux``. Returns ``(m_new, clamped)``, where ``clamped`` marks where the
    r_on clamp fired.
    Zero flux leaves M bit-identical, because ``sqrt(M * M) == M`` exactly
    in binary64.
    """
    floor = params.r_on * params.r_on
    # One working buffer, updated in place, and the one temporary allocated
    # before it: callers keep the result, so the temporary is freed below it
    # and reused on the next pulse instead of being returned to the OS and
    # page-faulted back in (2 MB per pulse at 500 x 500).
    drop = beta(params) * np.asarray(flux)
    m_sq = np.multiply(m, m, out=np.empty_like(drop))
    m_sq -= drop
    clamped = m_sq < floor
    np.maximum(m_sq, floor, out=m_sq)
    return np.sqrt(m_sq, out=m_sq), clamped


def pulse_flux(col, row, t0: float, params: MemristorParams):
    """The write law: flux ``max(0, col[j] + row[i] - v_th) * t0`` at cell (i, j).

    ``col`` and ``row`` are the drives (V) on the two lines; the result has
    shape ``row.shape + col.shape`` (``np.add.outer``), so a scalar ``row``
    of 0 turns an already summed drive ``col`` into its flux. A ``t0`` that
    is not finite and positive, and a negative or NaN drive, raise
    ``ValueError``. At ``v_th = 0`` no clip is applied: it could not change a
    non-negative drive, and the default device does not pay for it.
    """
    if not (0 < t0 < math.inf):
        raise ValueError(f"t0 must be positive and finite, got {t0}")
    col, row = np.asarray(col), np.asarray(row)
    if not (col.min() >= 0 and row.min() >= 0):
        raise ValueError("drives must be non-negative (write polarity reversal not modeled)")
    if params.v_th > 0:
        flux = np.asarray(np.add.outer(np.subtract(row, params.v_th), col))
        np.maximum(flux, 0.0, out=flux)
    else:
        flux = np.add.outer(row, col)
    flux *= t0
    return flux


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
