"""Linear-drift memristor model in closed form.

The device is a two-terminal resistive film whose memristance M (ohm)
depends on the total flux (integral of voltage over time) that has passed
through it. Under linear dopant drift the squared memristance decays
linearly with flux:

    M_new**2 = M_old**2 - beta(params) * flux

so a write pulse is a single closed-form update instead of a time-stepped
integration. ``drift`` is the only place that update is computed; every
writer (single devices, crossbars, software relations and the write-budget
check) calls it. M is clamped at ``r_on`` (fully switched film); the clamp
is reported through ``MemristorState.saturated``. Only the polarity that
decreases memristance is modeled: ``flux`` must be non-negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MemristorParams",
    "MemristorState",
    "DEFAULT_PARAMS",
    "beta",
    "drift",
    "apply_flux",
    "delta_m",
]


@dataclass(frozen=True)
class MemristorParams:
    """Device constants, SI units throughout."""

    mu_v: float  # ion mobility, m^2 s^-1 V^-1
    d: float  # film thickness, m
    r_on: float  # minimum memristance, ohm
    r_off: float  # maximum memristance, ohm

    def __post_init__(self) -> None:
        if not (self.mu_v > 0):
            raise ValueError(f"mu_v must be positive, got {self.mu_v}")
        if not (self.d > 0):
            raise ValueError(f"d must be positive, got {self.d}")
        if not (0 < self.r_on < self.r_off):
            raise ValueError(
                f"need 0 < r_on < r_off, got r_on={self.r_on}, r_off={self.r_off}"
            )

    @classmethod
    def from_json(cls, obj: dict) -> "MemristorParams":
        # JSON uses the capitalized film-thickness key "D".
        return cls(mu_v=obj["mu_v"], d=obj["D"], r_on=obj["r_on"], r_off=obj["r_off"])

    def to_json(self) -> dict:
        return {"mu_v": self.mu_v, "D": self.d, "r_on": self.r_on, "r_off": self.r_off}


#: TiO2-like film constants used as the default device in all experiments.
DEFAULT_PARAMS = MemristorParams(mu_v=1e-14, d=1e-8, r_on=1e3, r_off=1e5)


@dataclass(frozen=True)
class MemristorState:
    """One device: current memristance plus a sticky clamp flag."""

    memristance: float  # ohm, always within [r_on, r_off]
    saturated: bool = False


def beta(params: MemristorParams) -> float:
    """Drift constant (ohm^2 / (V s)): d(M^2)/dflux = -beta."""
    return 2.0 * params.mu_v * params.r_on * (params.r_off - params.r_on) / params.d**2


def drift(m, flux, params: MemristorParams):
    """The closed form: ``M_new**2 = M**2 - beta * flux``, clamped at ``r_on``.

    ``flux`` is a scalar or an array and must be non-negative (callers check
    it); ``m`` is a scalar or has the shape of ``flux``. Returns
    ``(m_new, clamped)``, where ``clamped`` marks where the r_on clamp fired.
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


def apply_flux(
    state: MemristorState, params: MemristorParams, flux: float
) -> MemristorState:
    """Advance one device by a write pulse carrying ``flux`` volt-seconds.

    Returns a new state; saturated is set iff the r_on clamp fired on this
    update. Negative or NaN flux (polarity reversal) is rejected.
    """
    if not flux >= 0:
        raise ValueError(f"flux must be >= 0 (polarity reversal not modeled), got {flux}")
    m_old = state.memristance
    if not (params.r_on <= m_old <= params.r_off):
        raise ValueError(
            f"memristance {m_old} outside [{params.r_on}, {params.r_off}]"
        )
    m_new, clamped = drift(m_old, flux, params)
    return MemristorState(memristance=float(m_new), saturated=bool(clamped))


def delta_m(state: MemristorState, params: MemristorParams) -> float:
    """Stored value of a device: how far memristance has dropped from r_off."""
    return params.r_off - state.memristance
