"""Crossbar of linear-drift memristors with summing-amplifier read-out.

Writes: a pulse drives the columns with one grade vector and the rows with
the negated other, so the cell at (row i, column j) sees the voltage
``col[j] + row[i]`` for ``t0`` seconds. The part of that drive above the
device's write threshold becomes flux (``device.pulse_flux``), which the
cell integrates per the device closed form (``device.drift``). Stuck cells
(fault mask) ignore writes and always hold ``r_off``.

Reads: the row amplifiers sum cell currents against an ``r_off`` feedback
resistor, and a compensation row cancels the raw input sum, leaving

    exact:  y_i = -(sum_j x_j * r_off / M_ij  -  sum_j x_j)
    ideal:  y_i = -(1 / r_off) * sum_j (r_off - M_ij) * x_j

computed by ``read_exact`` and ``read_ideal``; a ``Block``'s ``read_mode``
picks one. The ideal form is the first-order limit of the exact one for
stored values much smaller than ``r_off`` and is exactly a matrix-vector
product with the stored-value matrix. Reads never disturb the stored state.
"""

from __future__ import annotations

import numpy as np

from .device import MemristorParams, drift, pulse_flux

__all__ = ["Crossbar", "save_delta_csv", "load_delta_csv"]


class Crossbar:
    """An m x n grid of memristors plus a stuck-at-r_off fault mask."""

    def __init__(
        self,
        rows: int,
        cols: int,
        params: MemristorParams,
        memristance: np.ndarray | None = None,
        fault_mask: np.ndarray | None = None,
    ):
        if rows < 1 or cols < 1:
            raise ValueError(f"crossbar needs positive dimensions, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.params = params
        if memristance is None:
            memristance = np.full((rows, cols), float(params.r_off))
        else:
            memristance = np.array(memristance, dtype=float)
            if memristance.shape != (rows, cols):
                raise ValueError(
                    f"memristance shape {memristance.shape} != ({rows}, {cols})"
                )
            if not (memristance.min() >= params.r_on and memristance.max() <= params.r_off):
                raise ValueError("memristance outside [r_on, r_off]")
        self.memristance = memristance
        if fault_mask is None:
            fault_mask = np.zeros((rows, cols), dtype=bool)
        else:
            fault_mask = np.array(fault_mask, dtype=bool)
            if fault_mask.shape != (rows, cols):
                raise ValueError(f"fault mask shape {fault_mask.shape} != ({rows}, {cols})")
        self.fault_mask = fault_mask
        self.memristance[self.fault_mask] = params.r_off
        self.saturation_count = 0

    @classmethod
    def from_delta(cls, delta: np.ndarray, params: MemristorParams) -> "Crossbar":
        """Build a crossbar holding the given stored-value matrix (ohm)."""
        delta = np.asarray(delta, dtype=float)
        return cls(delta.shape[0], delta.shape[1], params, memristance=params.r_off - delta)

    # -- writes ---------------------------------------------------------

    def write_pulse(self, col_grades, row_grades, t0: float) -> None:
        """Program all cells at once for ``t0`` seconds.

        Cell (i, j) integrates flux
        ``max(0, col_grades[j] + row_grades[i] - v_th) * t0``, where ``v_th``
        is the device's write threshold (0 by default). Grades must lie in
        [0, 1]; ``pulse_flux`` rejects negative or NaN ones and a bad ``t0``.
        Stuck cells are skipped; clamp events add to ``saturation_count``.
        """
        col = np.asarray(col_grades, dtype=float)
        row = np.asarray(row_grades, dtype=float)
        if col.shape != (self.cols,):
            raise ValueError(f"column grades shape {col.shape} != ({self.cols},)")
        if row.shape != (self.rows,):
            raise ValueError(f"row grades shape {row.shape} != ({self.rows},)")
        flux = pulse_flux(col, row, t0, self.params)
        for name, g in (("column", col), ("row", row)):
            if not g.max() <= 1.0:
                raise ValueError(f"{name} grades must lie in [0, 1]")
        new_m, clamped = drift(self.memristance, flux, self.params)
        clamped[self.fault_mask] = False
        self.saturation_count += int(np.count_nonzero(clamped))
        np.copyto(new_m, self.memristance, where=self.fault_mask)
        self.memristance = new_m

    def inject_faults(self, fraction: float, seed: int) -> None:
        """Mark ``floor(fraction * m * n)`` distinct cells stuck at r_off.

        Cell choice is uniform and fully determined by the seed. Already
        stored values at the chosen cells are lost (the film reads r_off).
        """
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"fault fraction must lie in [0, 1], got {fraction}")
        n_faults = int(fraction * self.rows * self.cols)
        rng = np.random.default_rng(seed)
        flat = rng.choice(self.rows * self.cols, size=n_faults, replace=False)
        mask = np.zeros(self.rows * self.cols, dtype=bool)
        mask[flat] = True
        mask = mask.reshape(self.rows, self.cols)
        self.fault_mask |= mask
        self.memristance[self.fault_mask] = self.params.r_off

    # -- reads (side-effect free) ----------------------------------------

    def read_exact(self, x) -> np.ndarray:
        """Full amplifier algebra, using the true memristance of every cell."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"input shape {x.shape} != ({self.cols},)")
        return -((self.params.r_off / self.memristance) @ x - x.sum())

    def read_ideal(self, x) -> np.ndarray:
        """First-order read-out: -(1/r_off) times stored-value matrix times x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cols,):
            raise ValueError(f"input shape {x.shape} != ({self.cols},)")
        alpha = -1.0 / self.params.r_off
        return alpha * ((self.params.r_off - self.memristance) @ x)

    def snapshot_delta(self) -> np.ndarray:
        """Stored-value matrix r_off - M (ohm); zero at stuck cells."""
        return self.params.r_off - self.memristance


def save_delta_csv(path, delta: np.ndarray, r_off: float) -> None:
    """Row-major CSV dump of a stored-value (or relation) surface."""
    delta = np.asarray(delta, dtype=float)
    rows, cols = delta.shape
    with open(path, "w") as fh:
        fh.write(f"# rows={rows} cols={cols} r_off={r_off}\n")
        for i in range(rows):
            fh.write(",".join(repr(float(v)) for v in delta[i]) + "\n")


def load_delta_csv(path) -> tuple[np.ndarray, float]:
    """Inverse of :func:`save_delta_csv`; returns (matrix, r_off)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        fields = dict(kv.split("=") for kv in header.lstrip("# ").split())
        rows, cols, r_off = int(fields["rows"]), int(fields["cols"]), float(fields["r_off"])
        delta = np.loadtxt(fh, delimiter=",", ndmin=2)
    if delta.shape != (rows, cols):
        raise ValueError(f"{path}: data shape {delta.shape} does not match header")
    return delta, r_off
