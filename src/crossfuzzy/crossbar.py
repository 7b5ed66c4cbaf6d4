"""Crossbar of linear-drift memristors with summing-amplifier read-out.

Writes: a pulse drives the columns with one grade vector and the rows with
the negated other, so the cell at (row i, column j) sees the voltage
``col[j] + row[i]`` for ``t0`` seconds. The part of that drive above the
device's write threshold becomes flux (``device.pulse_flux``), which the
cell integrates per the device closed form (``device.drift``). Stuck cells
(fault mask) always hold ``r_off``: they take no flux, and a constructor given
a mask and an M that disagree refuses them.

A crossbar is a ``device.StoredArray`` over M, as a ``Relation`` is over
its ``mu``. The base class decides whether a checked pulse is written now
or, on the default threshold-free device, held as two line sums and settled
when M is next observed: by the ``memristance`` property (and so
``snapshot_delta`` and serialization), by building a read matrix and by
``inject_faults``. The crossbar defines the eager write ``_step``:
``drift`` of a flux that is zero at stuck cells, and the clamp count.
Writes and reads check their inputs with ``device.check_lines`` and
``device.check_read``, as a ``Relation``'s do. ``saturation_count`` and
``fault_mask`` are exact without a settle, so reading them never settles.

Reads: the row amplifiers sum cell currents against an ``r_off`` feedback
resistor, and a compensation row cancels the raw input sum, leaving

    exact:  y_i = -(sum_j x_j * r_off / M_ij  -  sum_j x_j)
                = sum_j x_j * (M_ij - r_off) / M_ij
    ideal:  y_i = -(1 / r_off) * sum_j (r_off - M_ij) * x_j

computed by ``read_exact`` and ``read_ideal``; a ``Block``'s ``read_mode``
picks one. ``read_exact`` folds the compensation row into each cell, so its
read is one product with the matrix ``(M - r_off) / M``: a cell at ``r_off``
(untouched or stuck) contributes exactly 0, and a row's read is accurate to
rounding, not to the cancellation of two large sums. The ideal form is the
first-order limit of the exact one for stored values much smaller than
``r_off`` and is exactly a matrix-vector product with the stored-value
matrix. Reads never disturb the stored state.

``memristance`` and ``fault_mask`` are read-only properties over read-only
arrays, with no setter: M changes only through the constructor,
``write_pulse`` and ``inject_faults``, the mask only through the
constructor and ``inject_faults``. ``saturation_count`` is the base
class's read-only count: the constructor takes the count to start from (a
model file's) and refuses one that is negative or not an integer, and only
writes add to it. Each read mode builds its matrix (``(M - r_off) / M``
for exact reads, ``r_off - M`` for ideal ones) on its first read after M
changed, and the base class drops it when M changes, so a read costs one
matrix-vector product.
"""

from __future__ import annotations

import math
import numbers
import re
from contextlib import ExitStack

import numpy as np

from .device import MemristorParams, StoredArray, check_lines, check_read, drift

__all__ = ["Crossbar", "save_delta_csv", "load_delta_csv"]


class Crossbar(StoredArray):
    """An m x n grid of memristors plus a stuck-at-r_off fault mask."""

    inverts = True  # the row amplifiers negate every read

    def __init__(
        self,
        rows: int,
        cols: int,
        params: MemristorParams,
        memristance: np.ndarray | None = None,
        fault_mask: np.ndarray | None = None,
        saturation_count: int = 0,
    ):
        if not (isinstance(saturation_count, numbers.Integral) and saturation_count >= 0):
            raise ValueError(f"saturation_count must be >= 0 and integral, got {saturation_count}")
        if rows < 1 or cols < 1:
            raise ValueError(f"crossbar needs positive dimensions, got {rows}x{cols}")
        if memristance is None:
            memristance = np.full((rows, cols), float(params.r_off))
        else:
            memristance = np.array(memristance, dtype=float)
            if memristance.shape != (rows, cols):
                raise ValueError(f"memristance shape {memristance.shape} != ({rows}, {cols})")
            if not (memristance.min() >= params.r_on and memristance.max() <= params.r_off):
                raise ValueError("memristance outside [r_on, r_off]")
        if fault_mask is None:
            fault_mask = np.zeros((rows, cols), dtype=bool)
        else:
            fault_mask = np.array(fault_mask, dtype=bool)
            if fault_mask.shape != (rows, cols):
                raise ValueError(f"fault mask shape {fault_mask.shape} != ({rows}, {cols})")
            if not (memristance[fault_mask] == params.r_off).all():
                raise ValueError("stuck cells (fault mask) must hold r_off")
        fault_mask.setflags(write=False)  # replaced only by inject_faults
        self._fault_mask = fault_mask
        # Largest |x| a read takes, whatever M holds: the exact matrix's entries
        # lie in [1 - r_off / r_on, 0] and the ideal one's in [0, r_off), all below
        # r_off / r_on + r_off in magnitude, so every sum either mode forms stays
        # below half the float range.
        r_off = params.r_off
        self._max_input = np.finfo(float).max / (2.0 * cols * (r_off / params.r_on + r_off))
        self._saturation_count = saturation_count
        super().__init__(memristance, params)

    #: The memristance matrix M (ohm), with every held pulse settled; read-only.
    memristance = property(StoredArray._settled)

    @property
    def fault_mask(self) -> np.ndarray:
        """Cells stuck at r_off; read-only."""
        return self._fault_mask

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
        [0, 1]; negative or NaN ones and a bad ``t0`` raise ``ValueError``.
        Stuck cells are skipped; clamp events add to ``saturation_count``.
        The write is deferred when the headroom rule allows (module docstring).
        """
        col, row = check_lines(col_grades, row_grades, self.cols, self.rows, t0)
        self._pulse(col, row, t0)

    def _step(self, m: np.ndarray, flux: np.ndarray) -> np.ndarray:
        # One eager write of ``flux`` onto M. A settle of held pulses is one
        # such write, which the headroom rule proves clamps no cell. Under zero
        # flux a stuck cell's r_off stays bit for bit and never clamps.
        np.copyto(flux, 0.0, where=self._fault_mask)
        new_m, clamped = drift(m, flux, self.params)
        self._saturation_count += int(np.count_nonzero(clamped))
        return new_m

    def inject_faults(self, fraction: float, seed: int) -> None:
        """Mark ``floor(fraction * m * n)`` distinct cells stuck at r_off.

        Cell choice is uniform and fully determined by the seed. Already
        stored values at the chosen cells are lost (the film reads r_off).
        The fraction and the seed must pass ``check_faults``.
        """
        check_faults(fraction, seed)
        n_faults = int(fraction * self.rows * self.cols)
        rng = np.random.default_rng(seed)
        m = self.memristance  # settled under the old mask
        mask = self._fault_mask.copy()
        mask.flat[rng.choice(mask.size, size=n_faults, replace=False)] = True
        mask.setflags(write=False)
        self._fault_mask = mask
        self._replace(np.where(mask, self.params.r_off, m))

    # -- reads (side-effect free) ----------------------------------------

    def _exact(self, m: np.ndarray) -> np.ndarray:
        a = m - self.params.r_off  # built in place: one array of M's size
        a /= m
        return a

    def _stored(self, m: np.ndarray) -> np.ndarray:
        return self.params.r_off - m

    def read_exact(self, x) -> np.ndarray:
        """Full amplifier algebra, using the true memristance of every cell."""
        x = check_read(x, self.cols, self._max_input)
        return self._derive(Crossbar._exact).dot(x)

    def read_ideal(self, x) -> np.ndarray:
        """First-order read-out: -(1/r_off) times stored-value matrix times x."""
        x = check_read(x, self.cols, self._max_input)
        stored = self._derive(Crossbar._stored)
        alpha = -1.0 / self.params.r_off
        return alpha * stored.dot(x)

    def snapshot_delta(self) -> np.ndarray:
        """Stored-value matrix r_off - M (ohm); zero at stuck cells."""
        return self.params.r_off - self.memristance


def check_faults(fraction: float, seed) -> None:
    """The one rule of a fault draw: a fraction in [0, 1] and a non-negative integer seed.

    A seed of ``None`` would draw an unseeded mask, so it is refused with the
    rest; ``inject_faults`` and an experiment's config both call this.
    Raises ``ValueError``.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fault fraction must lie in [0, 1], got {fraction}")
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"fault_seed must be a non-negative integer, got {seed!r}")


def _check_surface(path, r_off, delta: np.ndarray | None = None) -> float:
    """The one rule of a surface file's values, for ``save_delta_csv`` and ``load_delta_csv``.

    ``r_off``, a number or a header's text, must be finite and positive, and
    every cell of a non-empty ``delta``, if given, finite and non-negative.
    Returns ``r_off`` as a float; raises one ``ValueError`` that names ``path``.
    """
    try:
        value = float(r_off)
    except ValueError:
        value = math.nan  # text that is no number: refused below
    if not 0 < value < math.inf:
        raise ValueError(f"{path}: r_off must be finite and positive, got {r_off!r}")
    if delta is not None and not (delta.min() >= 0 and delta.max() < math.inf):  # NaN fails
        raise ValueError(f"{path}: cells must be finite and non-negative")
    return value


def save_delta_csv(path, delta: np.ndarray, r_off: float, sections=None) -> None:
    """Row-major CSV dump of a stored-value (or relation) surface.

    ``sections`` maps further paths to column ranges ``(start, stop)``; each
    gets the dump of ``delta[:, start:stop]``. A row's values are formatted
    once for every file, and one row at a time. What ``load_delta_csv``
    refuses is refused here, before any file is opened, with one
    ``ValueError`` that names ``path``: an ``r_off`` that is not finite and
    positive, a ``delta`` that is not a non-empty 2-D array, and cells that
    are not finite and non-negative.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim != 2 or delta.size == 0:
        raise ValueError(f"{path}: a surface must be a non-empty 2-D array, got shape "
                         f"{delta.shape}")
    _check_surface(path, r_off, delta)
    rows, cols = delta.shape
    with ExitStack() as stack:
        files = []
        for p, (start, stop) in {path: (0, cols), **(sections or {})}.items():
            fh = stack.enter_context(open(p, "w"))
            fh.write(f"# rows={rows} cols={stop - start} r_off={r_off}\n")
            files.append((fh, start, stop))
        for row in delta.tolist():
            cells = list(map(repr, row))
            for fh, start, stop in files:
                fh.write(",".join(cells[start:stop]) + "\n")


def load_delta_csv(path) -> tuple[np.ndarray, float]:
    """Inverse of :func:`save_delta_csv`; returns (matrix, r_off).

    Refuses what ``save_delta_csv`` of a surface cannot have written, with
    one ``ValueError`` that names the file: a header other than ``# rows=R
    cols=C r_off=X`` with positive integer counts and a finite, positive
    ``r_off``; cells that do not parse, do not match the counts, or are not
    finite and non-negative.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        match = re.fullmatch(r"# rows=([1-9]\d*) cols=([1-9]\d*) r_off=(\S+)", header)
        if match is None:
            raise ValueError(f"{path}: header must be '# rows=R cols=C r_off=X' with positive "
                             f"integer counts, got {header!r}")
        rows, cols = int(match[1]), int(match[2])
        r_off = _check_surface(path, match[3])
        try:
            delta = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if delta.shape != (rows, cols):
        raise ValueError(f"{path}: data shape {delta.shape} does not match header")
    _check_surface(path, r_off, delta)
    return delta, r_off
