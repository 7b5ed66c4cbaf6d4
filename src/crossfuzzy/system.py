"""Trained blocks and the one model type that chains them.

A ``Block`` is one crossbar (or a software relation standing in for it)
together with the meaning of its wires: an ordered list of input sections,
each owning a contiguous column range and a universe, plus the output
universe on the rows. Multi-input blocks simply split the columns into one
section per variable; training concatenates the per-variable grade vectors
into a single column drive, and a read over the concatenated input equals
the sum of the per-section reads by linearity.

A ``Pipeline`` is the one model type: blocks chained output-to-input, of
which a block model is the one-stage case. Its first stage may take several
inputs; every later stage takes one. Crossbar reads come out negated (the
row amplifiers invert), so after every stage the signal passes through an
inverting unity stage and is peak-normalized (reads are tiny fractions of
the input scale and inference is scale-invariant); between stages it is
re-sampled onto the next block's input grid when the universes differ.

A crossbar block reads in one of ``READ_MODES``: ``"exact"`` (the full
amplifier algebra, ``Crossbar.read_exact``) or ``"ideal"`` (its first-order
limit, ``Crossbar.read_ideal``); the read-only ``Block.read_mode`` picks
one, and model JSON stores it under the same name. ``check_read_mode`` is
the one rule of its value.

``section_layout`` lays the sections out, for a block and for a training
``Dataset`` alike. Both backends keep one contract: they own their device
(``params``), expose ``rows`` and ``cols``, take a write as two grade rows
(a column drive and an output row) and return a read as a grade array.
``Block.__init__`` makes one shape check and one device check for both
(``device_params``, if given, must be the backend's own); only a relation
adds that it has one input section on the relation's universes. It then
binds one write and one read by method name (``write_pulse`` and
``read_exact``/``read_ideal``, or ``accumulate`` and ``infer``), so
``block_train``, ``block_infer``, ``pipeline_rows`` and the harness's
``train_block`` test no type. ``Block.backend`` is read-only, so the bound
calls never go to a backend the block no longer names; a block holds no
copy of the backend's state, and its device and clamp count are read as
``backend.params`` and ``backend.saturation_count``. Each bound callable
looks its method up on the backend when it runs, so a wrapper put on the
class later still sees every call. A block pickles and deep-copies through
its model JSON, which settles any deferred writes; the copy shares nothing
with the original.

Model JSON has one layout per kind, declared once as ``jsonio`` dataclasses
and both written and read through them: ``_BlockJSON`` holds the fields
every block has, ``_CrossbarJSON`` and ``_RelationJSON`` add their
backend's, and ``_PipelineJSON`` holds ``kind`` and ``blocks``. A block is
read by the layout its ``backend`` names (``"crossbar"`` or
``"relation"``); ``r_c``, which old files hold, is read past. ``jsonio``
refuses any other key, a missing one and a value of the wrong JSON type,
``memristance`` and ``mu`` included (2-D arrays of JSON numbers, never
``true`` or a string); what the values must be is checked here and by the
backends. Each refusal is one ``ValueError`` that names the JSON path, such
as ``blocks[1].device.vth: unknown key`` or ``memristance must be a 2-D
array of numbers``; a backend's or a block's own refusal is prefixed with
the block's path (``blocks[1]: memristance outside [r_on, r_off]``). A
block's ``kind`` is ``"block"``, or absent, as in files that predate it:
``model_from_json`` reads every object whose ``kind`` is not
``"pipeline"`` as a one-stage model, so a pipeline's every stage and a
top-level block follow the one rule. ``model_to_json`` writes a one-stage
model as its block's JSON and a longer one as ``_PipelineJSON``; the branch
is on the stage count.

``pipeline_rows`` is the one way a model is read. It infers a matrix of
first-stage column drives, one probe per row: at each stage it makes one
backend read per live row, tests the raw read-outs against
``SIGNAL_FLOOR``, conditions them as arrays and reads only the rows that
still carry signal at the next stage. Evaluation reads through it, and the
CLI's ``infer`` through ``pipeline_infer``, its one-row case.
``block_infer`` is a stage's raw one-row read, the per-probe oracle's read
(``tests/oracles.py``); it and ``pipeline_infer`` are kept as names the
benchmark's tracer wraps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .crossbar import Crossbar
from .device import MemristorParams
from .fuzzy import (EmptyOutputError, FuzzyNumber, Universe, check_overlap, normalize_peak_rows,
                    regrid_rows)
from .relation import Relation

__all__ = [
    "Section",
    "Block",
    "Pipeline",
    "block_train",
    "block_infer",
    "pipeline_infer",
    "model_to_json",
    "model_from_json",
]

READ_MODES = ("exact", "ideal")


def check_read_mode(read_mode: str) -> None:
    """The one rule of a read mode: one of ``READ_MODES``.

    ``Block`` and an experiment's config both call this. Raises ``ValueError``.
    """
    if read_mode not in READ_MODES:
        raise ValueError(f"read mode must be one of {READ_MODES}, got {read_mode!r}")


#: Read-outs at or below this magnitude carry no stored signal. Untouched
#: and stuck cells read exactly 0 in both modes, while genuine stored
#: patterns read out around 1e-4, so anything under a picovolt is treated
#: as an untrained region.
SIGNAL_FLOOR = 1e-12


@dataclass(frozen=True)
class Section:
    name: str
    universe: Universe
    start: int
    stop: int  # exclusive; stop - start == universe.count


def section_layout(inputs: list[tuple[str, Universe]]) -> list[Section]:
    """One section per named universe, on consecutive column ranges in the given order."""
    names = [name for name, _ in inputs]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"need at least one input and no duplicate names, got {names}")
    stops = itertools.accumulate(universe.count for _, universe in inputs)
    return [Section(name, u, stop - u.count, stop) for (name, u), stop in zip(inputs, stops)]


class Block:
    def __init__(
        self,
        backend: Crossbar | Relation,
        inputs: list[tuple[str, Universe]],
        output_universe: Universe,
        read_mode: str = "exact",
        device_params: MemristorParams | None = None,
    ):
        check_read_mode(read_mode)
        self.sections = sections = section_layout(inputs)
        self.output_universe = output_universe
        self._read_mode = read_mode
        self._backend = backend
        if isinstance(backend, Relation):
            if len(sections) != 1 or (backend.input_universe, backend.output_universe) != (
                    sections[0].universe, output_universe):
                raise ValueError("a relation-backed block needs one input section and "
                                 "output universe, each on the relation's universe")
            write, read = "accumulate", "infer"
        elif isinstance(backend, Crossbar):
            write, read = "write_pulse", f"read_{read_mode}"
        else:
            raise TypeError(f"unsupported backend type {type(backend).__name__}")
        if (backend.rows, backend.cols) != (output_universe.count, sections[-1].stop):
            raise ValueError(
                f"backend has {backend.rows}x{backend.cols} cells but the block needs "
                f"{output_universe.count}x{sections[-1].stop}"
            )
        if device_params not in (None, backend.params):
            raise ValueError("device_params differ from the backend's own params")
        # Looked up on each call, so a wrapper put on the class later sees it.
        self._write = lambda col, row, t0: getattr(backend, write)(col, row, t0)
        self._read = lambda col: getattr(backend, read)(col)
        self.read_sign = -1.0 if backend.inverts else 1.0

    @classmethod
    def pristine(
        cls,
        inputs: list[tuple[str, Universe]],
        output_universe: Universe,
        params: MemristorParams,
        read_mode: str = "exact",
    ) -> "Block":
        cols = sum(u.count for _, u in inputs)
        xbar = Crossbar(output_universe.count, cols, params)
        return cls(xbar, inputs, output_universe, read_mode=read_mode)

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild the block from its model JSON, so
        # a copy gets its own backend and its own bound write and read.
        return block_from_json, (block_to_json(self),)

    @property
    def read_mode(self) -> str:
        return self._read_mode

    @property
    def backend(self) -> Crossbar | Relation:
        return self._backend

    def _as_mapping(self, inputs) -> dict[str, FuzzyNumber]:
        if isinstance(inputs, FuzzyNumber):
            if len(self.sections) != 1:
                raise ValueError(
                    f"block has {len(self.sections)} input variables; pass a mapping"
                )
            return {self.sections[0].name: inputs}
        return dict(inputs)

    def concat_grades(self, inputs) -> np.ndarray:
        """Assemble the full column drive from per-variable fuzzy numbers."""
        mapping = self._as_mapping(inputs)
        parts = []
        for sec in self.sections:
            if sec.name not in mapping:
                raise ValueError(f"missing input variable {sec.name!r}")
            fn = mapping[sec.name]
            if fn.universe != sec.universe:
                raise ValueError(f"input {sec.name!r} lives on the wrong universe")
            parts.append(fn.grades)
        extra = set(mapping) - {sec.name for sec in self.sections}
        if extra:
            raise ValueError(f"unknown input variables: {sorted(extra)}")
        return np.concatenate(parts)

    def section_delta(self, name: str) -> np.ndarray:
        """Per-variable slice of the stored surface (multi-input blocks store
        one relation surface per section)."""
        for sec in self.sections:
            if sec.name == name:
                return self.snapshot_delta()[:, sec.start : sec.stop]
        raise ValueError(f"no section named {name!r}")

    def snapshot_delta(self) -> np.ndarray:
        return self.backend.snapshot_delta()


def block_train(block: Block, inputs, output: FuzzyNumber, t0: float) -> None:
    """One training pulse: per-variable input fuzzy numbers plus the output."""
    if output.universe != block.output_universe:
        raise ValueError("output fuzzy number lives on the wrong universe")
    block._write(block.concat_grades(inputs), output.grades, t0)


def block_infer(block: Block, inputs) -> FuzzyNumber:
    """One read over the concatenated input vector.

    Crossbar-backed blocks return raw read-out voltages (negative for
    non-negative inputs), read in the block's ``read_mode``; relation-backed
    blocks return the non-negative matrix-product grades.
    """
    return FuzzyNumber._unchecked(block.output_universe, block._read(block.concat_grades(inputs)))


class Pipeline:
    """A model: blocks chained output-to-input, every stage after the first single-input."""

    def __init__(self, blocks: list[Block]):
        if not blocks:
            raise ValueError("pipeline needs at least one block")
        if any(len(blk.sections) != 1 for blk in blocks[1:]):
            raise ValueError("stages after the first must be single-input blocks")
        for up, down in zip(blocks, blocks[1:]):  # the regrid between them must be defined
            check_overlap(up.output_universe, down.sections[0].universe)
        self.blocks = blocks

    @property
    def sections(self) -> list[Section]:
        return self.blocks[0].sections

    @property
    def output_universe(self) -> Universe:
        return self.blocks[-1].output_universe

    @property
    def saturation_count(self) -> int:
        return sum(blk.backend.saturation_count for blk in self.blocks)


def pipeline_rows(pipe: Pipeline, drives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Propagate rows of first-stage column drives through the chain.

    Each stage reads each live row once, in the block's read mode; row k of
    a stage's read-out is the grade vector ``block_infer`` returns for
    drive k. The drives are taken as built, without the per-variable checks
    of ``concat_grades``. After every stage the read-outs are sign-corrected
    (crossbar reads invert), peak-normalized, and regridded onto the next
    stage's input universe. A row dies at the first stage whose read-out has
    no grade above ``SIGNAL_FLOOR`` in magnitude or no positive grade after
    the sign (untrained region); only live rows are read at the next stage.
    Returns the output rows, zero for dead ones, and per row the stage it
    died at, or ``len(pipe.blocks)`` if it came through.
    """
    n_stages = len(pipe.blocks)
    died = np.full(len(drives), n_stages)
    alive = np.arange(len(drives))
    signal = drives
    for i, blk in enumerate(pipe.blocks):
        out = np.empty((len(signal), blk.output_universe.count))
        read = blk._read
        for k, col in enumerate(signal):
            out[k] = read(col)
        ok = (np.abs(out) > SIGNAL_FLOOR).any(axis=1)
        out *= blk.read_sign
        ok &= out.max(axis=1) > 0.0
        died[alive[~ok]] = i
        alive = alive[ok]
        signal = normalize_peak_rows(out[ok])
        if i + 1 < n_stages:
            signal = regrid_rows(signal, blk.output_universe,
                                 pipe.blocks[i + 1].sections[0].universe)
    result = np.zeros((len(drives), pipe.output_universe.count))
    result[alive] = signal
    return result, died


def pipeline_infer(pipe: Pipeline, inputs) -> FuzzyNumber:
    """Propagate an input through the chain without defuzzifying: one row of ``pipeline_rows``.

    Takes the same inputs as ``block_infer`` on the first stage, with the
    same checks. A stage that reads out no signal raises
    ``EmptyOutputError`` (untrained region).
    """
    rows, died = pipeline_rows(pipe, pipe.blocks[0].concat_grades(inputs)[None])
    if died[0] < len(pipe.blocks):
        raise EmptyOutputError(f"untrained region: stage {died[0]} read out no signal")
    return FuzzyNumber(pipe.output_universe, rows[0])


# -- model serialization -------------------------------------------------


@dataclass(frozen=True)
class _Input:
    """One entry of a block's ``"inputs"`` JSON list."""

    name: str
    universe: Universe


@dataclass(frozen=True, kw_only=True)
class _BlockJSON:
    """The keys of a block's JSON that both backends write, in file order."""

    kind: str = "block"
    inputs: tuple[_Input, ...]
    output_universe: Universe
    read_mode: str = "exact"
    device: MemristorParams
    backend: str


@dataclass(frozen=True, kw_only=True)
class _CrossbarJSON(_BlockJSON):
    backend: str = "crossbar"
    memristance: jsonio.Array[2]
    fault_cells: tuple[int, ...] = ()  # flat indices of the stuck cells
    saturation_count: int = 0


@dataclass(frozen=True, kw_only=True)
class _RelationJSON(_BlockJSON):
    backend: str = "relation"
    mode: str
    mu: jsonio.Array[2]


_LAYOUTS = {"crossbar": _CrossbarJSON, "relation": _RelationJSON}


@dataclass(frozen=True, kw_only=True)
class _PipelineJSON:
    kind: str = "pipeline"
    blocks: tuple[dict, ...]  # each a block's JSON, read by block_from_json


def block_to_json(block: Block) -> dict:
    b = block.backend
    shared = dict(inputs=tuple(_Input(sec.name, sec.universe) for sec in block.sections),
                  output_universe=block.output_universe, read_mode=block.read_mode,
                  device=b.params)
    if isinstance(b, Crossbar):
        return jsonio.to_json(_CrossbarJSON(**shared, memristance=b.memristance,
                                            fault_cells=np.flatnonzero(b.fault_mask),
                                            saturation_count=b.saturation_count))
    return jsonio.to_json(_RelationJSON(**shared, mode=b.mode, mu=b.mu))


def block_from_json(obj: dict, path: str = "") -> Block:
    """Read a block's JSON by the layout its backend names; ``path`` locates it in the file."""
    at = f"{path}." if path else ""
    obj = jsonio.from_json(dict, obj, path)
    kind, backend = obj.get("kind", "block"), obj.get("backend")
    if kind != "block":
        raise ValueError(f"{at}kind must be 'block', got {kind!r}")
    if backend not in _LAYOUTS:
        read_as = "" if "kind" in obj else f" (no {at}kind: read as a block)"
        raise ValueError(f"{at}backend must be 'crossbar' or 'relation', got {backend!r}{read_as}")
    j = jsonio.from_json(_LAYOUTS[backend], {k: v for k, v in obj.items() if k != "r_c"}, path)
    inputs = [(e.name, e.universe) for e in j.inputs]
    if backend == "crossbar":
        memristance = np.array(j.memristance, dtype=float)
        if j.fault_cells and not 0 <= min(j.fault_cells) <= max(j.fault_cells) < memristance.size:
            raise ValueError(f"{at}fault_cells must be indices in [0, {memristance.size})")
        mask = np.zeros(memristance.shape, dtype=bool)
        mask.flat[list(j.fault_cells)] = True
    try:
        if backend == "relation":
            store = Relation(inputs[0][1], j.output_universe, mode=j.mode, mu=j.mu, params=j.device)
        else:
            store = Crossbar(*memristance.shape, j.device, memristance=memristance, fault_mask=mask,
                             saturation_count=j.saturation_count)
        return Block(store, inputs, j.output_universe, read_mode=j.read_mode)
    except ValueError as exc:  # a backend or the block refused a value: name the block
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


def model_to_json(model: Pipeline) -> dict:
    """A one-stage model as its block's JSON; a longer one as pipeline JSON."""
    if len(model.blocks) == 1:
        return block_to_json(model.blocks[0])
    return jsonio.to_json(_PipelineJSON(blocks=tuple(map(block_to_json, model.blocks))))


def model_from_json(obj: dict) -> Pipeline:
    """A pipeline if ``kind`` says so; any other object is read as a one-stage model."""
    if jsonio.from_json(dict, obj).get("kind") != "pipeline":
        return Pipeline([block_from_json(obj)])
    blocks = jsonio.from_json(_PipelineJSON, obj).blocks
    return Pipeline([block_from_json(b, f"blocks[{i}]") for i, b in enumerate(blocks)])
