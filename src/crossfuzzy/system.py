"""Trained blocks and their composition.

A ``Block`` is one crossbar (or a software relation standing in for it)
together with the meaning of its wires: an ordered list of input sections,
each owning a contiguous column range and a universe, plus the output
universe on the rows. Multi-input blocks simply split the columns into one
section per variable; training concatenates the per-variable grade vectors
into a single column drive, and a read over the concatenated input equals
the sum of the per-section reads by linearity.

A ``Pipeline`` chains single-input blocks. Crossbar reads come out negated
(the row amplifiers invert), so between stages the signal passes through an
inverting unity stage, is peak-normalized (reads are tiny fractions of the
input scale and inference is scale-invariant), and is re-sampled onto the
next block's input grid when the universes differ.

A crossbar block reads in one of ``READ_MODES``: ``"exact"`` (the full
amplifier algebra, ``Crossbar.read_exact``) or ``"ideal"`` (its first-order
limit, ``Crossbar.read_ideal``); ``Block.read_mode`` picks one, and model
JSON stores it under the same name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crossbar import Crossbar
from .device import MemristorParams
from .fuzzy import EmptyOutputError, FuzzyNumber, Universe, normalize_peak, regrid
from .relation import Relation

__all__ = [
    "READ_MODES",
    "SIGNAL_FLOOR",
    "Section",
    "Block",
    "Pipeline",
    "has_signal",
    "block_train",
    "block_infer",
    "pipeline_infer",
    "block_to_json",
    "block_from_json",
    "pipeline_to_json",
    "pipeline_from_json",
    "model_to_json",
    "model_from_json",
]

READ_MODES = ("exact", "ideal")

#: Read-outs at or below this magnitude carry no stored signal. Exact-mode
#: reads of an untouched crossbar cancel only to float rounding (~1e-14 of
#: the input scale), while genuine stored patterns read out around 1e-4, so
#: anything under a picovolt is treated as an untrained region.
SIGNAL_FLOOR = 1e-12


def has_signal(fn: FuzzyNumber) -> bool:
    return bool(np.any(np.abs(fn.grades) > SIGNAL_FLOOR))


@dataclass(frozen=True)
class Section:
    name: str
    universe: Universe
    start: int
    stop: int  # exclusive; stop - start == universe.count


class Block:
    def __init__(
        self,
        backend: Crossbar | Relation,
        inputs: list[tuple[str, Universe]],
        output_universe: Universe,
        read_mode: str = "exact",
        device_params: MemristorParams | None = None,
    ):
        if read_mode not in READ_MODES:
            raise ValueError(f"read mode must be one of {READ_MODES}, got {read_mode!r}")
        if not inputs:
            raise ValueError("block needs at least one input section")
        names = [name for name, _ in inputs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate input variable names: {names}")
        sections, start = [], 0
        for name, universe in inputs:
            stop = start + universe.count
            sections.append(Section(name, universe, start, stop))
            start = stop
        self.sections = sections
        self.output_universe = output_universe
        self.read_mode = read_mode
        self.backend = backend
        if isinstance(backend, Crossbar):
            if backend.cols != start:
                raise ValueError(
                    f"crossbar has {backend.cols} columns but sections cover {start}"
                )
            if backend.rows != output_universe.count:
                raise ValueError(
                    f"crossbar has {backend.rows} rows but output universe has "
                    f"{output_universe.count} points"
                )
            self.device_params = backend.params
        elif isinstance(backend, Relation):
            if len(sections) != 1:
                raise ValueError("relation-backed blocks support a single input section")
            if backend.input_universe != sections[0].universe:
                raise ValueError("relation input universe does not match the section")
            if backend.output_universe != output_universe:
                raise ValueError("relation output universe does not match the block")
            if device_params is None:
                raise ValueError("relation-backed blocks need explicit device_params")
            self.device_params = device_params
        else:
            raise TypeError(f"unsupported backend type {type(backend).__name__}")

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

    @property
    def is_crossbar(self) -> bool:
        return isinstance(self.backend, Crossbar)

    @property
    def input_universe(self) -> Universe:
        if len(self.sections) != 1:
            raise ValueError("block has multiple input sections")
        return self.sections[0].universe

    @property
    def saturation_count(self) -> int:
        return self.backend.saturation_count

    def infer(self, inputs) -> FuzzyNumber:
        return block_infer(self, inputs)

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
    col = block.concat_grades(inputs)
    if block.is_crossbar:
        block.backend.write_pulse(col, output.grades, t0)
    else:
        a = FuzzyNumber(block.sections[0].universe, col)
        block.backend.accumulate(a, output, block.device_params, t0)


def block_infer(block: Block, inputs) -> FuzzyNumber:
    """One read over the concatenated input vector.

    Crossbar-backed blocks return raw read-out voltages (negative for
    non-negative inputs), read in the block's ``read_mode``; relation-backed
    blocks return the non-negative matrix-product grades.
    """
    col = block.concat_grades(inputs)
    if block.is_crossbar:
        xbar = block.backend
        out = xbar.read_exact(col) if block.read_mode == "exact" else xbar.read_ideal(col)
        return FuzzyNumber(block.output_universe, out)
    return block.backend.infer(FuzzyNumber(block.sections[0].universe, col))


class Pipeline:
    """Single-input blocks chained output-to-input."""

    def __init__(self, blocks: list[Block]):
        if not blocks:
            raise ValueError("pipeline needs at least one block")
        for blk in blocks:
            if len(blk.sections) != 1:
                raise ValueError("pipelines chain single-input blocks only")
        for up, down in zip(blocks, blocks[1:]):
            out_u, in_u = up.output_universe, down.input_universe
            if out_u.hi <= in_u.lo or in_u.hi <= out_u.lo:
                raise ValueError(
                    f"stage domains do not overlap: [{out_u.lo}, {out_u.hi}] then "
                    f"[{in_u.lo}, {in_u.hi}]"
                )
        self.blocks = blocks

    @property
    def sections(self) -> list[Section]:
        return self.blocks[0].sections

    @property
    def output_universe(self) -> Universe:
        return self.blocks[-1].output_universe

    @property
    def saturation_count(self) -> int:
        return sum(blk.saturation_count for blk in self.blocks)

    def infer(self, inputs) -> FuzzyNumber:
        return pipeline_infer(self, inputs)


def pipeline_infer(pipe: Pipeline, inputs) -> FuzzyNumber:
    """Propagate an input through the chain without defuzzifying.

    Takes the same inputs as ``block_infer`` on the first stage, which also
    checks them. After every stage the signal is sign-corrected (crossbar
    reads invert), peak-normalized, and regridded onto the next stage's
    input universe. An all-zero intermediate raises ``EmptyOutputError``
    (untrained region).
    """
    signal = inputs
    for i, blk in enumerate(pipe.blocks):
        out = block_infer(blk, signal)
        if not has_signal(out):
            raise EmptyOutputError(f"untrained region: stage {i} read out no signal")
        if blk.is_crossbar:
            out = FuzzyNumber(out.universe, -out.grades)
        out = normalize_peak(out)
        if i + 1 < len(pipe.blocks):
            out = regrid(out, pipe.blocks[i + 1].input_universe)
        signal = out
    return signal


# -- model serialization -------------------------------------------------


def block_to_json(block: Block) -> dict:
    obj = {
        "kind": "block",
        "inputs": [
            {"name": sec.name, "universe": sec.universe.to_json()} for sec in block.sections
        ],
        "output_universe": block.output_universe.to_json(),
        "read_mode": block.read_mode,
        "device": block.device_params.to_json(),
    }
    if block.is_crossbar:
        xb = block.backend
        obj["backend"] = "crossbar"
        obj["memristance"] = xb.memristance.tolist()
        obj["fault_cells"] = np.flatnonzero(xb.fault_mask).tolist()
        obj["saturation_count"] = xb.saturation_count
    else:
        rel = block.backend
        obj["backend"] = "relation"
        obj["mode"] = rel.mode
        obj["mu"] = rel.mu.tolist()
    return obj


def block_from_json(obj: dict) -> Block:
    inputs = [(e["name"], Universe.from_json(e["universe"])) for e in obj["inputs"]]
    output_universe = Universe.from_json(obj["output_universe"])
    read_mode = obj.get("read_mode", "exact")  # an old "r_c" key is ignored
    params = MemristorParams.from_json(obj["device"])
    if obj["backend"] == "crossbar":
        memristance = np.asarray(obj["memristance"], dtype=float)
        cells = obj.get("fault_cells", [])
        if not all(type(c) is int and 0 <= c < memristance.size for c in cells):
            raise ValueError(
                f"fault_cells must be integer cell indices in [0, {memristance.size})"
            )
        mask = np.zeros(memristance.size, dtype=bool)
        mask[np.asarray(cells, dtype=int)] = True
        xbar = Crossbar(
            memristance.shape[0],
            memristance.shape[1],
            params,
            memristance=memristance,
            fault_mask=mask.reshape(memristance.shape),
        )
        xbar.saturation_count = int(obj.get("saturation_count", 0))
        return Block(xbar, inputs, output_universe, read_mode=read_mode)
    rel = Relation(inputs[0][1], output_universe, mode=obj["mode"], mu=np.asarray(obj["mu"]))
    return Block(rel, inputs, output_universe, read_mode=read_mode, device_params=params)


def pipeline_to_json(pipe: Pipeline) -> dict:
    return {"kind": "pipeline", "blocks": [block_to_json(b) for b in pipe.blocks]}


def pipeline_from_json(obj: dict) -> Pipeline:
    return Pipeline([block_from_json(b) for b in obj["blocks"]])


def model_to_json(model: Block | Pipeline) -> dict:
    return block_to_json(model) if isinstance(model, Block) else pipeline_to_json(model)


def model_from_json(obj: dict) -> Block | Pipeline:
    kind = obj.get("kind")
    if kind == "block":
        return block_from_json(obj)
    if kind == "pipeline":
        return pipeline_from_json(obj)
    raise ValueError(f"unknown model kind {kind!r}")
