"""Deferred threshold-free writes against the pulse-by-pulse oracle.

Crossbars and hardware relations hold threshold-free pulses as two line-flux
sums and settle them with one ``drift`` when their state is observed. The
stated tolerance: the settled state is within 1e-9 of the largest stored
value of ``oracles.sequential_writes``, and clamp events are counted exactly.
"""

import copy
import gc
import json
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossfuzzy.crossbar
import crossfuzzy.relation
from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS, beta
from crossfuzzy.fuzzy import Universe, fuzzify_gaussian
from crossfuzzy.harness import auto_t0, default_config, generate_dataset, train_block
from crossfuzzy.relation import Relation
from crossfuzzy.system import Block, Pipeline, block_infer, block_train, model_to_json
from oracles import sequential_writes

R_OFF = DEFAULT_PARAMS.r_off
TOLERANCE = 1e-9  # of the oracle's largest stored value
CLAMP_T0 = 1.0  # s: a 2 V pulse this long clamps a pristine cell at r_on


def assert_near_oracle(m, want):
    assert np.abs(m - want).max() <= TOLERANCE * (R_OFF - want).max()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    pulses=st.integers(min_value=1, max_value=40),
    v_th=st.sampled_from([0.0, 1.0]),
    faults=st.booleans(),
    clamps=st.booleans(),
)
def test_deferred_writers_match_the_sequential_oracle(seed, pulses, v_th, faults, clamps):
    """Auto-t0 runs stay within the write budget and clamp nothing; a run
    with varying t0 and one pinned clamping pulse counts every clamp event."""
    rng = np.random.default_rng(seed)
    params = replace(DEFAULT_PARAMS, v_th=v_th)
    rows, cols = (int(k) for k in rng.integers(2, 9, size=2))
    mask = rng.uniform(size=(rows, cols)) < (0.3 if faults else 0.0)
    mask[0, 0] = False  # the pinned pulse clamps this cell
    pinned = int(rng.integers(pulses)) if clamps else -1
    plan = []
    for k in range(pulses):
        col, row = rng.uniform(0, 1, cols), rng.uniform(0, 1, rows)
        t0 = 10 ** rng.uniform(-4, -0.5) if clamps else auto_t0(params, pulses)
        if k == pinned:
            col[0] = row[0] = 1.0
            t0 = CLAMP_T0
        plan.append((col, row, t0))
    want, events = sequential_writes(np.full((rows, cols), R_OFF), plan, params, mask)
    assert (events > 0) == clamps

    xb = Crossbar(rows, cols, params, fault_mask=mask)
    ui, uo = Universe(0.0, 1.0, cols), Universe(0.0, 1.0, rows)
    rel = Relation(ui, uo, mode="hardware", params=params)
    for col, row, t0 in plan:
        xb.write_pulse(col, row, t0)
        rel.accumulate(col, row, t0)
    assert xb.saturation_count == events
    assert_near_oracle(xb.memristance, want)
    # A relation has no stuck cells: its oracle runs without the mask.
    assert_near_oracle(R_OFF - rel.mu, sequential_writes(np.full((rows, cols), R_OFF), plan,
                                                         params)[0])


@pytest.mark.parametrize("v_th", [0.0, 1.0])
def test_writes_that_clamp_from_the_first_pulse_are_eager_and_exact(v_th):
    """Pulses that clamp are written one at a time, as the oracle writes them."""
    params = replace(DEFAULT_PARAMS, v_th=v_th)
    rng = np.random.default_rng(4)
    plan = [(rng.uniform(0.5, 1, 6), rng.uniform(0.5, 1, 5), CLAMP_T0) for _ in range(5)]
    want, events = sequential_writes(np.full((5, 6), R_OFF), plan, params)
    xb = Crossbar(5, 6, params)
    for pulse in plan:
        xb.write_pulse(*pulse)
    assert events > 0 and xb.saturation_count == events
    assert np.array_equal(xb.memristance, want)


def test_holding_keeps_r_on_clear():
    """A run is held only while it stays r_on**2 clear of the clamp: here
    the second and third pulses each clamp the cell, two events, where one
    settle of all three would count one."""
    r_on_sq, b = DEFAULT_PARAMS.r_on**2, beta(DEFAULT_PARAMS)
    fluxes = [(R_OFF**2 - 1.2 * r_on_sq) / b, 0.3 * r_on_sq / b, 0.3 * r_on_sq / b]
    plan = [(np.ones(1), np.ones(1), flux / 2.0) for flux in fluxes]  # 2 V pulses
    want, events = sequential_writes(np.full((1, 1), R_OFF), plan, DEFAULT_PARAMS)
    assert events == 2
    xb = Crossbar(1, 1, DEFAULT_PARAMS)
    for pulse in plan:
        xb.write_pulse(*pulse)
    assert xb.saturation_count == events
    assert np.array_equal(xb.memristance, want)


def test_relation_pulses_are_written_with_its_own_device_constants():
    """A hardware relation owns its device: held and eager pulses, and the
    settle between them, use its constants, not the default device's, and a
    block refuses other device params for it."""
    other = replace(DEFAULT_PARAMS, mu_v=3 * DEFAULT_PARAMS.mu_v)
    rng = np.random.default_rng(7)
    u = Universe(0.0, 1.0, 5)
    rel = Relation(u, u, mode="hardware", params=other)
    plan = [(rng.uniform(0, 1, 5), rng.uniform(0, 1, 5), 1e-4) for _ in range(6)]
    plan[3] = (np.eye(5)[0], np.eye(5)[0], CLAMP_T0)  # settles those held; clamps row and column 0
    for col, row, t0 in plan:
        rel.accumulate(col, row, t0)
    want = sequential_writes(np.full((5, 5), R_OFF), plan, other)[0]
    assert_near_oracle(R_OFF - rel.mu, want)
    assert not np.allclose(want, sequential_writes(np.full((5, 5), R_OFF), plan,
                                                   DEFAULT_PARAMS)[0])
    with pytest.raises(ValueError, match="device_params"):
        Block(rel, [("x", u)], u, device_params=DEFAULT_PARAMS)


def count_drift_calls(monkeypatch) -> list:
    calls = []
    for module in (crossfuzzy.crossbar, crossfuzzy.relation):
        def counted(*args, _drift=module.drift):
            calls.append(1)
            return _drift(*args)

        monkeypatch.setattr(module, "drift", counted)
    return calls


def test_only_observers_pay_for_deferred_writes(monkeypatch):
    """Reading ``saturation_count`` or ``fault_mask`` after every write, as a
    tracer does, leaves the writes deferred; the first observer settles. So
    does a named experiment's whole auto-``t0`` training run (exp-f1's 500
    pulses), which the scalar headroom rule holds end to end."""
    calls = count_drift_calls(monkeypatch)
    u = Universe(0.0, 1.0, 7)
    xb_blk = Block.pristine([("x", u)], u, DEFAULT_PARAMS)
    rel_blk = Block(Relation(u, u, mode="hardware"), [("x", u)], u,
                    device_params=DEFAULT_PARAMS)
    xb_blk.backend.inject_faults(0.2, seed=1)
    for blk in (xb_blk, rel_blk):
        for k in range(5):
            block_train(blk, fuzzify_gaussian(0.1 + 0.2 * k, 0.1, u),
                        fuzzify_gaussian(0.9 - 0.2 * k, 0.1, u), 1e-4)
            assert blk.saturation_count == 0 and blk.backend.saturation_count == 0
        assert int(xb_blk.backend.fault_mask.sum()) == 9
    assert calls == []
    for blk in (xb_blk, rel_blk):
        first = blk.snapshot_delta()
        assert len(calls) == 1
        assert np.array_equal(blk.snapshot_delta(), first)
        block_infer(blk, fuzzify_gaussian(0.5, 0.1, u))
        assert len(calls) == 1
        calls.clear()
    cfg = default_config("exp-f1")
    dataset = generate_dataset(cfg.dataset, cfg.input_universes, cfg.output_universe)
    assert len(dataset.drives) == 500
    inputs, out = list(cfg.input_universes.items()), cfg.output_universe
    for blk in (Block.pristine(inputs, out, cfg.device),
                Block(Relation(inputs[0][1], out, mode="hardware"), inputs, out,
                      device_params=cfg.device)):
        train_block(blk, dataset, cfg.resolved_t0())
        assert blk.saturation_count == 0 and calls == []
        blk.snapshot_delta()
        assert len(calls) == 1
        calls.clear()


def test_backends_are_freed_without_the_cycle_collector():
    """A backend keeps no reference to itself (say, a stored bound method of
    its own eager write), so it and its arrays go as soon as the last name
    does, with held, settled and eager writes behind it."""
    u = Universe(0.0, 1.0, 6)
    gc.disable()
    try:
        for t0 in (1e-4, CLAMP_T0):  # held and settled; eager
            xb = Crossbar(6, 6, DEFAULT_PARAMS)
            rel = Relation(u, u, mode="hardware")
            for backend in (xb, rel):
                blk = Block(backend, [("x", u)], u, device_params=DEFAULT_PARAMS)
                block_train(blk, fuzzify_gaussian(0.3, 0.1, u), fuzzify_gaussian(0.6, 0.1, u), t0)
                block_infer(blk, fuzzify_gaussian(0.3, 0.1, u))
                block_train(blk, fuzzify_gaussian(0.7, 0.1, u), fuzzify_gaussian(0.2, 0.1, u), t0)
            refs = [weakref.ref(xb), weakref.ref(rel), weakref.ref(xb.memristance)]
            del xb, rel, blk, backend
            assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


# -- copies ------------------------------------------------------------------

UX = Universe(0.0, 1.0, 12)
UY = Universe(2.0, 4.0, 8)
UZ = Universe(0.0, 1.0, 10)


def faulty_two_input_block():
    blk = Block.pristine([("x", UX), ("y", UY)], UZ, DEFAULT_PARAMS)
    blk.backend.inject_faults(0.3, seed=5)
    for x, y, z in ((0.4, 3.1, 0.6), (0.7, 2.5, 0.3)):
        block_train(blk, {"x": fuzzify_gaussian(x, 0.06, UX), "y": fuzzify_gaussian(y, 0.12, UY)},
                    fuzzify_gaussian(z, 0.06, UZ), 1e-6)
    return blk, {"x": fuzzify_gaussian(0.5, 0.06, UX), "y": fuzzify_gaussian(3.0, 0.12, UY)}


def trained_siso(backend, read_mode="exact"):
    blk = (Block.pristine([("x", UX)], UZ, DEFAULT_PARAMS, read_mode=read_mode)
           if backend == "crossbar" else
           Block(Relation(UX, UZ, mode="hardware"), [("x", UX)], UZ, read_mode=read_mode,
                 device_params=DEFAULT_PARAMS))
    for x, z in ((0.2, 0.7), (0.6, 0.3), (0.5, 0.5)):
        block_train(blk, fuzzify_gaussian(x, 0.06, UX), fuzzify_gaussian(z, 0.06, UZ), 1e-6)
    return blk


def relation_block():
    return trained_siso("relation", "ideal"), fuzzify_gaussian(0.4, 0.06, UX)


def pipeline():
    return Pipeline([trained_siso("crossbar"), trained_siso("relation")]), \
        fuzzify_gaussian(0.4, 0.06, UX)


@pytest.mark.parametrize("build", [faulty_two_input_block, relation_block, pipeline],
                         ids=["crossbar-faults", "relation", "pipeline"])
@pytest.mark.parametrize("copier", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
def test_copies_infer_alike_and_share_no_backend(build, copier, monkeypatch):
    """A copy, taken while writes are still deferred, reads as the original
    does, and writes to the copy never reach the original."""
    model, probe = build()
    blocks = model.blocks if isinstance(model, Pipeline) else [model]
    calls = count_drift_calls(monkeypatch)
    twin = copier(model)
    assert len(calls) == len(blocks)  # every block still held writes, settled by the copy
    twins = twin.blocks if isinstance(twin, Pipeline) else [twin]
    drive = blocks[0].concat_grades(probe)[None]
    assert np.array_equal(twin.infer_rows(drive)[0], model.infer_rows(drive)[0])
    for blk, other in zip(blocks, twins):
        assert other.backend is not blk.backend
        assert json.dumps(model_to_json(other)) == json.dumps(model_to_json(blk))
        before = blk.snapshot_delta()
        inputs = probe if blk is model else fuzzify_gaussian(0.4, 0.06, UX)
        block_train(other, inputs, fuzzify_gaussian(0.5, 0.06, UZ), 1e-4)
        assert np.array_equal(blk.snapshot_delta(), before)
        assert not np.array_equal(other.snapshot_delta(), before)
