import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS, MemristorParams
from crossfuzzy.fuzzy import (
    EmptyOutputError,
    FuzzyNumber,
    Universe,
    defuzzify_centroid,
    fuzzify_gaussian,
    normalize_peak,
)
from crossfuzzy.relation import Relation
from crossfuzzy.system import (
    Block,
    Pipeline,
    block_infer,
    block_to_json,
    block_train,
    model_from_json,
    model_to_json,
    pipeline_infer,
    pipeline_rows,
)

R_OFF = DEFAULT_PARAMS.r_off
U100 = Universe(0.0, 1.0, 100)
UX = Universe(0.0, 1.0, 12)
UY = Universe(2.0, 4.0, 8)
UZ = Universe(0.0, 1.0, 10)
T0 = 1e-6


def two_input_block(read_mode="ideal") -> Block:
    return Block.pristine([("x", UX), ("y", UY)], UZ, DEFAULT_PARAMS, read_mode=read_mode)


def sample_inputs():
    return {
        "x": fuzzify_gaussian(0.4, 0.06, UX),
        "y": fuzzify_gaussian(3.1, 0.12, UY),
    }


def test_single_variable_block_is_plain_write():
    blk = Block.pristine([("x", UX)], UZ, DEFAULT_PARAMS)
    a = fuzzify_gaussian(0.3, 0.06, UX)
    b = fuzzify_gaussian(0.8, 0.06, UZ)
    block_train(blk, a, b, T0)
    xb = Crossbar(UZ.count, UX.count, DEFAULT_PARAMS)
    xb.write_pulse(a.grades, b.grades, T0)
    assert np.array_equal(blk.snapshot_delta(), xb.snapshot_delta())


def test_two_input_training_concatenates_sections():
    blk = two_input_block()
    inputs = sample_inputs()
    out = fuzzify_gaussian(0.6, 0.06, UZ)
    block_train(blk, inputs, out, T0)
    # the x-section is written exactly as a single-input block would be,
    # independent of the y grades
    solo = Block.pristine([("x", UX)], UZ, DEFAULT_PARAMS)
    block_train(solo, inputs["x"], out, T0)
    assert np.array_equal(blk.section_delta("x"), solo.snapshot_delta())
    # sections tile the full surface
    full = np.hstack([blk.section_delta("x"), blk.section_delta("y")])
    assert np.array_equal(full, blk.snapshot_delta())


def test_block_layout_validation():
    with pytest.raises(ValueError):
        Block.pristine([], UZ, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        Block.pristine([("x", UX), ("x", UY)], UZ, DEFAULT_PARAMS)
    xb = Crossbar(UZ.count, UX.count + 1, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        Block(xb, [("x", UX)], UZ)
    xb2 = Crossbar(UZ.count + 1, UX.count, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        Block(xb2, [("x", UX)], UZ)


def test_block_input_validation():
    blk = two_input_block()
    inputs = sample_inputs()
    out = fuzzify_gaussian(0.6, 0.06, UZ)
    with pytest.raises(ValueError):
        block_train(blk, {"x": inputs["x"]}, out, T0)  # missing y
    with pytest.raises(ValueError):
        block_infer(blk, {**inputs, "w": inputs["x"]})  # unknown variable
    with pytest.raises(ValueError):
        block_train(blk, {"x": inputs["y"], "y": inputs["x"]}, out, T0)  # swapped
    with pytest.raises(ValueError):
        block_train(blk, inputs, fuzzify_gaussian(0.5, 0.06, UX), T0)  # wrong output
    with pytest.raises(ValueError):
        block_infer(blk, inputs["x"])  # bare fuzzy number on a 2-input block


def test_block_infer_zero_and_section_linearity():
    blk = two_input_block()
    inputs = sample_inputs()
    out = fuzzify_gaussian(0.6, 0.06, UZ)
    for _ in range(3):
        block_train(blk, inputs, out, T0)
    zero = {
        "x": FuzzyNumber(UX, np.zeros(UX.count)),
        "y": FuzzyNumber(UY, np.zeros(UY.count)),
    }
    assert np.all(block_infer(blk, zero).grades == 0.0)
    # ideal read over both sections = sum of per-section reads
    both = block_infer(blk, inputs).grades
    only_x = block_infer(blk, {**zero, "x": inputs["x"]}).grades
    only_y = block_infer(blk, {**zero, "y": inputs["y"]}).grades
    assert np.allclose(both, only_x + only_y, rtol=1e-9, atol=1e-18)


def test_relation_backed_block_matches_crossbar_sign_bridge():
    rel = Relation(UX, UZ, mode="hardware")
    oracle = Block(rel, [("x", UX)], UZ, device_params=DEFAULT_PARAMS)
    circuit = Block.pristine([("x", UX)], UZ, DEFAULT_PARAMS, read_mode="ideal")
    a = fuzzify_gaussian(0.5, 0.07, UX)
    b = fuzzify_gaussian(0.4, 0.07, UZ)
    for blk in (oracle, circuit):
        block_train(blk, a, b, T0)
    probe = fuzzify_gaussian(0.45, 0.07, UX)
    volts = block_infer(circuit, probe).grades
    grades = block_infer(oracle, probe).grades
    assert np.allclose(volts, -grades / R_OFF, rtol=1e-9, atol=1e-18)


def test_relation_backend_restrictions():
    rel = Relation(UX, UZ)
    with pytest.raises(ValueError, match="device_params"):
        Block(rel, [("x", UX)], UZ, device_params=replace(DEFAULT_PARAMS, r_off=2e5))
    Block(rel, [("x", UX)], UZ)  # device_params may be left out
    with pytest.raises(ValueError):
        Block(rel, [("x", UX), ("y", UY)], UZ, device_params=DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        Block(rel, [("x", UY)], UZ, device_params=DEFAULT_PARAMS)
    # Each of these fits the relation's rows and columns: only its universes refuse it.
    wide = Universe(0.0, 1.0, UX.count + UY.count)
    for backend, inputs, out_u in ((Relation(wide, UZ), [("x", UX), ("y", UY)], UZ),
                                   (rel, [("x", Universe(0.0, 2.0, UX.count))], UZ),
                                   (rel, [("x", UX)], Universe(0.0, 2.0, UZ.count))):
        with pytest.raises(ValueError, match="relation"):
            Block(backend, inputs, out_u)


def test_backend_is_read_only():
    """Rebinding the backend would leave the bound write and read on the old
    one: training would write a detached crossbar."""
    blk = two_input_block()
    xbar = blk.backend
    with pytest.raises(AttributeError):
        blk.backend = Crossbar(UZ.count, UX.count + UY.count, DEFAULT_PARAMS)
    assert blk.backend is xbar
    block_train(blk, {"x": fuzzify_gaussian(0.4, 0.06, UX), "y": fuzzify_gaussian(3.0, 0.12, UY)},
                fuzzify_gaussian(0.5, 0.06, UZ), T0)
    assert blk.snapshot_delta().max() > 0.0


def trained_siso_block(target, seed=0, read_mode="exact") -> Block:
    rng = np.random.default_rng(seed)
    blk = Block.pristine([("x", U100)], U100, DEFAULT_PARAMS, read_mode=read_mode)
    for x in rng.uniform(0, 1, 120):
        block_train(
            blk,
            fuzzify_gaussian(x, 0.05, U100),
            fuzzify_gaussian(target(x), 0.05, U100),
            T0,
        )
    return blk


def test_conditioning_preserves_centroid():
    blk = trained_siso_block(lambda x: x)
    probe = fuzzify_gaussian(0.5, 0.05, U100)
    raw = block_infer(blk, probe)
    assert np.all(raw.grades <= 0.0)  # amplifier reads invert
    conditioned = normalize_peak(FuzzyNumber(raw.universe, -raw.grades))
    assert defuzzify_centroid(conditioned) == pytest.approx(
        defuzzify_centroid(raw), rel=1e-12
    )


def test_single_block_pipeline_equals_conditioned_read():
    blk = trained_siso_block(lambda x: np.sqrt(x))
    pipe = Pipeline([blk])
    probe = fuzzify_gaussian(0.3, 0.05, U100)
    direct = normalize_peak(FuzzyNumber(U100, -block_infer(blk, probe).grades))
    assert np.array_equal(pipeline_infer(pipe, probe).grades, direct.grades)


def test_identity_block_is_neutral_in_a_pipeline():
    ident = Block(
        Relation(U100, U100, mu=np.eye(100)),
        [("x", U100)],
        U100,
        device_params=DEFAULT_PARAMS,
    )
    blk = trained_siso_block(lambda x: x * x)
    probe = fuzzify_gaussian(0.6, 0.05, U100)
    chained = pipeline_infer(Pipeline([ident, blk]), probe)
    alone = pipeline_infer(Pipeline([blk]), probe)
    assert np.allclose(chained.grades, alone.grades, rtol=1e-9, atol=1e-15)


def test_pipeline_regrids_between_stages():
    coarse = Universe(0.0, 1.0, 40)
    first = trained_siso_block(lambda x: x)
    rng = np.random.default_rng(3)
    second = Block.pristine([("x", coarse)], U100, DEFAULT_PARAMS)
    for x in rng.uniform(0, 1, 60):
        block_train(
            second,
            fuzzify_gaussian(x, 0.05, coarse),
            fuzzify_gaussian(x, 0.05, U100),
            T0,
        )
    pipe = Pipeline([first, second])
    out = pipeline_infer(pipe, fuzzify_gaussian(0.5, 0.05, U100))
    assert out.universe == U100
    assert np.isfinite(out.grades).all()


def test_pipeline_determinism_bitwise():
    pipe = Pipeline([trained_siso_block(np.sqrt), trained_siso_block(lambda x: x * x, seed=1)])
    probe = fuzzify_gaussian(0.42, 0.05, U100)
    a = pipeline_infer(pipe, probe)
    b = pipeline_infer(pipe, probe)
    assert np.array_equal(a.grades, b.grades)
    # The same input as a {name: FuzzyNumber} mapping, as block_infer takes it.
    c = pipeline_infer(pipe, {"x": probe})
    assert np.array_equal(a.grades, c.grades)


def test_pipeline_untrained_region_raises():
    pipe = Pipeline([Block.pristine([("x", U100)], U100, DEFAULT_PARAMS)])
    with pytest.raises(EmptyOutputError):
        pipeline_infer(pipe, fuzzify_gaussian(0.5, 0.05, U100))


def test_pipeline_validation():
    with pytest.raises(ValueError):
        Pipeline([])
    assert Pipeline([two_input_block()]).sections == two_input_block().sections
    with pytest.raises(ValueError, match="stages after the first must be single-input"):
        Pipeline([Block.pristine([("z", UZ)], UX, DEFAULT_PARAMS), two_input_block()])
    far = Universe(10.0, 11.0, 10)
    a = Block.pristine([("x", U100)], U100, DEFAULT_PARAMS)
    b = Block.pristine([("x", far)], far, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        Pipeline([a, b])
    for probe in (fuzzify_gaussian(10.5, 0.1, far), {"x": fuzzify_gaussian(10.5, 0.1, far)}):
        with pytest.raises(ValueError):
            pipeline_infer(Pipeline([a]), probe)


def test_block_json_round_trip():
    blk = two_input_block(read_mode="exact")
    inputs = sample_inputs()
    block_train(blk, inputs, fuzzify_gaussian(0.6, 0.06, UZ), T0)
    blk.backend.inject_faults(0.3, seed=5)
    blob = json.dumps(block_to_json(blk))
    back, = model_from_json(json.loads(blob)).blocks
    assert np.array_equal(back.backend.memristance, blk.backend.memristance)
    assert np.array_equal(back.backend.fault_mask, blk.backend.fault_mask)
    assert back.read_mode == blk.read_mode == "exact"
    assert [s.name for s in back.sections] == ["x", "y"]
    assert back.output_universe == UZ
    y1 = block_infer(blk, inputs).grades
    y2 = block_infer(back, inputs).grades
    assert np.array_equal(y1, y2)
    # Older files carry "r_c": null; the key is ignored.
    old, = model_from_json(dict(json.loads(blob), r_c=None)).blocks
    assert np.array_equal(old.backend.memristance, blk.backend.memristance)
    assert np.array_equal(block_infer(old, inputs).grades, y1)
    # Files written before the write threshold existed have no "v_th" key
    # and load as the threshold-free device.
    obj = json.loads(blob)
    assert obj["device"]["v_th"] == 0.0
    del obj["device"]["v_th"]
    pre_threshold, = model_from_json(obj).blocks
    assert pre_threshold.backend.params == DEFAULT_PARAMS
    assert np.array_equal(pre_threshold.backend.memristance, blk.backend.memristance)
    assert np.array_equal(block_infer(pre_threshold, inputs).grades, y1)


@pytest.mark.parametrize("cells", [[-1], [1.7], [UZ.count * (UX.count + UY.count)], [True]])
def test_block_json_rejects_fault_cells_outside_the_array(cells):
    obj = block_to_json(two_input_block())
    obj["fault_cells"] = cells
    with pytest.raises(ValueError, match="fault_cells"):
        model_from_json(obj)


@pytest.mark.parametrize("count", [-5, 2.7, "3", True, None])
def test_block_json_rejects_a_saturation_count_that_is_not_a_count(count):
    obj = dict(block_to_json(two_input_block()), saturation_count=count)
    with pytest.raises(ValueError, match="saturation_count"):
        model_from_json(obj)
    obj["saturation_count"] = 7
    assert model_from_json(obj).saturation_count == 7


def test_block_json_keeps_fault_cells_at_both_ends():
    blk = two_input_block()
    last = blk.backend.rows * blk.backend.cols - 1
    obj = dict(block_to_json(blk), fault_cells=[0, last])
    mask = model_from_json(obj).blocks[0].backend.fault_mask
    assert np.flatnonzero(mask).tolist() == [0, last]


def test_pipeline_json_round_trip():
    pipe = Pipeline([trained_siso_block(np.sqrt), trained_siso_block(lambda x: x * x, seed=1)])
    back = model_from_json(json.loads(json.dumps(model_to_json(pipe))))
    assert isinstance(back, Pipeline)
    probe = fuzzify_gaussian(0.37, 0.05, U100)
    assert np.array_equal(
        pipeline_infer(back, probe).grades, pipeline_infer(pipe, probe).grades
    )


def test_relation_block_json_round_trip():
    rel = Relation(UX, UZ, mode="additive", mu=np.full((UZ.count, UX.count), 2.5))
    blk = Block(rel, [("x", UX)], UZ, device_params=DEFAULT_PARAMS)
    back = model_from_json(block_to_json(blk)).blocks[0]
    assert isinstance(back.backend, Relation)
    assert back.backend.mode == "additive"
    assert np.array_equal(back.backend.mu, rel.mu)


def saturated_faulty_block(read_mode: str) -> Block:
    blk = two_input_block(read_mode=read_mode)
    block_train(blk, sample_inputs(), fuzzify_gaussian(0.6, 0.06, UZ), T0)
    block_train(blk, sample_inputs(), fuzzify_gaussian(0.3, 0.06, UZ), 1.0)  # clamps at r_on
    blk.backend.inject_faults(0.3, seed=5)
    assert blk.backend.saturation_count > 0 and blk.backend.fault_mask.any()
    return blk


def trained_relation_block(mode: str, read_mode: str) -> Block:
    rel = Relation(UX, UZ, mode=mode)
    blk = Block(rel, [("x", UX)], UZ, read_mode=read_mode, device_params=DEFAULT_PARAMS)
    for x, z in ((0.2, 0.7), (0.6, 0.3)):
        block_train(blk, fuzzify_gaussian(x, 0.06, UX), fuzzify_gaussian(z, 0.06, UZ), T0)
    return blk


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pipeline([saturated_faulty_block("exact")]),
        lambda: Pipeline([saturated_faulty_block("ideal")]),
        lambda: Pipeline([trained_relation_block("additive", "exact")]),
        lambda: Pipeline([trained_relation_block("hardware", "ideal")]),
        lambda: Pipeline(
            [trained_siso_block(np.sqrt), trained_siso_block(np.square, 1, read_mode="ideal")]
        ),
    ],
    ids=["crossbar-exact", "crossbar-ideal", "relation-additive", "relation-hardware", "pipeline"],
)
def test_model_json_round_trips_byte_for_byte(build):
    model = build()
    obj = json.loads(json.dumps(model_to_json(model)))
    back = model_from_json(obj)
    assert json.dumps(model_to_json(back)) == json.dumps(obj)
    assert len(back.blocks) == len(model.blocks)
    # A one-stage model is written as its block, byte for byte.
    first = model.blocks[0]
    assert json.dumps(model_to_json(Pipeline([first]))) == json.dumps(block_to_json(first))


def test_crossbar_block_refuses_other_device_params():
    xb = Crossbar(UZ.count, UX.count, DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="device_params"):
        Block(xb, [("x", UX)], UZ, device_params=replace(DEFAULT_PARAMS, r_off=2e5))
    for params in (None, DEFAULT_PARAMS, MemristorParams.from_json(DEFAULT_PARAMS.to_json())):
        assert Block(xb, [("x", UX)], UZ, device_params=params).backend.params == DEFAULT_PARAMS


def test_blocks_call_methods_wrapped_after_they_are_built(monkeypatch):
    # Built the way the benchmark builds them: blocks first, then the class
    # attributes are wrapped (as a tracer does), then the blocks are used.
    rel_blk = Block(Relation(UX, UZ, mode="hardware"), [("x", UX)], UZ,
                    device_params=DEFAULT_PARAMS)
    xb_blk, = model_from_json(block_to_json(Block.pristine([("x", UX)], UZ,
                                                           DEFAULT_PARAMS))).blocks
    calls = []
    for cls, name in ((Relation, "accumulate"), (Relation, "infer"),
                      (Crossbar, "write_pulse"), (Crossbar, "read_exact")):
        def spy(self, *args, _original=getattr(cls, name), _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(cls, name, spy)
    a, b = fuzzify_gaussian(0.3, 0.06, UX), fuzzify_gaussian(0.7, 0.06, UZ)
    for blk in (rel_blk, xb_blk):
        block_train(blk, a, b, T0)
        block_infer(blk, a)
        pipeline_rows(Pipeline([blk]), a.grades[None])
    assert calls == ["accumulate", "infer", "infer", "write_pulse", "read_exact", "read_exact"]
    assert rel_blk.snapshot_delta().any() and xb_blk.snapshot_delta().any()


def test_model_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind must be 'block', got 'mystery'"):
        model_from_json({"kind": "mystery"})
    with pytest.raises(ValueError, match=r"backend must be .*, got None \(no kind: read as a block"):
        model_from_json({"blocks": []})  # a pipeline without its kind


def test_a_block_without_kind_loads_at_the_top_and_as_a_stage():
    """No ``kind`` means a block, in a top-level model as in a pipeline stage."""
    blk = Block.pristine([("x", UX)], UZ, DEFAULT_PARAMS)
    blk.backend.write_pulse(np.linspace(0.0, 1.0, UX.count), np.ones(UZ.count), T0)
    for model, stage in ((Pipeline([blk]), None),
                         (Pipeline([blk, Block(Relation(UZ, UZ), [("z", UZ)], UZ)]), 1)):
        want = model_to_json(model)
        obj = json.loads(json.dumps(want))
        del (obj if stage is None else obj["blocks"][stage])["kind"]
        assert model_to_json(model_from_json(obj)) == want


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_conditioning_centroid_invariance_property(seed):
    rng = np.random.default_rng(seed)
    u = Universe(0.0, 1.0, 30)
    g = -rng.uniform(0.0, 1e-3, 30)  # fixed-sign read-out voltages
    g[rng.integers(0, 30)] = -1e-3  # guarantee a non-zero peak
    raw = FuzzyNumber(u, g)
    conditioned = normalize_peak(FuzzyNumber(u, -raw.grades))
    assert defuzzify_centroid(conditioned) == pytest.approx(
        defuzzify_centroid(raw), rel=1e-9
    )
