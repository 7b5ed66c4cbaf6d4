import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crossfuzzy.crossbar
from crossfuzzy.crossbar import Crossbar, load_delta_csv, save_delta_csv
from crossfuzzy.device import DEFAULT_PARAMS, apply_flux
from crossfuzzy.fuzzy import FuzzyNumber, Universe
from crossfuzzy.harness import default_config
from crossfuzzy.relation import Relation, implication_f
from crossfuzzy.system import Block, block_infer, block_to_json, model_from_json
from oracles import (
    closed_form_memristance,
    delta_csv_rows,
    read_exact,
    read_ideal,
    rk4_memristance,
    sequential_writes,
)

R_ON = DEFAULT_PARAMS.r_on
R_OFF = DEFAULT_PARAMS.r_off

# One full-grade pulse (summed drive 2 V for 1e-4 s) on a pristine cell.
M_ONE_PULSE = 99980.19803941179
DELTA_ONE_PULSE = 19.80196058821457


def one_cell_after_pulse() -> Crossbar:
    xb = Crossbar(1, 1, DEFAULT_PARAMS)
    xb.write_pulse([1.0], [1.0], 1e-4)
    return xb


def test_write_pulse_single_cell():
    xb = one_cell_after_pulse()
    assert xb.memristance[0, 0] == pytest.approx(M_ONE_PULSE, rel=1e-12)
    assert xb.snapshot_delta()[0, 0] == pytest.approx(DELTA_ONE_PULSE, rel=1e-12)
    ode = rk4_memristance(R_OFF, 2.0, 1e-4, DEFAULT_PARAMS, steps=20000)
    assert xb.memristance[0, 0] == pytest.approx(ode, rel=1e-9)


def test_write_pulse_zero_grades_is_identity():
    xb = Crossbar(3, 4, DEFAULT_PARAMS)
    xb.write_pulse([0.7, 0.1, 0.0, 0.4], [0.2, 0.9, 0.5], 1e-4)
    before = xb.memristance.copy()
    xb.write_pulse(np.zeros(4), np.zeros(3), 1e-4)
    assert np.array_equal(xb.memristance, before)


def test_write_pulse_skips_faulted_cells():
    mask = np.zeros((2, 2), dtype=bool)
    mask[0, 1] = True
    xb = Crossbar(2, 2, DEFAULT_PARAMS, fault_mask=mask)
    xb.write_pulse([1.0, 1.0], [1.0, 1.0], 1e-4)
    assert xb.memristance[0, 1] == R_OFF
    assert xb.snapshot_delta()[0, 1] == 0.0
    assert np.all(xb.memristance[~mask] < R_OFF)


def test_write_pulse_matches_per_cell_device_update():
    xb = Crossbar(3, 5, DEFAULT_PARAMS)
    rng = np.random.default_rng(7)
    col = rng.uniform(0, 1, 5)
    row = rng.uniform(0, 1, 3)
    xb.write_pulse(col, row, 2e-4)
    for i in range(3):
        for j in range(5):
            cell = closed_form_memristance(R_OFF, (col[j] + row[i]) * 2e-4, DEFAULT_PARAMS)
            assert xb.memristance[i, j] == pytest.approx(cell, rel=1e-12)


def test_write_pulse_validation():
    xb = Crossbar(2, 3, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        xb.write_pulse([1.0, 0.5], [0.1, 0.2], 1e-4)  # wrong column count
    with pytest.raises(ValueError):
        xb.write_pulse([1.0, 0.5, 0.1], [0.1], 1e-4)  # wrong row count
    with pytest.raises(ValueError):
        xb.write_pulse([1.2, 0.5, 0.1], [0.1, 0.2], 1e-4)  # grade above 1
    with pytest.raises(ValueError):
        xb.write_pulse([-0.1, 0.5, 0.1], [0.1, 0.2], 1e-4)  # negative grade
    with pytest.raises(ValueError):
        xb.write_pulse([1.0, 0.5, 0.1], [0.1, 0.2], 0.0)  # non-positive pulse


NAN, INF = float("nan"), float("inf")


def _config_with_t0(t0):
    replace(default_config("exp-f1"), t0=t0)


@pytest.mark.parametrize(
    "write",
    [
        lambda: Crossbar(1, 2, DEFAULT_PARAMS).write_pulse([NAN, 0.5], [0.5], 1e-4),
        lambda: Crossbar(2, 1, DEFAULT_PARAMS).write_pulse([0.5], [0.5, NAN], 1e-4),
        lambda: Crossbar(1, 1, DEFAULT_PARAMS).write_pulse([0.5], [0.5], NAN),
        lambda: Crossbar(1, 1, DEFAULT_PARAMS).write_pulse([0.5], [0.5], INF),
        lambda: implication_f(1.0, DEFAULT_PARAMS, NAN),
        lambda: implication_f(1.0, DEFAULT_PARAMS, INF),
        lambda: _config_with_t0(NAN),
        lambda: _config_with_t0(INF),
        lambda: Crossbar(1, 2, DEFAULT_PARAMS, memristance=[[R_OFF, NAN]]),
        lambda: apply_flux(R_OFF, DEFAULT_PARAMS, NAN),
    ],
    ids=[
        "nan-column-grade",
        "nan-row-grade",
        "nan-t0-write",
        "inf-t0-write",
        "nan-t0-implication",
        "inf-t0-implication",
        "nan-t0-config",
        "inf-t0-config",
        "nan-memristance",
        "nan-flux",
    ],
)
def test_non_finite_write_inputs_are_rejected(write):
    with pytest.raises(ValueError):
        write()


U2 = Universe(0.0, 1.0, 2)


def _accumulate(mode, a_grades, b_grades, t0):
    Relation(U2, U2, mode=mode).accumulate(a_grades, b_grades, t0)


WRITERS = {
    "write_pulse": lambda col, row, t0: Crossbar(2, 2, DEFAULT_PARAMS).write_pulse(col, row, t0),
    "accumulate-hardware": lambda col, row, t0: _accumulate("hardware", col, row, t0),
    "accumulate-additive": lambda col, row, t0: _accumulate("additive", col, row, t0),
    "implication_f": lambda col, row, t0: implication_f(
        np.add.outer(row, col), DEFAULT_PARAMS, t0
    ),
}


BAD_WRITES = {
    "nan-t0": ([0.5, 0.5], [0.5, 0.0], NAN),
    "inf-t0": ([0.5, 0.5], [0.5, 0.0], INF),
    "zero-t0": ([0.5, 0.5], [0.5, 0.0], 0.0),
    "negative-t0": ([0.5, 0.5], [0.5, 0.0], -1e-4),
    # Each negative case drives one cell negative too, so that implication_f,
    # which sees only each cell's summed grade, is asked as well...
    "negative-column": ([-0.5, 0.5], [0.5, 0.0], 1e-4),
    "negative-row": ([0.5, 0.5], [0.5, -0.75], 1e-4),
    "nan-column": ([NAN, 0.5], [0.5, 0.0], 1e-4),
    "nan-row": ([0.5, 0.5], [NAN, 0.0], 1e-4),
    # ...except these. Here the row grades cover the negative column grade
    # and every summed grade is non-negative: only the lines show it.
    "negative-column-covered": ([-0.5, 0.5], [0.5, 0.5], 1e-4),
    # Line grades lie in [0, 1]; implication_f takes summed grades up to 2,
    # and every sum here is at most 2.
    "column-above-1": ([1.5, 0.5], [0.5, 0.0], 1e-4),
    "row-above-1": ([0.5, 0.5], [0.5, 1.25], 1e-4),
}
LINE_CASES = {"negative-column-covered", "column-above-1", "row-above-1"}


@pytest.mark.parametrize(
    "writer, col, row, t0",
    [
        pytest.param(writer, *case, id=f"{name}-{writer}")
        for name, case in BAD_WRITES.items()
        for writer in sorted(WRITERS)
        if not (name in LINE_CASES and writer == "implication_f")
    ],
)
def test_every_writer_rejects_bad_t0_and_grades(writer, col, row, t0):
    with pytest.raises(ValueError):
        WRITERS[writer](np.array(col), np.array(row), t0)


def test_saturation_counting():
    xb = Crossbar(1, 2, DEFAULT_PARAMS)
    # Drive one column hard enough to clamp its cell at r_on.
    for _ in range(3):
        xb.write_pulse([1.0, 0.0], [1.0], 0.2)
    assert xb.memristance[0, 0] == R_ON
    assert xb.saturation_count >= 1


def test_read_pristine_cancels():
    xb = Crossbar(5, 8, DEFAULT_PARAMS)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, 8)
    # exact mode cancels only to float rounding; ideal mode is exactly zero
    assert np.allclose(xb.read_exact(x), 0.0, atol=1e-12)
    assert np.all(xb.read_ideal(x) == 0.0)


def test_read_zero_input_gives_zero():
    xb = one_cell_after_pulse()
    assert xb.read_exact(np.zeros(1))[0] == 0.0
    assert xb.read_ideal(np.zeros(1))[0] == 0.0


def test_read_exact_single_cell_value():
    xb = one_cell_after_pulse()
    y = xb.read_exact([0.5])
    assert y[0] == pytest.approx(-9.90294127063418e-05, rel=1e-12)


def test_read_ideal_single_cell_value_and_gap():
    xb = one_cell_after_pulse()
    yi = xb.read_ideal([0.5])[0]
    ye = xb.read_exact([0.5])[0]
    assert yi == pytest.approx(-9.900980294107284e-05, rel=1e-12)
    assert abs(ye - yi) / abs(ye) == pytest.approx(2e-4, rel=0.05)


def test_read_ideal_extracts_columns():
    rng = np.random.default_rng(11)
    delta = rng.uniform(0, 50.0, (6, 4))
    xb = Crossbar.from_delta(delta, DEFAULT_PARAMS)
    stored = xb.snapshot_delta()  # from_delta quantizes at r_off's ulp
    assert np.allclose(stored, delta, rtol=0, atol=1e-10)
    for k in range(4):
        x = np.zeros(4)
        x[k] = 0.8
        expected = (-1.0 / R_OFF) * 0.8 * stored[:, k]
        assert np.allclose(xb.read_ideal(x), expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["exact", "ideal"])
@pytest.mark.parametrize(
    "x",
    [[NAN, 1.0, 0.0], [0.5, INF, 0.0], [0.5, 0.0, -INF], [INF, -INF, 0.0]],
    ids=["nan", "inf", "minus-inf", "inf-minus-inf"],
)
def test_non_finite_read_inputs_are_rejected(mode, x):
    xb = Crossbar(2, 3, DEFAULT_PARAMS)
    xb.write_pulse([1.0, 0.5, 0.0], [0.5, 1.0], 1e-4)
    with pytest.raises(ValueError, match="finite"):
        getattr(xb, f"read_{mode}")(x)


def test_memristance_is_read_only():
    xb = Crossbar(2, 2, DEFAULT_PARAMS)
    steps = [
        lambda: None,
        lambda: xb.write_pulse([1.0, 0.0], [1.0, 0.0], 1e-4),
        lambda: xb.inject_faults(0.5, seed=1),
    ]
    for step in steps:
        step()
        before = xb.memristance.copy()
        with pytest.raises(ValueError):
            xb.memristance[0, 0] = R_ON
        assert np.array_equal(xb.memristance, before)


def test_state_has_no_setter_and_a_held_write_survives_the_attempt(monkeypatch):
    """M and the fault mask change only through the constructor, writes and
    ``inject_faults``: assigning either raises, and a write held before the
    attempt settles exactly as on an untouched twin."""
    calls = []

    def counted(*args, _drift=crossfuzzy.crossbar.drift):
        calls.append(1)
        return _drift(*args)

    monkeypatch.setattr(crossfuzzy.crossbar, "drift", counted)
    pulse = ([1.0, 0.5], [0.5, 0.0], 1e-4)
    xb, twin = Crossbar(2, 2, DEFAULT_PARAMS), Crossbar(2, 2, DEFAULT_PARAMS)
    for b in (xb, twin):
        b.write_pulse(*pulse)
    with pytest.raises(AttributeError):
        xb.memristance = np.full((2, 2), R_OFF)
    with pytest.raises(AttributeError):
        xb.fault_mask = np.ones((2, 2), dtype=bool)  # would drop the held write
    assert calls == []  # the write is still held
    assert not xb.fault_mask.any()
    assert np.array_equal(xb.memristance, twin.memristance)
    want = sequential_writes(np.full((2, 2), R_OFF), [pulse], DEFAULT_PARAMS)[0]
    assert np.abs(xb.memristance - want).max() <= 1e-9 * (R_OFF - want).max()
    assert np.all(xb.memristance < R_OFF)


def test_read_dimension_mismatch():
    xb = Crossbar(2, 3, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        xb.read_exact([1.0, 2.0])
    with pytest.raises(ValueError):
        xb.read_ideal([1.0, 2.0, 3.0, 4.0])


def test_read_config_dispatch():
    u = Universe(0.0, 1.0, 2)
    xb = Crossbar(2, 2, DEFAULT_PARAMS)
    xb.write_pulse([1.0, 0.3], [0.8, 0.0], 1e-4)
    x = FuzzyNumber(u, [0.5, 0.25])
    exact = block_infer(Block(xb, [("x", u)], u), x).grades
    ideal = block_infer(Block(xb, [("x", u)], u, read_mode="ideal"), x).grades
    assert np.array_equal(exact, xb.read_exact(x.grades))
    assert np.array_equal(ideal, xb.read_ideal(x.grades))
    assert not np.array_equal(exact, ideal)
    with pytest.raises(ValueError):
        Block(xb, [("x", u)], u, read_mode="approximate")
    with pytest.raises(ValueError):
        Block.pristine([("x", u)], u, DEFAULT_PARAMS, read_mode="approximate")
    blk = Block(xb, [("x", u)], u, read_mode="ideal")
    with pytest.raises(AttributeError):
        blk.read_mode = "exact"  # the mode is fixed when the block is built
    assert np.array_equal(block_infer(blk, x).grades, ideal)


def test_fault_mask_is_changed_only_by_inject_faults():
    xb = Crossbar(3, 3, DEFAULT_PARAMS, fault_mask=np.eye(3, dtype=bool))
    xb.write_pulse(np.ones(3), np.ones(3), 1e-4)
    with pytest.raises(ValueError):
        xb.fault_mask[0, 1] = True  # would leave the stored value in M
    xb.inject_faults(0.5, seed=3)
    with pytest.raises(ValueError):
        xb.fault_mask[0, 1] = True
    assert np.all(np.diag(xb.fault_mask))
    assert np.array_equal(xb.memristance[xb.fault_mask], np.full(xb.fault_mask.sum(), R_OFF))
    assert np.all(xb.memristance[~xb.fault_mask] < R_OFF)


def test_inject_faults_counts_and_determinism():
    xb = Crossbar(180, 100, DEFAULT_PARAMS)
    xb.inject_faults(0.5, seed=99)
    assert int(xb.fault_mask.sum()) == 9000
    again = Crossbar(180, 100, DEFAULT_PARAMS)
    again.inject_faults(0.5, seed=99)
    assert np.array_equal(xb.fault_mask, again.fault_mask)
    other = Crossbar(180, 100, DEFAULT_PARAMS)
    other.inject_faults(0.5, seed=100)
    assert not np.array_equal(xb.fault_mask, other.fault_mask)


def test_inject_faults_extremes():
    xb = Crossbar(4, 4, DEFAULT_PARAMS)
    xb.inject_faults(0.0, seed=1)
    assert not xb.fault_mask.any()
    xb.write_pulse(np.ones(4), np.ones(4), 1e-4)
    xb.inject_faults(1.0, seed=1)
    assert xb.fault_mask.all()
    # everything stuck at r_off: the stored pattern is gone
    assert np.all(xb.read_ideal(np.ones(4)) == 0.0)
    with pytest.raises(ValueError):
        xb.inject_faults(1.5, seed=1)


def test_csv_rows_are_the_per_cell_repr(tmp_path):
    tiny = np.finfo(float).tiny
    delta = np.array(
        [
            [0.0, -0.0, tiny, tiny / 2**20, 5e-324],
            [1e-300, 19.80196058821457, 1 / 3, 99980.19803941179, 1e5],
            [1e300, np.finfo(float).max, 123456789.0, 2.0**53 + 2, 0.1],
        ]
    )
    path = tmp_path / "surface.csv"
    sections = {tmp_path / "left.csv": (0, 2), tmp_path / "right.csv": (2, 5)}
    save_delta_csv(path, delta, R_OFF, sections)
    _, body = path.read_text().split("\n", 1)
    assert body == delta_csv_rows(delta)
    loaded, _ = load_delta_csv(path)
    assert np.array_equal(loaded, delta)
    for section, (start, stop) in sections.items():  # the columns start:stop, alone
        header, body = section.read_text().split("\n", 1)
        assert header == f"# rows=3 cols={stop - start} r_off={R_OFF}"
        assert body == delta_csv_rows(delta[:, start:stop])


HEADER = "# rows=7 cols=3 r_off=100000.0"  # as written


def written_surface(tmp_path):
    delta = np.random.default_rng(5).uniform(0, 100.0, (7, 3))
    path = tmp_path / "surface.csv"
    save_delta_csv(path, delta, R_OFF)
    return path, delta


def test_csv_round_trip(tmp_path):
    path, delta = written_surface(tmp_path)
    loaded, r_off = load_delta_csv(path)
    assert r_off == R_OFF
    assert np.array_equal(loaded, delta)
    assert path.read_text().splitlines()[0] == HEADER


@pytest.mark.parametrize("header, cell, refusal", [
    ("# rows=7 cols=3", None, "header must be"),
    ("# rows=7 cols=3 r_off", None, "header must be"),
    ("# rows=7 cols=3 r_off=1e5 r_on=1e3", None, "header must be"),
    ("# rows=7 cols=3 cols=3", None, "header must be"),
    ("# rows=7.0 cols=3 r_off=1e5", None, "header must be"),
    ("# rows=7 cols=three r_off=1e5", None, "header must be"),
    ("# rows=7 cols=3 r_off=nan", None, "r_off must be finite and positive"),
    ("# rows=7 cols=3 r_off=inf", None, "r_off must be finite and positive"),
    ("# rows=7 cols=3 r_off=-1e5", None, "r_off must be finite and positive"),
    ("# rows=7 cols=3 r_off=ten", None, "r_off must be finite and positive"),
    (HEADER, "nan", "cells must be finite and non-negative"),
    (HEADER, "inf", "cells must be finite and non-negative"),
    (HEADER, "-1.5", "cells must be finite and non-negative"),
    (HEADER, "abc", "could not convert"),
    ("# rows=6 cols=3 r_off=1e5", None, "data shape"),
], ids=["no-r_off", "r_off-no-value", "extra-key", "repeated-key", "float-count",
        "text-count", "nan-r_off", "inf-r_off", "negative-r_off", "text-r_off", "nan-cell",
        "inf-cell", "negative-cell", "text-cell", "wrong-count"])
def test_csv_load_refuses_what_save_cannot_write(tmp_path, header, cell, refusal):
    """The round-trip surface with its header replaced, or its cell (3, 0): a
    header or cell that ``save_delta_csv`` cannot have written is refused by
    one ``ValueError`` that names the file."""
    path, _ = written_surface(tmp_path)
    lines = path.read_text().splitlines()
    lines[0] = header
    if cell is not None:
        lines[4] = ",".join([cell, *lines[4].split(",")[1:]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {refusal}"):
        load_delta_csv(path)


@pytest.mark.parametrize("delta, r_off, refusal", [
    (np.array([[1.0, -2.0]]), math.nan, "r_off must be finite and positive"),
    (np.ones((7, 3)), math.inf, "r_off must be finite and positive"),
    (np.ones((7, 3)), -R_OFF, "r_off must be finite and positive"),
    (np.ones((7, 3)), 0.0, "r_off must be finite and positive"),
    (np.ones(3), R_OFF, "a surface must be a non-empty 2-D array"),
    (np.ones((2, 3, 3)), R_OFF, "a surface must be a non-empty 2-D array"),
    (np.ones((0, 3)), R_OFF, "a surface must be a non-empty 2-D array"),
    (np.ones((7, 0)), R_OFF, "a surface must be a non-empty 2-D array"),
    (np.array([[1.0, math.nan]]), R_OFF, "cells must be finite and non-negative"),
    (np.array([[1.0, math.inf]]), R_OFF, "cells must be finite and non-negative"),
    (np.array([[1.0, -2.0]]), R_OFF, "cells must be finite and non-negative"),
], ids=["nan-r_off", "inf-r_off", "negative-r_off", "zero-r_off", "1-d", "3-d", "no-rows",
        "no-cols", "nan-cell", "inf-cell", "negative-cell"])
def test_csv_save_refuses_what_load_refuses(tmp_path, delta, r_off, refusal):
    """A surface ``load_delta_csv`` would refuse is not written: one
    ``ValueError`` names the file, and neither it nor a section file exists."""
    path = tmp_path / "surface.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {refusal}"):
        save_delta_csv(path, delta, r_off, {tmp_path / "left.csv": (0, 1)})
    assert list(tmp_path.iterdir()) == []


# -- properties ---------------------------------------------------------------


def random_small_crossbar(rng, max_delta=90.0):
    m, n = int(rng.integers(1, 15)), int(rng.integers(1, 15))
    delta = rng.uniform(0.0, max_delta, (m, n))
    return Crossbar.from_delta(delta, DEFAULT_PARAMS)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_read_ideal_is_the_matrix_product(seed):
    rng = np.random.default_rng(seed)
    xb = random_small_crossbar(rng)
    x = rng.uniform(0, 1, xb.cols)
    oracle = (-1.0 / R_OFF) * (xb.snapshot_delta() @ x)
    assert np.array_equal(xb.read_ideal(x), oracle)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_read_linearity(seed):
    rng = np.random.default_rng(seed)
    xb = random_small_crossbar(rng)
    x = rng.uniform(-1, 1, xb.cols)
    z = rng.uniform(-1, 1, xb.cols)
    a, b = rng.uniform(-2, 2, 2)
    for read in (xb.read_exact, xb.read_ideal):
        lhs = read(a * x + b * z)
        rhs = a * read(x) + b * read(z)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_exact_vs_ideal_second_order_bound(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    eps = rng.uniform(1e-5, 1e-3)
    delta = rng.uniform(0.0, 1.0, (m, n))
    delta *= eps * R_OFF / delta.max()
    xb = Crossbar.from_delta(delta, DEFAULT_PARAMS)
    x = rng.uniform(0, 1, n)
    gap = np.abs(xb.read_exact(x) - xb.read_ideal(x))
    bound = x.sum() * eps**2 / (1.0 - eps)
    assert np.all(gap <= bound + 1e-15)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_write_monotonicity(seed):
    rng = np.random.default_rng(seed)
    xb = Crossbar(int(rng.integers(1, 10)), int(rng.integers(1, 10)), DEFAULT_PARAMS)
    previous_delta = xb.snapshot_delta()
    for _ in range(int(rng.integers(1, 6))):
        before = xb.memristance.copy()
        xb.write_pulse(
            rng.uniform(0, 1, xb.cols), rng.uniform(0, 1, xb.rows), 10 ** rng.uniform(-5, -2)
        )
        assert np.all(xb.memristance <= before)
        delta = xb.snapshot_delta()
        assert np.all(delta >= previous_delta)
        assert np.all(xb.memristance >= R_ON)
        previous_delta = delta


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_fault_mask_determinism(seed, fraction):
    a = Crossbar(9, 13, DEFAULT_PARAMS)
    b = Crossbar(9, 13, DEFAULT_PARAMS)
    a.inject_faults(fraction, seed)
    b.inject_faults(fraction, seed)
    assert np.array_equal(a.fault_mask, b.fault_mask)
    assert int(a.fault_mask.sum()) == int(fraction * 9 * 13)


OBSERVERS = ["exact", "ideal", "fault", "delta", "section", "json"]


@settings(max_examples=600, deadline=None)  # about 100 per backend and device
@given(
    backend=st.sampled_from(["crossbar", "hardware", "additive"]),
    v_th=st.sampled_from([0.0, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.lists(st.sampled_from(["write", "write", *OBSERVERS]), max_size=12),
)
def test_cached_reads_match_the_uncached_formula(backend, v_th, seed, steps):
    """Every read equals the read matrix rebuilt from the stored state, bit for
    bit, after any interleaving of writes, fault injection and reads in either
    mode: on a crossbar and on a hardware and an additive relation (whose one
    read is ``infer``, which must equal ``mu @ x``), on the threshold-free
    device, where writes are held, and on the 1 V one, where every write is
    eager. Every observer that follows a write (a read, ``inject_faults``,
    ``snapshot_delta``, ``section_delta``, model JSON) sees the settled
    state: the sequential writer's, within 1e-9 of its largest stored value.
    A relation has no fault mask; its ``fault`` step only observes."""
    params = replace(DEFAULT_PARAMS, v_th=v_th)
    rng = np.random.default_rng(seed)
    u = Universe(0.0, 1.0, int(rng.integers(2, 7)))
    v = Universe(0.0, 1.0, int(rng.integers(2, 7)))
    if backend == "crossbar":
        block = Block.pristine([("x", u)], v, params)
    else:
        block = Block(Relation(u, v, mode=backend, params=params), [("x", u)], v)
    b = block.backend
    key = "memristance" if backend == "crossbar" else "mu"
    # The sequential writer's stored values, r_off - M. M stays above r_off / 2,
    # so r_off - M and back are exact.
    want = np.zeros((b.rows, b.cols))

    def stored(model):
        return R_OFF - model.memristance if backend == "crossbar" else model.mu

    def assert_sequential(delta):
        assert np.abs(delta - want).max() <= 1e-9 * want.max()

    def read(model, step, x):
        if backend == "crossbar":
            return getattr(model, f"read_{step}")(x)
        return model.infer(x)

    def assert_fresh_read(model, step, x):
        # A read of a stale matrix would differ from one rebuilt from the
        # stored state that the getter settles.
        if backend == "crossbar":
            oracle = read_exact if step == "exact" else read_ideal
            assert np.array_equal(read(model, step, x), oracle(model.memristance, x, R_OFF))
        else:
            assert np.array_equal(read(model, step, x), model.mu @ x)
            # Past the bound of the current mu; a bound measured on an older,
            # smaller mu would let it through.
            bound = np.finfo(float).max / (2 * model.cols) / max(1.0, model.mu.max())
            with pytest.raises(ValueError, match="within"):
                model.infer(np.full(model.cols, 1.5 * bound))

    for step in steps + ["exact", "ideal"]:
        if step == "write":
            pulse = (rng.uniform(0, 1, b.cols), rng.uniform(0, 1, b.rows), 1e-3)
            if backend == "crossbar":
                b.write_pulse(*pulse)
            else:
                b.accumulate(*pulse)
            if backend == "additive":  # one pristine device's increment per pulse, summed
                want = want + R_OFF - sequential_writes(np.full(want.shape, R_OFF), [pulse],
                                                        params)[0]
            else:
                mask = b.fault_mask if backend == "crossbar" else None
                want = R_OFF - sequential_writes(R_OFF - want, [pulse], params, mask)[0]
        elif step == "fault":
            if backend == "crossbar":
                b.inject_faults(float(rng.uniform(0, 0.5)), int(rng.integers(1000)))
                want = np.where(b.fault_mask, 0.0, want)
            assert_sequential(stored(b))
        elif step == "delta":
            assert_sequential(block.snapshot_delta())
        elif step == "section":
            assert_sequential(block.section_delta("x"))
        elif step == "json":
            saved = np.array(block_to_json(block)[key])
            assert_sequential(R_OFF - saved if backend == "crossbar" else saved)
        else:
            assert_fresh_read(b, step, rng.uniform(0, 1, b.cols))
            assert_sequential(stored(b))
    x = rng.uniform(0, 1, b.cols)
    back = model_from_json(block_to_json(block)).blocks[0].backend
    assert np.array_equal(stored(back), stored(b))
    for mode in ("exact", "ideal"):
        assert_fresh_read(back, mode, x)
        assert np.array_equal(read(back, mode, x), read(b, mode, x))
