"""Properties of the boundary checks: every in-range draw is accepted, and
every non-finite or out-of-range draw raises ``ValueError`` where it enters.

Each check gets one property over in-range draws and one over draws that
put a single value out of range, so no check is exercised only by its
hand-picked cases.
"""

import json
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossfuzzy.crossbar import Crossbar
from crossfuzzy.device import DEFAULT_PARAMS, MemristorParams, beta
from crossfuzzy.fuzzy import Universe, fuzzify_gaussian
from crossfuzzy.harness import (EXPERIMENT_NAMES, DatasetSpec, EvalSpec, ExperimentConfig,
                                default_config, eval_points)
from crossfuzzy.relation import Relation
from crossfuzzy.system import Block, block_to_json, model_from_json, model_to_json

NAN, INF = math.nan, math.inf
NON_FINITE = st.sampled_from([NAN, INF, -INF])
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
NOT_POSITIVE = st.one_of(NON_FINITE, st.floats(max_value=0.0))
NEGATIVE = st.one_of(NON_FINITE, st.floats(max_value=0.0, exclude_max=True))
GRADE = st.floats(min_value=0.0, max_value=1.0)
U3 = Universe(0.0, 1.0, 3)
U4 = Universe(0.0, 1.0, 4)
examples = settings(max_examples=150, deadline=None)


def grades(n: int, elements=GRADE):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


def with_one_bad(n: int, bad, good=GRADE):
    """``n`` good values with one of them, at a drawn place, replaced by a ``bad`` draw."""
    return st.tuples(grades(n, good), st.integers(0, n - 1), bad).map(
        lambda t: np.where(np.arange(n) == t[1], t[2], t[0]))


# -- device constants and universes --------------------------------------------

# Constants within 1e±50 give beta within about (1e-266, 1e251): finite and positive.
CONSTANT = st.floats(1e-50, 1e50)
RESISTANCES = st.lists(CONSTANT, min_size=2, max_size=2, unique=True).map(sorted)


def beta_in_range(**constants) -> bool:
    """Whether the drift constant of these constants is finite and positive."""
    try:
        return 0 < beta(SimpleNamespace(**constants)) < INF
    except (OverflowError, ZeroDivisionError):
        return False


@examples
@given(mu_v=CONSTANT, d=CONSTANT, r=RESISTANCES, v_th=NON_NEGATIVE)
def test_memristor_params_accept_every_in_range_draw(mu_v, d, r, v_th):
    """Each constant in range, and together they give a finite, positive beta."""
    assert beta_in_range(mu_v=mu_v, d=d, r_on=r[0], r_off=r[1])
    MemristorParams(mu_v=mu_v, d=d, r_on=r[0], r_off=r[1], v_th=v_th)


def one_field(field, values):
    return values.map(lambda v: {field: v})


@examples
@given(data=st.data())
def test_memristor_params_reject_every_out_of_range_draw(data):
    """One constant out of range (an ``r_off`` whose square overflows too),
    or each in range but beta past the float range: ``d**2`` or beta
    overflows, ``d**2`` or beta underflows to 0."""
    r_on, r_off = DEFAULT_PARAMS.r_on, DEFAULT_PARAMS.r_off
    match, bad = data.draw(st.sampled_from([
        ("mu_v", one_field("mu_v", NOT_POSITIVE)),
        ("d", one_field("d", NOT_POSITIVE)),
        ("r_on", one_field("r_on", st.one_of(NOT_POSITIVE, st.floats(min_value=r_off)))),
        ("r_off", one_field("r_off", st.one_of(NON_FINITE, st.floats(max_value=r_on)))),
        ("r_off", one_field("r_off", st.floats(1.35e154, 1e300))),  # r_off**2 overflows
        ("v_th", one_field("v_th", NEGATIVE)),
        ("beta", st.one_of(
            one_field("d", st.floats(min_value=1.5e154, allow_infinity=False)),
            one_field("d", st.floats(0.0, 1e-160, exclude_min=True)),
            one_field("mu_v", st.floats(min_value=1e290, allow_infinity=False)),
            st.fixed_dictionaries({"mu_v": st.floats(0.0, 1e-200, exclude_min=True),
                                   "d": st.floats(1e100, 1e150)}),
        )),
    ]))
    changes = data.draw(bad)
    assert match != "beta" or not beta_in_range(**{**DEFAULT_PARAMS.__dict__, **changes})
    with pytest.raises(ValueError, match=match):
        replace(DEFAULT_PARAMS, **changes)


FINITE_ENDS = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(sorted)
COUNTS = st.integers(2, 10_000)


@examples
@given(ends=FINITE_ENDS, count=COUNTS)
def test_universe_accepts_every_in_range_draw(ends, count):
    Universe(ends[0], ends[1], count)


@examples
@given(data=st.data(), ends=FINITE_ENDS, count=COUNTS)
def test_universe_rejects_every_out_of_range_draw(data, ends, count):
    lo, hi = ends
    bad = data.draw(st.sampled_from([
        (data.draw(NON_FINITE), hi, count),
        (lo, data.draw(NON_FINITE), count),
        (hi, lo, count),  # reversed
        (lo, lo, count),  # empty
        (-1e308, 1e308, count),  # finite ends, infinite width
        (lo, hi, data.draw(st.one_of(st.integers(max_value=1), st.just(float(count)),
                                     st.booleans()))),
    ]))
    with pytest.raises(ValueError):
        Universe(*bad)


# -- writes: t0 and grades through every writer ---------------------------------


def write_everywhere(col, row, t0, params=DEFAULT_PARAMS):
    """One pulse through a crossbar and both relation modes."""
    Crossbar(len(row), len(col), params).write_pulse(col, row, t0)
    for mode in ("hardware", "additive"):
        rel = Relation(Universe(0.0, 1.0, len(col)), Universe(0.0, 1.0, len(row)), mode=mode,
                       params=params)
        rel.accumulate(col, row, t0)


@examples
@given(col=grades(4), row=grades(3), t0=POSITIVE, v_th=st.sampled_from([0.0, 1.0]))
def test_writers_accept_every_in_range_pulse(col, row, t0, v_th):
    write_everywhere(col, row, t0, replace(DEFAULT_PARAMS, v_th=v_th))


@examples
@given(col=grades(4), row=grades(3), t0=NOT_POSITIVE)
def test_writers_reject_every_out_of_range_t0(col, row, t0):
    with pytest.raises(ValueError, match="t0"):
        Crossbar(3, 4, DEFAULT_PARAMS).write_pulse(col, row, t0)
    for mode in ("hardware", "additive"):
        with pytest.raises(ValueError, match="t0"):
            Relation(U4, U3, mode=mode).accumulate(col, row, t0)


def reject_in_every_writer(col, row, t0):
    with pytest.raises(ValueError):
        Crossbar(3, 4, DEFAULT_PARAMS).write_pulse(col, row, t0)
    for mode in ("hardware", "additive"):
        with pytest.raises(ValueError):
            Relation(U4, U3, mode=mode).accumulate(col, row, t0)


@examples
@given(data=st.data(), t0=st.floats(1e-9, 1e-3))
def test_writers_reject_every_out_of_range_grade(data, t0):
    """Negative, NaN, infinite and above-1 grades, on either line, fail in
    every writer: a crossbar and a relation in both modes take grades in
    [0, 1]."""
    above = st.one_of(st.just(INF), st.floats(1.0, exclude_min=True))
    for bad_values in (NEGATIVE, above):
        on_col = data.draw(st.booleans())
        bad = data.draw(with_one_bad(4 if on_col else 3, bad_values))
        col, row = (bad, data.draw(grades(3))) if on_col else (data.draw(grades(4)), bad)
        reject_in_every_writer(col, row, t0)


# -- stored relations -------------------------------------------------------------


# A hardware relation holds r_off - M, so its mu lies in [0, r_off - r_on];
# an additive one sums increments and holds any finite mu >= 0.
TOP = DEFAULT_PARAMS.r_off - DEFAULT_PARAMS.r_on
IN_RANGE_MU = {"hardware": st.floats(0.0, TOP), "additive": NON_NEGATIVE}
OUT_OF_RANGE_MU = {"hardware": st.one_of(NEGATIVE, st.floats(TOP, exclude_min=True)),
                   "additive": NEGATIVE}


def per_mode(draw_mu):
    """(mode, 12 values) with the values drawn by ``draw_mu(mode)``."""
    return st.sampled_from(["hardware", "additive"]).flatmap(
        lambda mode: st.tuples(st.just(mode), draw_mu(mode)))


@examples
@given(case=per_mode(lambda mode: grades(12, IN_RANGE_MU[mode])))
@example(case=("hardware", np.full(12, TOP)))
def test_relation_accepts_every_in_range_mu(case):
    mode, mu = case
    rel = Relation(U3, U4, mode=mode, mu=mu.reshape(4, 3))
    assert np.array_equal(rel.mu, mu.reshape(4, 3))


@examples
@given(case=per_mode(lambda mode: with_one_bad(12, OUT_OF_RANGE_MU[mode], IN_RANGE_MU[mode])))
@example(case=("hardware", np.full(12, 2e5)))
@example(case=("hardware", np.full(12, np.nextafter(TOP, INF))))
def test_relation_rejects_every_out_of_range_mu(case):
    """From its constructor and from model JSON alike."""
    mode, mu = case
    with pytest.raises(ValueError, match="mu"):
        Relation(U3, U4, mode=mode, mu=mu.reshape(4, 3))
    obj = block_to_json(Block(Relation(U3, U4, mode=mode), [("x", U3)], U4))
    obj["mu"] = mu.reshape(4, 3).tolist()
    with pytest.raises(ValueError, match="mu"):
        model_from_json(obj)


# -- reads ----------------------------------------------------------------------------

READ_VALUE = st.floats(allow_nan=False, allow_infinity=False)
# A read of 4 columns takes |x| up to this bound, which keeps the sums of
# both modes finite: r_off / M <= r_off / r_on and r_off - M < r_off.
READ_BOUND = np.finfo(float).max / (2 * 4 * (DEFAULT_PARAMS.r_off / DEFAULT_PARAMS.r_on
                                                + DEFAULT_PARAMS.r_off))
BEYOND_BOUND = st.floats(min_value=READ_BOUND, exclude_min=True, allow_infinity=False)
READ_DELTAS = [np.arange(12.0).reshape(3, 4),  # small stored values
               np.full((3, 4), DEFAULT_PARAMS.r_off - DEFAULT_PARAMS.r_on)]  # every cell at r_on


@examples
@given(x=grades(4, READ_VALUE), mode=st.sampled_from(["exact", "ideal"]))
def test_reads_accept_every_finite_input(x, mode):
    """Over the whole float range: inputs within the bound read finite, and
    the rest raise ``ValueError``."""
    for delta in READ_DELTAS:
        read = getattr(Crossbar.from_delta(delta, DEFAULT_PARAMS), f"read_{mode}")
        if np.abs(x).max() <= READ_BOUND:
            assert np.isfinite(read(x)).all()
        else:
            with pytest.raises(ValueError, match="finite"):
                read(x)


@examples
@given(x=with_one_bad(4, st.one_of(NON_FINITE, BEYOND_BOUND, BEYOND_BOUND.map(lambda v: -v)),
                      READ_VALUE),
       mode=st.sampled_from(["exact", "ideal"]))
def test_reads_reject_every_non_finite_input(x, mode):
    """One input non-finite or beyond the bound, the others anywhere."""
    xb = Crossbar.from_delta(np.arange(12.0).reshape(3, 4), DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="finite"):
        getattr(xb, f"read_{mode}")(x)


def relation_bound(mu: np.ndarray) -> float:
    """Largest |x| a relation with this ``mu`` infers from: every sum in
    ``mu @ x`` stays below half the float range."""
    return np.finfo(float).max / (2 * mu.shape[1]) / max(1.0, mu.max())


@examples
@given(case=per_mode(lambda mode: grades(12, IN_RANGE_MU[mode])), x=grades(3, READ_VALUE))
def test_relation_reads_every_input_within_its_bound(case, x):
    """Over each mode's whole range of ``mu`` (an additive relation's is the
    float range) and inputs anywhere: inputs within the bound read finite,
    and the rest raise ``ValueError``, not an overflow."""
    mode, mu = case
    rel = Relation(U3, U4, mode=mode, mu=mu.reshape(4, 3))
    if np.abs(x).max() <= relation_bound(rel.mu):
        assert np.isfinite(rel.infer(x)).all()
    else:
        with pytest.raises(ValueError, match="within"):
            rel.infer(x)


@pytest.mark.parametrize("mode", ["additive", "hardware"])
def test_relation_bound_follows_its_writes(mode):
    """The bound is measured again after a write: a pulse that raises the
    largest stored value to the clamp shrinks it, and an input the fresh
    relation took is then refused."""
    rel = Relation(U3, U3, mode=mode)
    x = np.array([1e303, 0.0, 0.0])
    assert rel.infer(x).max() == 0.0
    rel.accumulate(np.ones(3), np.ones(3), 1.0)  # clamps every cell at r_on
    assert relation_bound(rel.mu) < 1e303 < relation_bound(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="within"):
        rel.infer(x)


# -- fuzzification width ----------------------------------------------------------------


@examples
@given(sigma=POSITIVE, x0=st.floats(allow_nan=False, allow_infinity=False))
def test_fuzzify_accepts_every_in_range_sigma(sigma, x0):
    """And every finite crisp value: inside the universe silently, outside it
    with one warning and no other (no overflow, however far out)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn = fuzzify_gaussian(x0, sigma, U4)
    assert [type(w.message) for w in caught] == ([] if 0.0 <= x0 <= 1.0 else [UserWarning])
    assert fn.grades.max() <= 1.0 and fn.grades.min() >= 0.0


@examples
@given(sigma=NOT_POSITIVE, x0=st.floats(0.0, 1.0))
def test_fuzzify_rejects_every_out_of_range_sigma(sigma, x0):
    with pytest.raises(ValueError, match="sigma"):
        fuzzify_gaussian(x0, sigma, U4)


# Widths on each side of the one-hot switch at a tenth of U4's resolution.
ONE_HOT_SIGMA = st.floats(0.0, U4.resolution / 10, exclude_min=True, exclude_max=True)
BELL_SIGMA = st.floats(U4.resolution / 10, allow_infinity=False)


@examples
@given(x0=NON_FINITE, sigma=st.one_of(ONE_HOT_SIGMA, BELL_SIGMA))
def test_fuzzify_rejects_every_non_finite_x0(x0, sigma):
    """On both branches: not a one-hot at index 0, not all-zero grades."""
    with pytest.raises(ValueError, match="x0"):
        fuzzify_gaussian(x0, sigma, U4)


# -- dataset and evaluation specs ---------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Domain ends anywhere in the float range, as far apart as it allows.
DOMAIN = (st.lists(FINITE, min_size=2, max_size=2, unique=True).map(sorted)
          .filter(lambda ends: math.isfinite(ends[1] - ends[0])).map(tuple))
BAD_DOMAIN = st.one_of(
    st.tuples(NON_FINITE, FINITE),
    st.tuples(FINITE, NON_FINITE),
    st.tuples(FINITE, FINITE).filter(
        lambda ends: not (ends[0] < ends[1] and math.isfinite(ends[1] - ends[0]))),
)
# Floats are refused even where whole: JSON's 2.0 is no count, as for a universe.
NOT_INTEGER = st.one_of(st.floats(), st.none(), st.text(max_size=3))


def specs(domain=(0.0, 1.0), n=5, seed=1, shape=3) -> dict:
    """A dataset, a random and a lattice evaluation spec over one variable, unbuilt."""
    domains = {"x": domain}
    return {
        "dataset": lambda: DatasetSpec("f1", domains, n, {"x": 0.05}, 0.05, seed),
        "random": lambda: EvalSpec("random", domains, n=n, seed=seed),
        "lattice": lambda: EvalSpec("lattice", domains, shape=(shape,)),
    }


@examples
@given(domain=DOMAIN, n=st.integers(1, 10**9), seed=st.integers(0, 2**64),
       shape=st.integers(2, 10**9))
def test_specs_accept_every_in_range_draw(domain, n, seed, shape):
    """And a random probe set over any such domain lies inside it."""
    for build in specs(domain, n, seed, shape).values():
        build()
    points = eval_points(EvalSpec("random", {"x": domain}, n=3, seed=seed))["x"]
    assert ((domain[0] <= points) & (points <= domain[1])).all()


# Per spec field: its out-of-range draws and the specs that read it.
BAD_FIELDS = {
    "n": (st.one_of(NOT_INTEGER, st.integers(max_value=0)), ("dataset", "random")),
    "seed": (NOT_INTEGER, ("dataset", "random")),
    "shape": (st.one_of(NOT_INTEGER, st.integers(max_value=1)), ("lattice",)),
    "domain": (BAD_DOMAIN, ("dataset", "random", "lattice")),
}


@examples
@given(data=st.data(), field=st.sampled_from(sorted(BAD_FIELDS)))
def test_specs_reject_every_out_of_range_draw(data, field):
    bad, readers = BAD_FIELDS[field]
    built = specs(**{field: data.draw(bad)})
    for reader in readers:
        with pytest.raises(ValueError):
            built[reader]()


# -- experiment configs -----------------------------------------------------------

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=4,
)


def json_paths(obj, path=()):
    """Every place in a JSON object a value can be put, the object itself excluded."""
    for key, value in obj.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from json_paths(value, (*path, key))


REMOVED = "<removed>"  # in place of a value: the key is deleted
# A named experiment, a place in its config and what goes there.
CONFIG_CHANGES = st.sampled_from(["exp-2input-faulty", "exp-compose"]).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.sampled_from(sorted(json_paths(default_config(name).to_json()))),
                           st.one_of(st.just(REMOVED), JSON)))


@examples
@example(change=("exp-compose", ("eval_target",), 5))
@example(change=("exp-compose", ("eval_target",), ["f1"]))
@example(change=("exp-compose", ("eval_target",), "x +"))
@example(change=("exp-compose", ("eval_target",), "q"))
@example(change=("exp-2input-faulty", ("dataset", "target"), "x +"))
@example(change=("exp-compose", ("pipeline_targets",), "f2"))
@example(change=("exp-compose", ("pipeline_targets",), ["f2", 7]))
@given(change=CONFIG_CHANGES)
def test_configs_fail_only_as_value_errors(change):
    """A config with any one value replaced by any JSON value, or removed,
    is built as the CLI builds it, or fails as ``ValueError``, which the CLI
    reports as ``error: …`` with exit status 2."""
    name, (*parents, key), value = change
    blob = default_config(name).to_json()
    node = blob
    for parent in parents:
        node = node[parent]
    if value == REMOVED:
        del node[key]
    else:
        node[key] = value
    try:
        ExperimentConfig.from_json(blob)
    except ValueError:
        pass


# -- JSON layout: keys, arities and JSON types, with the path named -----------------

# A config's or model's JSON with one edit, the loader that reads it back, and
# where the error must point. The arrays of a model are values, not places:
# ``memristance``, ``mu`` and ``fault_cells`` are edited whole.
ARRAYS = {"memristance", "mu", "fault_cells"}
# Objects keyed by variable name: their keys are data, not layout.
VARIABLES = {"domains", "input_sigmas", "input_universes"}
EXTRAS = {"r_c", "resolved_t0"}  # read past where they stand, so never drawn as a new key


def small_models() -> dict:
    """A crossbar, a relation and a pipeline model, as JSON read back from text."""
    from crossfuzzy.system import Pipeline

    params = replace(DEFAULT_PARAMS, v_th=0.5)
    xbar = Block.pristine([("x", U3), ("y", U4)], U3, params)
    xbar.backend.write_pulse(np.linspace(0.0, 1.0, 7), np.ones(3), 1e-6)
    xbar.backend.inject_faults(0.3, 1)
    rel = Block(Relation(U3, U4, mode="additive", mu=np.full((4, 3), 2.0)), [("x", U3)], U4)
    pipe = Pipeline([Block.pristine([("x", U3)], U4, DEFAULT_PARAMS),
                     Block(Relation(U4, U3), [("z", U4)], U3, read_mode="ideal")])
    return {name: json.loads(json.dumps(model_to_json(model)))
            for name, model in (("crossbar", Pipeline([xbar])), ("relation", Pipeline([rel])),
                                ("pipeline", pipe))}


SOURCES = {**{name: default_config(name).to_json() for name in EXPERIMENT_NAMES},
           **small_models()}


def load(source: str):
    return ExperimentConfig.from_json if source in EXPERIMENT_NAMES else model_from_json


def places(obj, path=()):
    """(path, value) of every place in a JSON document, inside a model's arrays excepted."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield (*path, key), value
        if isinstance(value, (dict, list)) and key not in ARRAYS:
            yield from places(value, (*path, key))


def path_text(path) -> str:
    """A path as the loaders write it: ``blocks[1].device.v_th``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def edit_sites(source: str) -> list:
    """Every edit of the property below that ``source`` offers: (source, kind, path)."""
    blob, sites = SOURCES[source], [(source, "add", ())]
    for path, value in places(blob):
        if isinstance(path[-1], str):
            sites.append((source, "rename", path))
        if isinstance(value, dict):
            sites.append((source, "add", path))
        if len(path) > 1 and path[-2] == "domains":
            sites.append((source, "arity", path))
        if type(value) in (int, float) and path != ("resolved_t0",):
            sites.append((source, "bool", path))
    return sites


SITES = [site for source in ("exp-2input-faulty", "exp-compose", "crossbar", "relation",
                             "pipeline") for site in edit_sites(source)]
JSON_KEY = st.text(min_size=1, max_size=4)


def node_at(blob, path):
    for key in path:
        blob = blob[key]
    return blob


def edited(source: str, kind: str, path: tuple, detail):
    """A copy of ``source``'s JSON with the edit made, and the paths the error may name.

    ``add`` puts ``detail``, a key and a value, into the object at ``path``;
    ``rename`` gives the key at ``path`` the name ``detail``; any other kind
    puts ``detail`` at ``path``.
    """
    blob = json.loads(json.dumps(SOURCES[source]))
    if kind in ("add", "rename"):
        parent, key = (path, detail[0]) if kind == "add" else (path[:-1], detail)
        node = node_at(blob, parent)
        node[key] = detail[1] if kind == "add" else node.pop(path[-1])
        return blob, [(*parent, key), *([path] if kind == "rename" else [])]
    node_at(blob, path[:-1])[path[-1]] = detail
    return blob, [path]


def refused_with_its_path(source, kind, path, detail):
    blob, named = edited(source, kind, path, detail)
    with pytest.raises(ValueError) as refused:
        load(source)(blob)
    parent = path if kind == "add" else path[:-1]
    if kind in ("add", "rename") and parent[-1:] and parent[-1] in VARIABLES:
        return  # a new variable name fails as variables that disagree, without a path
    assert any(path_text(p) in str(refused.value) for p in named), (named, refused.value)


@st.composite
def json_edits(draw):
    """A site and the detail of its edit: a new key (and value), a list of another
    length than 2, or a bool."""
    source, kind, path = draw(st.sampled_from(SITES))
    parent = node_at(SOURCES[source], path if kind == "add" else path[:-1])
    fresh = JSON_KEY.filter(lambda k: k not in parent and k not in EXTRAS)
    detail = {"add": st.tuples(fresh, JSON),
              "rename": fresh,
              "arity": st.lists(FINITE, max_size=4).filter(lambda v: len(v) != 2),
              "bool": st.booleans()}[kind]
    return source, kind, path, draw(detail)


@examples
@example(case=("exp-f1", "add", ("device",), ("vth", 1.0)))
@example(case=("exp-f1", "add", (), ("fault_fracton", 0.5)))
@example(case=("exp-f1", "add", ("dataset",), ("sedd", 3)))
@example(case=("exp-f1", "arity", ("eval", "domains", "x"), [0, 1, 7]))
@example(case=("exp-f1", "bool", ("device", "v_th"), True))
@example(case=("exp-f1", "set", ("name",), 7))
@example(case=("exp-f1", "set", ("output_dir",), 5))
@example(case=("exp-f1", "add", (), ("fault_fraction", 0.5)))  # a field, but under "fault"
@given(case=json_edits())
def test_json_refuses_a_bad_key_arity_or_bool_and_names_its_path(case):
    """In the configs of exp-2input-faulty and exp-compose and in a crossbar, a
    relation and a pipeline model: a misspelt or added key, a domain that is
    not two values and true or false where a number goes fail as
    ``ValueError`` whose message names the path. A misspelt or added variable
    name is data: it fails as variables that disagree."""
    refused_with_its_path(*case)


def test_every_json_path_refuses_each_edit():
    """Each site of the property above, once, with a fixed edit."""
    details = {"add": ("zz", 0), "rename": "zz", "arity": [0.0, 1.0, 2.0], "bool": False}
    for source, kind, path in SITES:
        refused_with_its_path(source, kind, path, details[kind])


@pytest.mark.parametrize("source, path, value", [
    ("crossbar", ("memristance",), [[1e5] * 7, [1e5] * 6, [1e5] * 7]),
    ("relation", ("mu",), [[2.0] * 3, [2.0] * 3, [2.0] * 2, [2.0] * 3]),
    ("pipeline", ("blocks", 1, "mu"), [[0.0] * 4, [0.0] * 4, [0.0] * 3]),
    ("crossbar", ("memristance",), "abc"),
    ("relation", ("mu",), "abc"),
    ("crossbar", ("memristance",), [[10**400] * 7] * 3),
    ("pipeline", ("blocks",), 5),
    ("pipeline", ("blocks", 0), [1]),
], ids=["ragged-memristance", "ragged-mu", "ragged-stage-mu", "text-memristance", "text-mu",
        "int-past-float", "blocks-int", "block-list"])
def test_json_refuses_a_malformed_array_or_block_list(source, path, value):
    """A ragged or non-numeric ``memristance`` or ``mu``, and a ``blocks`` that is
    not a list of objects, fail as ``ValueError`` whose message names the path."""
    refused_with_its_path(source, "set", path, value)


@pytest.mark.parametrize("path, value, refusal", [
    (("blocks", 0, "memristance"), [[1e9] * 3] * 4, "blocks[0]: memristance outside [r_on, r_off]"),
    (("blocks", 1, "mu"), [[-1.0] * 4] * 3, "blocks[1]: hardware relation needs every mu"),
    (("blocks", 1, "read_mode"), "fast", "blocks[1]: read mode must be one of"),
    (("blocks", 0, "inputs", 0, "universe", "count"), 1,
     "blocks[0].inputs[0].universe: universe needs an integer count"),
    (("blocks", 1, "kind"), "pipeline", "blocks[1].kind must be 'block', got 'pipeline'"),
    (("blocks", 0, "kind"), "banana", "blocks[0].kind must be 'block', got 'banana'"),
], ids=["stage-memristance", "stage-mu", "stage-read-mode", "stage-universe", "stage-pipeline",
        "stage-banana"])
def test_a_stage_refusal_names_its_stage_once(path, value, refusal):
    """A value a pipeline stage's backend, block or universe refuses, and a stage
    whose ``kind`` is not ``"block"``, fail as ``ValueError`` whose message
    starts with the stage's path, named once."""
    blob, _ = edited("pipeline", "set", path, value)
    with pytest.raises(ValueError) as refused:
        model_from_json(blob)
    assert str(refused.value).startswith(refusal), refused.value


@pytest.mark.parametrize("source, path", [
    ("exp-compose", ("device", "mu_v")), ("exp-compose", ("dataset", "n")),
    ("exp-compose", ("eval", "domains", "x", 0)), ("exp-compose", ("fault", "seed")),
    ("exp-compose", ("name",)), ("crossbar", ("inputs", 0, "universe", "count")),
])
def test_json_refuses_null_where_the_type_admits_no_none(source, path):
    """``null`` loads only into a field that may be ``None``, such as ``t0`` or
    an evaluation ``seed``; anywhere else it is refused with its path."""
    refused_with_its_path(source, "set", path, None)


def test_json_extras_written_or_once_written_are_read_past():
    """``resolved_t0`` (any value) and a legacy ``r_c`` load at a config's top
    and a block model's; in a pipeline, ``r_c`` loads on each block."""
    cfg = dict(SOURCES["exp-compose"], resolved_t0=True, r_c=None)
    assert ExperimentConfig.from_json(cfg) == default_config("exp-compose")
    for name in ("crossbar", "relation"):
        model_from_json(dict(SOURCES[name], r_c=None))
    pipe = SOURCES["pipeline"]
    model_from_json(dict(pipe, blocks=[dict(b, r_c=None) for b in pipe["blocks"]]))
