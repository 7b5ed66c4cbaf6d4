"""The JSON layout of the package's frozen dataclasses: one strict codec.

``to_json(obj)`` writes a dataclass's fields in declaration order, each under
its name or under the key its ``metadata["json"]`` gives (``MemristorParams.d``
is ``"D"``). Nested dataclasses and mappings become JSON objects, tuples and
lists become lists.

``from_json(tp, obj)`` reads JSON back as the annotated type ``tp`` and
refuses every value that type does not describe:

- a dataclass is an object whose keys all name fields; a missing key takes
  the field's default (so a file written before a field existed still
  loads, and a missing ``v_th`` means 0), and a field without a default
  (none has a ``default_factory``) must be there;
- a ``float`` is any JSON number, an ``int`` a JSON integer and a ``str`` a
  string; ``true`` and ``false`` are neither numbers nor strings;
- ``tuple[X, X]`` is a list of exactly two values and ``tuple[X, ...]`` a
  list of any length (a tuple's items share one type); ``Mapping[str, X]`` is
  an object with values of type X;
- ``null`` is read only where the type admits ``None``.

Each refusal is one ``ValueError`` whose message starts with the JSON path
of the bad value: ``device.vth: unknown key``, ``dataset: missing key
'seed'``, ``eval.domains.x must be a list of 2 values, got [0, 1, 7]
(malformed JSON)``. The codec checks layout and JSON types only; the values
are checked by the classes it builds, when they are built. Field types are
resolved once per class. The module uses the standard library only.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping
from functools import cache

__all__ = ["to_json", "from_json", "check_keys", "all_numbers"]


def to_json(obj) -> dict:
    """A dataclass's fields as a JSON object, in declaration order."""
    return {key: _plain(getattr(obj, name)) for key, name, _, _ in _layout(type(obj))[0]}


def _plain(value):
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    return to_json(value) if dataclasses.is_dataclass(value) else value


def from_json(tp, obj, path: str = "", **given):
    """Read ``obj`` as the annotated type ``tp``; ``path`` locates ``obj`` in the file.

    For a dataclass, ``given`` holds fields the caller has read itself, under
    their names; they are not keys of ``obj``. Raises ``ValueError``.
    """
    return _read_fields(tp, obj, path, given) if given else _reader(tp)(obj, path)


def check_keys(obj: dict, keys, path: str = "") -> None:
    """Refuse the first key of the JSON object ``obj`` at ``path`` that is not in ``keys``."""
    for key in obj:
        if key not in keys:
            raise ValueError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


def all_numbers(values) -> bool:
    """Whether every item of ``values`` is a JSON number: not true, false, a string or null.

    For the number arrays that classes read themselves with numpy, which
    would read ``true`` as 1.0 and ``"0.5"`` as 0.5: a fuzzy number's grades
    and the rows of a model's ``memristance`` and ``mu``.
    """
    return set(map(type, values)) <= {int, float}


def _checked(value, types_: tuple, expected: str, path: str, length: int | None = None):
    """``value`` if its type is one of ``types_`` (and it has ``length`` items, if given);
    else the refusal names ``expected``."""
    if type(value) not in types_ or (length is not None and len(value) != length):
        raise ValueError(f"{path or 'the JSON'} must be {expected}, got {value!r} (malformed JSON)")
    return value


@cache
def _layout(cls) -> tuple:
    """Per field of ``cls`` its JSON key, name, type and whether it is required; and the keys."""
    hints = typing.get_type_hints(cls)
    fields = tuple((f.metadata.get("json", f.name), f.name, hints[f.name],
                    f.default is dataclasses.MISSING) for f in dataclasses.fields(cls))
    return fields, frozenset(key for key, *_ in fields)


def _read_fields(cls, obj, path: str, given: dict):
    fields, keys = _layout(cls)
    check_keys(_checked(obj, (dict,), "a JSON object", path), keys.difference(given), path)
    for key, name, tp, required in fields:
        if key in obj:
            given[name] = _reader(tp)(obj[key], f"{path}.{key}" if path else key)
        elif required and name not in given:
            raise ValueError(f"{path}: missing key {key!r}" if path else f"missing key {key!r}")
    return cls(**given)


_SCALARS = {float: "a number", int: "an integer", str: "a string"}


@cache
def _reader(tp):
    """A function ``(value, path)`` that reads JSON as the annotated type ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None, the only union a layout holds
        read = _reader(next(arg for arg in args if arg is not type(None)))
        return lambda value, path: None if value is None else read(value, path)
    if dataclasses.is_dataclass(tp):
        return lambda value, path: _read_fields(tp, value, path, {})
    if origin is Mapping:
        read = _reader(args[1])
        return lambda value, path: {k: read(v, f"{path}.{k}") for k, v in
                                    _checked(value, (dict,), "a JSON object", path).items()}
    if origin is tuple:  # of one type: tuple[X, ...] any length, tuple[X, X] two values
        read, arity = _reader(args[0]), None if args[-1] is Ellipsis else len(args)
        expected = "a list" if arity is None else f"a list of {arity} values"
        return lambda value, path: tuple(read(v, f"{path}[{i}]") for i, v in
                                         enumerate(_checked(value, (list,), expected, path, arity)))
    types_ = (int, float) if tp is float else (tp,)  # a bool is neither: type(True) is bool
    return lambda value, path: _checked(value, types_, _SCALARS[tp], path)
