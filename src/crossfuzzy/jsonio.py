"""The JSON layout of the package's frozen dataclasses: one strict codec.

``to_json(obj)`` writes a dataclass's fields in declaration order, each under
its name or under the key its ``metadata["json"]`` gives (``MemristorParams.d``
is ``"D"``). Nested dataclasses and mappings become JSON objects and tuples
lists; a list is written as it stands, as JSON already, and an array (a value
with ``tolist()``, such as a numpy array) with one ``tolist()``.

``from_json(tp, obj)`` reads JSON back as the annotated type ``tp`` and
refuses every value that type does not describe:

- a dataclass is an object whose keys all name fields; a missing key takes
  the field's default (so a file written before a field existed still
  loads, and a missing ``v_th`` means 0), and a field without a default
  (none has a ``default_factory``) must be there;
- a ``float`` is any JSON number, an ``int`` a JSON integer, a ``str`` a
  string and a ``dict`` any JSON object; ``true`` and ``false`` are neither
  numbers nor strings;
- ``tuple[X, X]`` is a list of exactly two values and ``tuple[X, ...]`` a
  list of any length (a tuple's items share one type); ``Mapping[str, X]`` is
  an object with values of type X;
- ``Array[n]`` is an n-D rectangular array of JSON numbers, each of which a
  float holds (an integer past the float range is refused): nested lists
  whose every level has one length. It is checked with one type scan per
  level, not one value at a time, and read as the nested lists it is; the
  class that holds it converts it once, to a numpy array;
- ``null`` is read only where the type admits ``None``.

Each refusal is one ``ValueError`` whose message starts with the JSON path
of the bad value: ``device.vth: unknown key``, ``dataset: missing key
'seed'``, ``eval.domains.x must be a list of 2 values, got [0, 1, 7]
(malformed JSON)``, ``memristance must be a 2-D array of numbers``. The
codec checks layout and JSON types only; the values are checked by the
classes it builds, when they are built, and a class's refusal is prefixed
with the path of the object it was built from (``input.x: grades shape
...``), unless that object is the whole document. Field types are resolved
once per class. The module uses the standard library only.
"""

from __future__ import annotations

import dataclasses
import itertools
import types
import typing
from collections.abc import Mapping
from functools import cache

__all__ = ["Array", "to_json", "from_json"]

# Integers of this magnitude or more round past the largest float.
_FLOAT_INT_LIMIT = 2**1024 - 2**970


class Array:
    """``Array[n]`` in a layout: an n-D rectangular array of JSON numbers.

    The object holds it as a numpy array; JSON holds it as nested lists.
    """

    def __class_getitem__(cls, ndim: int) -> type:
        return type(f"Array[{ndim}]", (cls,), {"ndim": ndim})


def to_json(obj) -> dict:
    """A dataclass's fields as a JSON object, in declaration order."""
    return {key: _plain(getattr(obj, name)) for key, name, _, _ in _layout(type(obj))[0]}


def _plain(value):
    if value is None or isinstance(value, (str, int, float, list)):
        return value
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple):
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


def _checked(value, types_: tuple, expected: str, path: str, length: int | None = None):
    """``value`` if its type is one of ``types_`` (and it has ``length`` items, if given);
    else the refusal names ``expected``."""
    if type(value) not in types_ or (length is not None and len(value) != length):
        raise ValueError(f"{path or 'the JSON'} must be {expected}, got {value!r} (malformed JSON)")
    return value


def _read_array(ndim: int, value, path: str):
    """``value`` if it is an ``Array[ndim]``: one type scan and one length scan per level."""
    level, ok = [value], True
    for _ in range(ndim):  # each level holds lists, all of one length
        ok = ok and set(map(type, level)) == {list} and len(set(map(len, level))) == 1
        level = list(itertools.chain.from_iterable(level)) if ok else []
    kinds = set(map(type, level))  # true and false are bools, not numbers
    if ok and kinds <= {int, float} and (int not in kinds or all(
            abs(v) < _FLOAT_INT_LIMIT for v in level if type(v) is int)):
        return value
    raise ValueError(f"{path or 'the JSON'} must be a {ndim}-D array of numbers (malformed JSON)")


@cache
def _layout(cls) -> tuple:
    """Per field of ``cls`` its JSON key, name, type and whether it is required; and the keys."""
    hints = typing.get_type_hints(cls)
    fields = tuple((f.metadata.get("json", f.name), f.name, hints[f.name],
                    f.default is dataclasses.MISSING) for f in dataclasses.fields(cls))
    return fields, frozenset(key for key, *_ in fields)


def _read_fields(cls, obj, path: str, given: dict):
    fields, keys = _layout(cls)
    for key in _checked(obj, (dict,), "a JSON object", path):
        if key not in keys or key in given:
            raise ValueError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")
    for key, name, tp, required in fields:
        if key in obj:
            given[name] = _reader(tp)(obj[key], f"{path}.{key}" if path else key)
        elif required and name not in given:
            raise ValueError(f"{path}: missing key {key!r}" if path else f"missing key {key!r}")
    try:
        return cls(**given)
    except ValueError as exc:  # the class refused a value: name where it sits
        raise ValueError(f"{path}: {exc}" if path else str(exc)) from None


_SCALARS = {float: "a number", int: "an integer", str: "a string", dict: "a JSON object"}
# The Python types of the JSON values each scalar reads; a bool is none of them.
_JSON_TYPES = {float: (int, float), int: (int,), str: (str,), dict: (dict,)}


@cache
def _reader(tp):
    """A function ``(value, path)`` that reads JSON as the annotated type ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # X | None, the only union a layout holds
        read = _reader(next(arg for arg in args if arg is not type(None)))
        return lambda value, path: None if value is None else read(value, path)
    if dataclasses.is_dataclass(tp):
        return lambda value, path: _read_fields(tp, value, path, {})
    if isinstance(tp, type) and issubclass(tp, Array):
        return lambda value, path: _read_array(tp.ndim, value, path)
    if origin is Mapping:
        read = _reader(args[1])
        return lambda value, path: {k: read(v, f"{path}.{k}") for k, v in
                                    _checked(value, (dict,), "a JSON object", path).items()}
    if origin is tuple:  # of one type: tuple[X, ...] any length, tuple[X, X] two values
        read, arity = _reader(args[0]), None if args[-1] is Ellipsis else len(args)
        expected = "a list" if arity is None else f"a list of {arity} values"
        plain = set(_JSON_TYPES.get(args[0], ()))  # scalar items: one type scan reads them all

        def read_tuple(value, path):
            if set(map(type, _checked(value, (list,), expected, path, arity))) <= plain:
                return tuple(value)
            return tuple(read(v, f"{path}[{i}]") for i, v in enumerate(value))
        return read_tuple
    return lambda value, path: _checked(value, _JSON_TYPES[tp], _SCALARS[tp], path)
