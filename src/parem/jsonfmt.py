"""Plain JSON data to and from parem's records.

``to_json(obj)`` turns a record (a dataclass or a named tuple) into plain
JSON data, reading its fields the way ``dataclasses.fields`` and ``_fields``
name them; every output of parem that holds a record goes through it.
``from_json(kind, data)`` is the other direction: every config file is read
through it, and each value is checked against its field's annotation.
The text itself is left to the standard library's ``json`` module.
The module imports nothing from parem, so any module can call it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from datetime import date
from itertools import chain, islice
from operator import attrgetter
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

_PLAIN = frozenset({str, int, float, bool, type(None)})
# record class -> (its keys, one getter per key)
_RECORDS: dict[type, tuple[tuple[str, ...], tuple[attrgetter, ...]]] = {}


def _record_plan(kind: type) -> tuple[tuple[str, ...], tuple[attrgetter, ...]]:
    """The keys a record class writes: its fields, in declaration order, then
    the names in its ``DERIVED_KEYS`` (properties computed from the fields).

    Fields are read by name, never through ``vars()``, so a cached property
    stored in the instance dict is not written."""
    plan = _RECORDS.get(kind)
    if plan is None:
        if dataclasses.is_dataclass(kind):
            names = tuple(f.name for f in dataclasses.fields(kind))
        elif issubclass(kind, tuple) and hasattr(kind, "_fields"):
            names = tuple(kind._fields)
        else:
            raise TypeError(f"cannot write {kind.__name__} as JSON")
        names += tuple(getattr(kind, "DERIVED_KEYS", ()))
        _RECORDS[kind] = plan = (names, tuple(map(attrgetter, names)))
    return plan


def to_json(obj: object):
    """``obj`` as plain JSON data.

    A record becomes a dict of its keys (see ``_record_plan``), a ``date``
    its ISO text, a tuple or list a list, and a mapping a dict with ``str``
    keys, so that a sorted dump orders integer keys as text; values are
    converted the same way, all the way down. JSON scalars stay as they are.
    """
    return _converted([obj])[0]


def from_json(kind: type, data: object):
    """The ``kind`` that plain JSON ``data`` describes: the inverse of ``to_json``.

    Nothing is coerced: a dataclass is read from an object with no unknown key
    and every required one, ``X | None`` from null or an ``X``, a tuple from a
    list (of its length, unless ``tuple[X, ...]``), ``Mapping[str, X]`` from an
    object, ``date`` from ISO text, ``bool``, ``int`` and ``str`` from exactly
    that JSON type, and ``float`` from any number but a bool. Anything else
    raises ``ValueError`` naming its path, such as ``RunConfig.caps[0]``.
    """
    return _read(kind, data, kind.__name__)


_EXPECTED = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _read(kind, value, path: str):
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType and args[1:] == (NoneType,):
        return None if value is None else _read(args[0], value, path)
    if dataclasses.is_dataclass(kind):
        return _read_record(kind, _expect(value, dict, "an object", path), path)
    if origin is tuple:
        items = _expect(value, list, "a list", path)
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ValueError(f"{path} must be a list of {len(args)} items, got {value!r}")
        paths = (f"{path}[{i}]" for i in range(len(items)))
        return tuple(map(_read, args, items, paths))
    if origin is Mapping and args[0] is str:
        items = _expect(value, dict, "an object", path)
        return {key: _read(args[1], item, f"{path}[{key!r}]") for key, item in items.items()}
    if kind is date:
        try:
            return date.fromisoformat(value)
        except (TypeError, ValueError):
            raise ValueError(f"{path} must be an ISO date, got {value!r}") from None
    if kind is float and type(value) is int:
        return float(value)
    if kind in _EXPECTED:
        return _expect(value, kind, _EXPECTED[kind], path)
    raise TypeError(f"{path}: cannot read {kind!r} from JSON")


def _expect(value, kind: type, expected: str, path: str):
    # the exact type: a bool is not read as an int, nor an int as a bool
    if type(value) is not kind:
        raise ValueError(f"{path} must be {expected}, got {value!r}")
    return value


def _read_record(kind: type, data: dict, path: str):
    fields = dataclasses.fields(kind)
    unknown = sorted(map(str, data.keys() - {f.name for f in fields}))
    if unknown:
        raise ValueError(f"{path}: unknown {kind.__name__} key(s): {', '.join(unknown)}")
    hints = get_type_hints(kind)
    values = {name: _read(hints[name], value, f"{path}.{name}") for name, value in data.items()}
    try:
        return kind(**values)
    except (TypeError, ValueError) as exc:  # a missing key, or a check of the record's own
        raise ValueError(f"{path}: {exc}") from None


def _converted(values: list) -> list:
    """``to_json`` of each of ``values``. Values of one type are converted
    together: records a field at a time, and the items of lists or mappings
    as one flat list, so each dict is built once and no function is called
    per scalar."""
    kinds = set(map(type, values))
    if kinds <= _PLAIN:
        return values
    if len(kinds) > 1:
        return [_converted([value])[0] for value in values]
    kind = kinds.pop()
    if kind is list or kind is tuple:
        items = iter(_converted(list(chain.from_iterable(values))))
        return [list(islice(items, len(value))) for value in values]
    if issubclass(kind, Mapping):
        items = iter(_converted(list(chain.from_iterable(v.values() for v in values))))
        return [dict(zip(map(str, value), items)) for value in values]
    if issubclass(kind, date):
        return list(map(kind.isoformat, values))
    names, getters = _record_plan(kind)
    columns = [_converted(list(map(getter, values))) for getter in getters]
    return [dict(zip(names, row)) for row in zip(*columns)]
