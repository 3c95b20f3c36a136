from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parem.jsonfmt import dumps_indented, to_json


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# text that looks like the separators and brackets the writer cuts and joins
TRICKY_TEXT = ["}", "{", "\n", "},\n    {", "}\n  ]", '"', "\\", "\x00\x1f\x7f", " ", "é"]
texts = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.characters(blacklist_categories=()), max_size=8),  # lone surrogates
    st.sampled_from(TRICKY_TEXT),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([1, 0, True, False, 2**64, -(2**100), 10**30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324]),
    texts,
)
flat_records = st.lists(st.dictionaries(texts, scalars, max_size=4), min_size=1, max_size=5)
trees = st.recursive(
    st.one_of(scalars, flat_records),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        # records: dicts that share their keys, with nested values
        st.lists(st.fixed_dictionaries({"b": children, "a": children}), min_size=1, max_size=4),
    ),
    max_leaves=25,
)


@given(trees)
@settings(max_examples=400)
@example({})
@example([[], {}, ()])
@example({"a": {"b": {"c": [{}, []]}}})
@example([{"a": 1}, {"b": "}"}, {"a": 1, "c": None}])
@example([{"a": 1}, 2, [3], {"b": {}}, ()])
@example([{"a": {}}, {"a": 1}])
@example((1, (2, {"x": (3,)})))
@example({"k": [True, 1, 1.0, -0.0]})
@example([{"a": [1], "b": {"x": "}"}}, {"a": [], "b": {}}, {"a": (2, 3), "b": {"y": None}}])
@example([{"a": [[1]], "b": 1}, {"a": [[]], "b": 2}])
@example([[1, 2], (), [3]])
@example([{"b": [1], "a": 2}, {"b": [], "a": 3}])
@example([{"a": [1]}, {"b": [2]}])
def test_writer_matches_json_dumps(value):
    assert dumps_indented(value) == reference(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: [1], 2: {}, 10: "x"},
        {1.5: [2], -0.0: {"a": [1]}},
        {True: [1], False: {"x": 1}},
        {None: [{}]},
        {"rows": {3: 1, 1: 2}},
        [{1: [1]}, {1: [2]}],
    ],
)
def test_writer_converts_keys_like_json_dumps(value):
    assert dumps_indented(value) == reference(value)


@pytest.mark.parametrize("value", [{"a": [object()]}, [{(1, 2): [1]}], {"a": {1, 2}}])
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        dumps_indented(value)


class Pair(NamedTuple):
    left: int
    right: tuple[str, ...]


@dataclass(frozen=True)
class Record:
    day: date
    pairs: list[Pair]
    by_cap: dict[int, float] = field(default_factory=dict)

    DERIVED_KEYS = ("size",)

    @property
    def size(self) -> int:
        return len(self.pairs)

    @cached_property
    def cached(self) -> str:
        return "kept out of the output"


def test_to_json_writes_fields_then_derived_keys():
    record = Record(date(2024, 2, 29), [Pair(1, ("a", "b"))], {5: 0.5, 120: 2.0})
    assert record.cached
    assert to_json(record) == {
        "day": "2024-02-29",
        "pairs": [{"left": 1, "right": ["a", "b"]}],
        "by_cap": {"5": 0.5, "120": 2.0},
        "size": 1,
    }
    assert list(to_json(record)) == ["day", "pairs", "by_cap", "size"]


def test_to_json_keys_sort_as_text():
    # json.dumps(sort_keys=True) would put 5 before 120 if the keys stayed int
    text = dumps_indented(to_json({5: 0.5, 120: 2.0}))
    assert text.index('"120"') < text.index('"5"')


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
def test_to_json_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        to_json({"a": [value]})
