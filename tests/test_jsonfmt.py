from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from typing import NamedTuple

import pytest

from parem.jsonfmt import to_json


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
    text = json.dumps(to_json({5: 0.5, 120: 2.0}), indent=2, sort_keys=True)
    assert text.index('"120"') < text.index('"5"')


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"])
def test_to_json_refuses_what_it_cannot_write(value):
    with pytest.raises(TypeError):
        to_json({"a": [value]})
