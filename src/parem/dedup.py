"""Stable event identity via a staged key cascade, and stream de-duplication.

Key tiers, in order: a verbatim explicit identifier when the record carries
one; otherwise a digest over the timestamp/role/type/content-prefix/tool
material; and for model-completed records that carry neither an identifier
nor message material, a digest over the trajectory fields (timestamp,
provider route, model, token counts).

``deduplicate`` groups records by their key fields and hashes nothing; the
SHA-256 is computed only for the ledger (``dedup_key``, ``ledger_rows``).
The hashed encoding is injective, so the groups are the same as by digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Literal

from .ingest import Event

KeyTier = Literal["explicit_id", "content_hash", "trajectory_hash"]

KEY_TIERS: tuple[KeyTier, ...] = ("explicit_id", "content_hash", "trajectory_hash")

# Absent fields encode as a byte that cannot occur in UTF-8 text, so absence
# never collides with any real value. A NUL inside a field is escaped with a
# sequence led by that byte, so the separator only ever separates fields.
_ABSENT = b"\xff"
_SEPARATOR = b"\x00"
_ESCAPED_SEPARATOR = b"\xff\x01"


@dataclass(frozen=True, slots=True)
class DedupKey:
    tier: KeyTier
    value: str


@dataclass(frozen=True)
class DedupStats:
    input_count: int
    retained_count: int
    removed_by_tier: dict[KeyTier, int] = field(default_factory=dict)


def _key_fields(event: Event) -> tuple:
    """The key tier followed by the fields its key is taken from.

    A model-completed record without message material (no content prefix, no
    tool name) is a trajectory record: its key holds the trajectory fields,
    including the timestamp, so same-instant completions with different
    token counts stay distinct.
    """
    if event.event_id is not None:
        return "explicit_id", event.event_id
    if event.role == "model_completed" and not event.content_prefix and event.tool_name is None:
        return (
            "trajectory_hash", event.timestamp_ms, event.provider_route, event.model, event.tokens
        )
    return (
        "content_hash",
        event.timestamp_ms,
        event.role,
        event.event_type,
        event.content_prefix or None,
        event.tool_name,
    )


def _material(event: Event) -> tuple[KeyTier, str | bytes]:
    """The key tier and the exact material its key is taken from.

    Hashed tiers join their fields' UTF-8 bytes with a NUL separator, with
    absence as a byte no text contains and a NUL inside a field escaped, so
    the material is injective: two events share it exactly when they share
    their key fields. Token counts encode as ``input,output,read,write``.
    """
    tier, *fields = _key_fields(event)
    if tier == "explicit_id":
        return tier, fields[0]
    if tier == "trajectory_hash" and fields[3] is not None:
        fields[3] = ",".join(map(str, fields[3]))
    return tier, _SEPARATOR.join(
        [
            _ABSENT
            if value is None
            else str(value).encode("utf-8").replace(_SEPARATOR, _ESCAPED_SEPARATOR)
            for value in fields
        ]
    )


def dedup_key(event: Event) -> DedupKey:
    """Assign the first available stable key in the cascade order.

    An explicit identifier is kept verbatim; the other tiers are the SHA-256
    hex digest of their material.
    """
    tier, material = _material(event)
    if tier == "explicit_id":
        return DedupKey(tier, material)
    return DedupKey(tier, hashlib.sha256(material).hexdigest())


def deduplicate(events: Iterable[Event]) -> tuple[list[Event], DedupStats]:
    """Retain one event per key; the canonically first source (path, line) wins.

    Events are grouped by their key fields, which give the same groups as
    their keys. The retained set and representatives are identical under any
    permutation of the input, and the output comes back in canonical order.
    """
    retained: dict[tuple, Event] = {}
    removed_by_tier: dict[KeyTier, int] = dict.fromkeys(KEY_TIERS, 0)
    input_count = 0
    for event in events:
        input_count += 1
        key = _key_fields(event)
        existing = retained.get(key)
        if existing is None:
            retained[key] = event
            continue
        removed_by_tier[key[0]] += 1
        if (event.source_path, event.line_number) < (
            existing.source_path,
            existing.line_number,
        ):
            retained[key] = event
    output = sorted(retained.values(), key=itemgetter(1, 2))  # (source_path, line_number)
    return output, DedupStats(input_count, len(output), removed_by_tier)


def ledger_rows(events: Iterable[Event]) -> list[tuple[str, str, str, int]]:
    """Audit rows (tier, key value, source path, line) in canonical order."""
    rows = []
    for event in events:
        key = dedup_key(event)
        rows.append((key.tier, key.value, event.source_path, event.line_number))
    rows.sort(key=itemgetter(2, 3))
    return rows
