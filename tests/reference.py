"""Plain references for the rules the suite checks in more than one place.

Each function states its rule the simplest way, shares no logic with
``parem`` (only its record types and key tier names) and is the one copy
of that rule under ``tests/``; the library's fast paths are compared
against them exactly.

- ``capped_gap_estimate``: active time and cluster count at one cap
  (``test_activetime.test_cap_sensitivity_matches_per_cap_scan``).
- ``dedup_identity``, ``dedup_key`` and ``deduplicate``: a record's raw
  identity, its frozen key encoding and digest-keyed retention
  (``test_dedup.test_matches_digest_keyed_reference``).
- ``average_ranks``, ``pearson`` and ``spearman``: tie-averaged ranks and the
  ``math.fsum`` sums the report's bytes were first made by
  (``test_tokens.test_average_ranks_match_the_run_walk`` and
  ``test_pearson_and_spearman_match_the_old_sums_bit_for_bit``).
"""

from __future__ import annotations

import hashlib
import math

from parem.activetime import ActiveTimeEstimate
from parem.dedup import KEY_TIERS
from parem.ingest import Event

MS_PER_MINUTE = 60_000


def capped_gap_estimate(timestamps, cap_minutes) -> ActiveTimeEstimate:
    """Walk the sorted unique timestamps: each gap adds at most the cap, and a
    gap over the cap starts a new cluster."""
    unique = sorted(set(timestamps))
    if not unique:
        return ActiveTimeEstimate(cap_minutes, 0.0, 0, 0)
    cap_ms = cap_minutes * MS_PER_MINUTE
    total_ms = 0
    clusters = 1
    for previous, current in zip(unique, unique[1:]):
        gap = current - previous
        total_ms += min(gap, cap_ms)
        if gap > cap_ms:
            clusters += 1
    return ActiveTimeEstimate(cap_minutes, total_ms / 3_600_000, clusters, len(unique))


def dedup_identity(event: Event) -> tuple:
    """Identity material as a raw tuple, independent of any hashing."""
    if event.event_id is not None:
        return ("id", event.event_id)
    if event.role == "model_completed" and not event.content_prefix and event.tool_name is None:
        usage = event.tokens
        counts = (
            (usage.input, usage.output, usage.cache_read, usage.cache_write)
            if usage is not None
            else None
        )
        return ("trajectory", event.timestamp_ms, event.provider_route, event.model, counts)
    return (
        "content",
        event.timestamp_ms,
        event.role,
        event.event_type,
        event.content_prefix or None,
        event.tool_name,
    )


def dedup_key(event: Event) -> tuple[str, str]:
    """The (tier, value) of an event's key, from its identity and the frozen
    encoding: fields NUL-joined, absence as 0xff, a NUL inside a field as
    0xff 0x01, token counts as "input,output,read,write"."""
    kind, *fields = dedup_identity(event)
    if kind == "id":
        return "explicit_id", fields[0]
    if kind == "trajectory" and fields[3] is not None:
        fields[3] = ",".join(map(str, fields[3]))
    material = b"\x00".join(
        b"\xff" if value is None else str(value).encode().replace(b"\x00", b"\xff\x01")
        for value in fields
    )
    return f"{kind}_hash", hashlib.sha256(material).hexdigest()


def deduplicate(events) -> tuple[list[Event], dict[str, int]]:
    """Group by the SHA-256 key itself; the canonically first (path, line)
    wins. Returns the retained events in canonical order and the removals
    by tier."""
    retained = {}
    removed_by_tier = dict.fromkeys(KEY_TIERS, 0)
    for event in events:
        key = dedup_key(event)
        existing = retained.get(key)
        if existing is None:
            retained[key] = event
            continue
        removed_by_tier[key[0]] += 1
        if (event.source_path, event.line_number) < (existing.source_path, existing.line_number):
            retained[key] = event
    output = sorted(retained.values(), key=lambda e: (e.source_path, e.line_number))
    return output, removed_by_tier


def average_ranks(values) -> list[float]:
    """Walk the index order sorted by value; each tie run gets its midpoint."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j + 2) / 2
        i = j + 1
    return ranks


def pearson(xs, ys) -> float | None:
    """Sample Pearson correlation from exactly rounded sums; None when a side
    is constant or the variance product underflows to zero."""
    if min(xs) == max(xs) or min(ys) == max(ys):
        return None
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    if var_x * var_y == 0.0:
        return None
    return max(-1.0, min(1.0, cov / math.sqrt(var_x * var_y)))


def spearman(xs, ys) -> float | None:
    return pearson(average_ranks(xs), average_ranks(ys))
