from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_completion, make_event
from parem.dedup import (
    KEY_TIERS,
    _material,
    dedup_key,
    deduplicate,
    ledger_rows,
)
from parem.ingest import Event, TokenUsage


def oracle_identity(event: Event):
    """Identity material as a raw tuple, independent of any hashing."""
    if event.event_id is not None:
        return ("id", event.event_id)
    if (
        event.role == "model_completed"
        and not event.content_prefix
        and event.tool_name is None
    ):
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


def brute_force_retained(events):
    """O(n^2) pairwise comparison; no hashing involved."""
    representatives = []
    for event in events:
        if not any(
            oracle_identity(event) == oracle_identity(kept) for kept in representatives
        ):
            representatives.append(event)
    return representatives


def test_explicit_id_tier():
    key = dedup_key(make_event(event_id="abc"))
    assert key.tier == "explicit_id"
    assert key.value == "abc"


def test_explicit_id_beats_hash_tiers():
    event = make_event(
        event_id="abc", timestamp_ms=123, content_prefix="hello", tool_name="shell"
    )
    assert dedup_key(event).tier == "explicit_id"


def test_content_hash_identical_across_files():
    a = make_event(
        role="assistant",
        source="sessions/a.jsonl",
        line=3,
        timestamp_ms=1000,
        event_type="assistant",
        content_prefix="same words",
        tool_name=None,
    )
    b = make_event(
        role="assistant",
        source="sessions/b.jsonl",
        line=99,
        timestamp_ms=1000,
        event_type="assistant",
        content_prefix="same words",
        tool_name=None,
    )
    assert dedup_key(a) == dedup_key(b)
    assert dedup_key(a).tier == "content_hash"


def test_content_hash_distinguishes_tool_name():
    a = make_event(timestamp_ms=1, content_prefix="x", tool_name="shell")
    b = make_event(timestamp_ms=1, content_prefix="x", tool_name="editor")
    assert dedup_key(a) != dedup_key(b)


def test_trajectory_hash_token_counts_differing_by_one():
    a = make_completion(ts=1000, tokens=(10, 5, 100, 2))
    b = make_completion(ts=1000, tokens=(10, 5, 101, 2))
    key_a, key_b = dedup_key(a), dedup_key(b)
    assert key_a.tier == "trajectory_hash"
    assert key_b.tier == "trajectory_hash"
    assert key_a != key_b


def test_canonical_encoding_frozen():
    # the hash input contract: fields in fixed order, null-byte separated,
    # absent fields as 0xff
    event = make_completion(ts=1000, route="route-a", model="m", tokens=(1, 2, 3, 4))
    expected = hashlib.sha256(
        b"\x00".join([b"1000", b"route-a", b"m", b"1,2,3,4"])
    ).hexdigest()
    assert dedup_key(event).value == expected

    message = make_event(
        role="user",
        timestamp_ms=5,
        event_type="user",
        content_prefix="hi",
        tool_name=None,
    )
    expected_message = hashlib.sha256(
        b"\x00".join([b"5", b"user", b"user", b"hi", b"\xff"])
    ).hexdigest()
    assert dedup_key(message).value == expected_message


def test_model_completed_with_content_uses_content_hash():
    event = make_event(
        role="model_completed",
        timestamp_ms=1,
        content_prefix="finished",
        tokens=TokenUsage(1, 1, 1, 1),
    )
    assert dedup_key(event).tier == "content_hash"


def test_every_event_receives_a_key():
    bare = make_event(role="other")
    key = dedup_key(bare)
    assert key.tier == "content_hash"
    assert len(key.value) == 64
    assert key.value == key.value.lower()


def test_deduplicate_distinct_events():
    events = [make_event(content_prefix=f"n{i}", line=i + 1) for i in range(5)]
    retained, stats = deduplicate(events)
    assert len(retained) == 5
    assert sum(stats.removed_by_tier.values()) == 0


def test_deduplicate_self_concatenation():
    events = [make_event(content_prefix=f"n{i}", line=i + 1) for i in range(5)]
    doubled = events + [
        make_event(content_prefix=f"n{i}", source="sessions/copy.jsonl", line=i + 1)
        for i in range(5)
    ]
    retained, stats = deduplicate(doubled)
    assert retained == events  # canonical-first representative
    assert sum(stats.removed_by_tier.values()) == 5
    assert stats.removed_by_tier["content_hash"] == 5


def test_deduplicate_ten_events_two_shared_pairs():
    # 10 events where 4 share keys pairwise -> 8 retained
    events = [make_event(content_prefix=f"n{i}", line=i + 1) for i in range(8)]
    events.append(make_event(content_prefix="n0", source="sessions/z.jsonl", line=1))
    events.append(make_event(content_prefix="n1", source="sessions/z.jsonl", line=2))
    retained, stats = deduplicate(events)
    assert len(retained) == 8
    assert len(brute_force_retained(events)) == 8
    assert stats.input_count == 10


def test_representative_is_canonically_first_regardless_of_order():
    early = make_event(content_prefix="dup", source="sessions/a.jsonl", line=1)
    late = make_event(content_prefix="dup", source="sessions/b.jsonl", line=9)
    for ordering in ([early, late], [late, early]):
        retained, _ = deduplicate(ordering)
        assert retained == [early]


# Small value sets, so keys collide often. They hold a NUL inside a field,
# one text split two ways across event_type/content_prefix ("a\0b" + "c" and
# "a" + "b\0c"), route and model values that are also role and type values,
# and tokens that are None or all zero on trajectory records.
event_strategy = st.builds(
    Event,
    role=st.sampled_from(
        ["user", "assistant", "tool_result", "tool_call", "model_completed", "other"]
    ),
    source_path=st.sampled_from(["sessions/a.jsonl", "sessions/b.jsonl"]),
    line_number=st.integers(min_value=1, max_value=50),
    event_id=st.one_of(st.none(), st.sampled_from(["i1", "i2", "i3"])),
    timestamp_ms=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    event_type=st.one_of(st.none(), st.sampled_from(["t1", "a", "a\x00b", "user"])),
    tool_name=st.one_of(st.none(), st.sampled_from(["shell", "editor", "sh\x00ell"])),
    provider_route=st.one_of(st.none(), st.sampled_from(["r1", "user", "r\x00"])),
    model=st.one_of(st.none(), st.sampled_from(["m1", "t1"])),
    tokens=st.one_of(
        st.none(),
        st.just(TokenUsage(0, 0, 0, 0)),
        st.builds(
            TokenUsage,
            input=st.integers(min_value=0, max_value=2),
            output=st.integers(min_value=0, max_value=2),
            cache_read=st.integers(min_value=0, max_value=2),
            cache_write=st.integers(min_value=0, max_value=2),
        ),
    ),
    content_prefix=st.sampled_from(["", "alpha", "c", "b\x00c"]),
)

# one record per file line, as the parser guarantees
event_lists = st.lists(
    event_strategy, max_size=40, unique_by=lambda e: (e.source_path, e.line_number)
)


@given(event_lists)
@settings(max_examples=100)
def test_idempotence(events):
    once, _ = deduplicate(events)
    twice, stats = deduplicate(once)
    assert twice == once
    assert sum(stats.removed_by_tier.values()) == 0


@given(event_lists, st.randoms())
@settings(max_examples=100)
def test_input_order_invariance(events, rnd):
    shuffled = list(events)
    rnd.shuffle(shuffled)
    retained_a, _ = deduplicate(events)
    retained_b, _ = deduplicate(shuffled)
    assert retained_a == retained_b


@given(event_lists)
@settings(max_examples=100)
def test_brute_force_oracle_agreement(events):
    retained, _ = deduplicate(events)
    assert len(retained) == len(brute_force_retained(events))


@given(event_strategy)
@settings(max_examples=100)
def test_tier_ordering(event):
    key = dedup_key(event)
    if event.event_id is not None:
        assert key.tier == "explicit_id"
    else:
        assert key.tier in ("content_hash", "trajectory_hash")


@given(event_lists)
@settings(max_examples=100)
def test_oracle_key_equivalence_classes_match(events):
    # events are merged exactly when the raw identity material matches
    keys = {dedup_key(e) for e in events}
    oracle = {oracle_identity(e) for e in events}
    assert len(keys) == len(oracle)


def test_ledger_rows_sorted_by_source():
    events = [
        make_event(content_prefix="b", source="sessions/b.jsonl", line=2),
        make_event(content_prefix="a", source="sessions/a.jsonl", line=5),
    ]
    rows = ledger_rows(events)
    assert [row[2] for row in rows] == ["sessions/a.jsonl", "sessions/b.jsonl"]
    assert all(row[0] == "content_hash" for row in rows)


def reference_key(event):
    """The (tier, value) of an event's key, from the oracle identity and the
    frozen encoding: fields NUL-joined, absence as 0xff, a NUL inside a field
    as 0xff 0x01, token counts as "input,output,read,write"."""
    kind, *fields = oracle_identity(event)
    if kind == "id":
        return "explicit_id", fields[0]
    if kind == "trajectory" and fields[3] is not None:
        fields[3] = ",".join(map(str, fields[3]))
    material = b"\x00".join(
        b"\xff" if value is None else str(value).encode().replace(b"\x00", b"\xff\x01")
        for value in fields
    )
    return f"{kind}_hash", hashlib.sha256(material).hexdigest()


def digest_keyed_deduplicate(events):
    """Group by the reference SHA-256 key itself; the canonically first source wins."""
    retained = {}
    removed_by_tier = dict.fromkeys(KEY_TIERS, 0)
    for event in events:
        key = reference_key(event)
        existing = retained.get(key)
        if existing is None:
            retained[key] = event
            continue
        removed_by_tier[key[0]] += 1
        if (event.source_path, event.line_number) < (existing.source_path, existing.line_number):
            retained[key] = event
    output = sorted(retained.values(), key=lambda e: (e.source_path, e.line_number))
    return output, removed_by_tier


@given(event_lists, st.randoms())
@settings(max_examples=150)
def test_matches_digest_keyed_reference(events, rnd):
    shuffled = list(events)
    rnd.shuffle(shuffled)
    retained, stats = deduplicate(shuffled)
    expected, removed_by_tier = digest_keyed_deduplicate(shuffled)
    assert retained == expected
    assert stats.removed_by_tier == removed_by_tier
    assert stats.retained_count == len(expected)
    # the ledger hashes the same key fields the groups are made of
    assert [row[:2] for row in ledger_rows(retained)] == list(map(reference_key, expected))


def test_a_nul_inside_a_field_is_not_a_separator():
    # {"type": "a\u0000b", "content": "c"} and {"type": "a", "content": "b\u0000c"}
    first = make_event(timestamp_ms=5, event_type="a\x00b", content_prefix="c")
    second = make_event(timestamp_ms=5, event_type="a", content_prefix="b\x00c", line=2)
    assert dedup_key(first) != dedup_key(second)
    assert len(deduplicate([first, second])[0]) == 2


HASHED_FIELDS = {
    "content_hash": ("event_type", "content_prefix", "tool_name"),
    "trajectory_hash": ("provider_route", "model"),
}


@st.composite
def resplit_pairs(draw):
    """Two events of one hashed tier whose text fields, joined with NUL, are
    one string, split into fields at two draws of its NULs."""
    tier = draw(st.sampled_from(sorted(HASHED_FIELDS)))
    names = HASHED_FIELDS[tier]
    pieces = draw(
        st.lists(st.text(alphabet="a\xff", max_size=2), min_size=len(names), max_size=len(names) + 2)
    )
    nuls = range(len(pieces) - 1)
    events = []
    for line in (1, 2):
        cuts = sorted(draw(st.permutations(nuls))[: len(names) - 1])
        bounds = [0, *(cut + 1 for cut in cuts), len(pieces)]
        fields = ["\x00".join(pieces[a:b]) for a, b in zip(bounds, bounds[1:])]
        if tier == "content_hash":
            event = make_event(timestamp_ms=7, line=line, **dict(zip(names, fields)))
        else:
            event = make_completion(7, *fields, line=line)
        events.append(event)
    return events


@given(resplit_pairs())
@settings(max_examples=200)
def test_distinct_fields_give_distinct_material(pair):
    first, second = pair
    assert _material(first)[0] == _material(second)[0] != "explicit_id"
    same_fields = oracle_identity(first) == oracle_identity(second)
    assert (_material(first) == _material(second)) == same_fields
