from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parem.dedup import dedup_key
from parem.ingest import (
    _ROLE_SYNONYMS,
    CONTENT_PREFIX_CHARS,
    PLAN_CACHE_LIMIT,
    CompiledAliases,
    Event,
    FieldAliases,
    TokenUsage,
    WorkspaceError,
    WorkspaceFiles,
    discover_workspace,
    normalize_content_prefix,
    normalize_timestamp,
    parse_session_file,
    scan_and_parse,
)
from parem.tokens import TokenEventRow


def iso_oracle_ms(year, month, day, hour=0, minute=0, second=0):
    """Independent calendar conversion for expected values."""
    return int(
        datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc).timestamp()
        * 1000
    )


class TestNormalizeTimestamp:
    def test_iso_with_zone(self):
        expected = iso_oracle_ms(2026, 5, 1)
        assert expected == 1_777_593_600_000
        assert normalize_timestamp("2026-05-01T00:00:00Z") == expected

    def test_epoch_start(self):
        assert normalize_timestamp(0) == 0

    def test_unparseable(self):
        assert normalize_timestamp("not-a-date") is None

    def test_epoch_seconds(self):
        assert normalize_timestamp(1_700_000_000) == 1_700_000_000_000

    def test_epoch_milliseconds(self):
        assert normalize_timestamp(1_700_000_000_000) == 1_700_000_000_000

    def test_threshold_boundary(self):
        # exactly 10^11 reads as milliseconds (year 1973)
        assert normalize_timestamp(10**11) == 10**11
        # just below reads as seconds and lands beyond 2100 -> rejected
        assert normalize_timestamp(10**11 - 1) is None

    def test_numeric_string(self):
        assert normalize_timestamp("1700000000") == 1_700_000_000_000

    def test_zoneless_is_utc(self):
        assert normalize_timestamp("2026-05-01T12:30:00") == iso_oracle_ms(
            2026, 5, 1, 12, 30
        )

    def test_offset_respected(self):
        assert normalize_timestamp("2026-05-01T02:00:00+02:00") == iso_oracle_ms(
            2026, 5, 1
        )

    def test_date_only(self):
        assert normalize_timestamp("2026-05-01") == iso_oracle_ms(2026, 5, 1)

    def test_before_epoch_rejected(self):
        assert normalize_timestamp("1969-12-31T23:59:59Z") is None
        assert normalize_timestamp(-5) is None

    def test_after_2100_rejected(self):
        assert normalize_timestamp("2101-01-01T00:00:00Z") is None

    def test_none_and_bool(self):
        assert normalize_timestamp(None) is None
        assert normalize_timestamp(True) is None


def test_content_prefix_normalization():
    text = "  a\tb\n" + "c" * 200
    prefix = normalize_content_prefix(text)
    assert prefix.startswith("a b c")
    assert len(prefix) == 64
    assert normalize_content_prefix(None) == ""
    assert normalize_content_prefix([{"k": "v"}]) == '[{"k":"v"}]'


def parse_file(path: Path):
    return parse_session_file(path.read_bytes(), str(path))


def write_lines(path: Path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseSessionFile:
    def test_three_valid_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_lines(
            path,
            [
                json.dumps({"role": "user", "content": "hi", "timestamp": 1_700_000_000}),
                json.dumps({"role": "assistant", "content": "yo"}),
                json.dumps({"type": "tool_call", "tool_name": "shell"}),
            ],
        )
        events, stats = parse_file(path)
        assert len(events) == 3
        assert stats.recoverable
        assert stats.total_lines == 3
        assert stats.parsed_lines == 3
        assert [e.role for e in events] == ["user", "assistant", "tool_call"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        events, stats = parse_file(path)
        assert events == []
        assert not stats.recoverable

    def test_trajectory_records_with_token_counts(self, tmp_path):
        # hand-built fixture: known token totals mixed with free text
        path = tmp_path / "t.jsonl"
        write_lines(
            path,
            [
                "free text line, not a record",
                json.dumps(
                    {
                        "type": "model.completed",
                        "ts": 1_700_000_000_000,
                        "provider_route": "alpha",
                        "model": "m1",
                        "usage": {
                            "input": 100,
                            "output": 20,
                            "cache_read": 500,
                            "cache_write": 7,
                        },
                    }
                ),
                "another stray line",
                json.dumps(
                    {
                        "type": "model.completed",
                        "ts": 1_700_000_060_000,
                        "provider_route": "alpha",
                        "model": "m1",
                        "usage": {
                            "input": 50,
                            "output": 10,
                            "cache_read": 250,
                            "cache_write": 3,
                        },
                    }
                ),
            ],
        )
        events, stats = parse_file(path)
        assert len(events) == 2
        assert stats.total_lines == 4
        assert stats.parsed_lines == 2
        assert all(e.role == "model_completed" for e in events)
        assert sum(e.tokens.input for e in events) == 150
        assert sum(e.tokens.output for e in events) == 30
        assert sum(e.tokens.cache_read for e in events) == 750
        assert sum(e.tokens.cache_write for e in events) == 10

    def test_three_parseable_two_junk(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_lines(
            path,
            [
                json.dumps({"role": "user", "content": "a"}),
                '{"role": "user", "content"',
                json.dumps({"role": "user", "content": "b"}),
                "garbage ###",
                json.dumps({"role": "user", "content": "c"}),
            ],
        )
        events, stats = parse_file(path)
        assert stats.total_lines == 5
        assert stats.parsed_lines == 3
        assert len(events) == 3

    def test_json_without_recognized_fields_is_skipped(self, tmp_path):
        path = tmp_path / "u.jsonl"
        write_lines(path, [json.dumps({"zzz": 1}), json.dumps([1, 2, 3]), '"plain"'])
        events, stats = parse_file(path)
        assert events == []
        assert stats.total_lines == 3
        assert not stats.recoverable

    def test_order_deterministic(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            [json.dumps({"role": "user", "content": f"m{i}"}) for i in range(20)],
        )
        first, _ = parse_file(path)
        second, _ = parse_file(path)
        assert first == second
        assert [e.line_number for e in first] == list(range(1, 21))

    def test_nested_message_envelope(self, tmp_path):
        path = tmp_path / "n.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "timestamp": "2026-05-01T00:00:00Z",
                        "message": {
                            "role": "assistant",
                            "content": "nested",
                            "model": "m9",
                            "usage": {
                                "input_tokens": 5,
                                "output_tokens": 6,
                                "cache_read_input_tokens": 7,
                                "cache_creation_input_tokens": 8,
                            },
                        },
                    }
                )
            ],
        )
        events, _ = parse_file(path)
        assert len(events) == 1
        event = events[0]
        assert event.role == "assistant"
        assert event.content_prefix == "nested"
        assert event.model == "m9"
        assert (event.tokens.input, event.tokens.output) == (5, 6)
        assert (event.tokens.cache_read, event.tokens.cache_write) == (7, 8)

    def test_model_completed_without_usage_gets_zero_tokens(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_lines(path, [json.dumps({"type": "model.completed"})])
        events, _ = parse_file(path)
        assert events[0].tokens is not None
        assert events[0].tokens.total() == 0

    def test_unparseable_timestamp_keeps_event(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"role": "user", "timestamp": "someday"})])
        events, _ = parse_file(path)
        assert len(events) == 1
        assert events[0].timestamp_ms is None

    def test_invalid_utf8_lines_tolerated(self, tmp_path):
        path = tmp_path / "bin.jsonl"
        path.write_bytes(
            b"\xff\xfe binary noise \x00\n"
            + json.dumps({"role": "user", "content": "survived"}).encode()
            + b"\n\x80\x81\x82\n"
        )
        events, stats = parse_file(path)
        assert len(events) == 1
        assert events[0].content_prefix == "survived"
        assert stats.total_lines == 3
        assert stats.recoverable

    def test_role_and_type_both_present(self, tmp_path):
        path = tmp_path / "rt.jsonl"
        write_lines(path, [json.dumps({"type": "message", "role": "user", "content": "x"})])
        events, _ = parse_file(path)
        assert events[0].role == "user"
        assert events[0].event_type == "message"


@given(
    st.lists(
        st.one_of(
            st.sampled_from(
                [
                    "not json at all",
                    '{"cut": ',
                    '{"zzz": 1}',
                    "[1, 2]",
                ]
            ),
            st.integers(min_value=0, max_value=999).map(
                lambda i: json.dumps({"role": "user", "content": f"v{i}"})
            ),
        ),
        max_size=30,
    )
)
@settings(max_examples=60)
def test_recoverable_iff_one_line_parsed(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("mix") / "f.jsonl"
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    events, stats = parse_file(path)
    valid = sum(1 for line in lines if '"role"' in line)
    assert stats.parsed_lines == valid
    assert len(events) == stats.parsed_lines
    assert stats.recoverable == (valid >= 1)
    assert stats.total_lines == len([line for line in lines if line.strip()])


def test_raw_record_per_nonempty_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"role": "user"}\n\n   \nplain text\n{"role": "assistant"}\n', encoding="utf-8"
    )
    events, stats = parse_file(path)
    assert [e.line_number for e in events] == [1, 5]
    assert stats.total_lines == 3
    assert stats.parsed_lines == 2


class TestScanWorkspace:
    def test_empty_directory(self, tmp_path):
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.memory_files == 0
        assert inventory.agent_dirs == 0
        assert inventory.skill_files == 0
        assert inventory.session_files_main == 0
        assert inventory.recoverable_main == 0
        assert inventory.surfaces.asb == 0

    def test_fixture_counts(self, tmp_path):
        # 5 memory files, 2 agent dirs, 3 skill files
        for i in range(5):
            write_lines(tmp_path / "memory" / f"2026-02-0{i + 1}.md", ["note"])
        for i in range(2):
            (tmp_path / "agents" / f"agent-{i}").mkdir(parents=True)
        for i in range(3):
            write_lines(tmp_path / "skills" / f"s{i}" / "SKILL.md", ["skill"])
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.memory_files == 5
        assert inventory.agent_dirs == 2
        assert inventory.skill_files == 3

    def test_nested_memory_and_skill_files_counted(self, tmp_path):
        write_lines(tmp_path / "memory" / "archive" / "2026-01-05.md", ["note"])
        write_lines(tmp_path / "memory" / "2026-01-06.md", ["note"])
        write_lines(tmp_path / "MEMORY.md", ["index"])
        write_lines(tmp_path / "skills" / "deep" / "nested" / "SKILL.md", ["skill"])
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.memory_files == 3
        assert inventory.skill_files == 1

    def test_session_file_with_junk_is_recoverable(self, tmp_path):
        write_lines(
            tmp_path / "sessions" / "a.jsonl",
            [
                json.dumps({"role": "user", "content": "x"}),
                "junk 1",
                json.dumps({"role": "user", "content": "y"}),
                "junk 2",
                json.dumps({"role": "user", "content": "z"}),
            ],
        )
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.session_files_main == 1
        assert inventory.recoverable_main == 1

    def test_junk_only_session_file_counted_unrecoverable(self, tmp_path):
        write_lines(tmp_path / "sessions" / "bad.log", ["junk", "more junk"])
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.session_files_main == 1
        assert inventory.recoverable_main == 0

    def test_agent_sessions_scoped(self, tmp_path):
        write_lines(
            tmp_path / "sessions" / "main.jsonl",
            [json.dumps({"role": "user", "content": "main"})],
        )
        write_lines(
            tmp_path / "agents" / "helper" / "sessions" / "h.jsonl",
            [json.dumps({"role": "assistant", "content": "agent"})],
        )
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.session_files_main == 1
        assert inventory.session_files_all == 2
        assert inventory.recoverable_all == 2

    def test_surface_counts_from_artifacts(self, tmp_path):
        write_lines(tmp_path / "manuscripts" / "draft.md", ["text"])
        write_lines(tmp_path / "scripts" / "tool.py", ["pass"])
        write_lines(tmp_path / "stray.txt", ["unmatched"])
        inventory = scan_and_parse(tmp_path)[0]
        assert inventory.surfaces.counts["manuscripts"] == 1
        assert inventory.surfaces.counts["scripts"] == 1
        assert inventory.surfaces.counts["unclassified"] == 1
        assert inventory.surfaces.asb == 2

    def test_missing_root_is_fatal(self, tmp_path):
        with pytest.raises(WorkspaceError):
            scan_and_parse(tmp_path / "nope")

    def test_deterministic(self, tmp_path):
        write_lines(
            tmp_path / "sessions" / "a.jsonl",
            [json.dumps({"role": "user", "content": "x"})],
        )
        write_lines(tmp_path / "memory" / "2026-01-01.md", ["note"])
        assert scan_and_parse(tmp_path)[0] == scan_and_parse(tmp_path)[0]


def small_workspace(root: Path) -> WorkspaceFiles:
    """Write one file of each kind under ``root``; the discovery it expects."""
    for rel in (
        "MEMORY.md",
        "memory/2026-01-01.md",
        "skills/s/SKILL.md",
        "sessions/a.jsonl",
        "agents/h/sessions/b.jsonl",
        "agents/h/state.json",
        "manuscripts/draft.md",
        "out/report.json",
        "stray.txt",
    ):
        write_lines(root / rel, ["x"])
    return WorkspaceFiles(
        memory=("MEMORY.md", "memory/2026-01-01.md"),
        skills=("skills/s/SKILL.md",),
        agent_dirs=("agents/h",),
        main_sessions=("sessions/a.jsonl",),
        agent_sessions=("agents/h/sessions/b.jsonl",),
        artifacts=("manuscripts/draft.md", "out/report.json", "stray.txt"),
    )


class TestDiscoverWorkspace:
    def test_paths_are_relative_to_the_root(self, tmp_path):
        expected = small_workspace(tmp_path)
        assert discover_workspace(tmp_path) == expected

    def test_root_given_as_dot(self, tmp_path, monkeypatch):
        expected = small_workspace(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert discover_workspace(".") == expected
        assert discover_workspace("./") == expected

    def test_root_with_a_trailing_slash(self, tmp_path):
        expected = small_workspace(tmp_path / "ws")
        assert discover_workspace(f"{tmp_path / 'ws'}/") == expected
        assert discover_workspace(f"{tmp_path / 'ws'}//") == expected

    def test_skip_leaves_out_one_directory(self, tmp_path, monkeypatch):
        expected = small_workspace(tmp_path)
        write_lines(tmp_path / "manuscripts" / "out" / "kept.md", ["x"])
        expected = dataclasses.replace(
            expected, artifacts=("manuscripts/draft.md", "manuscripts/out/kept.md", "stray.txt")
        )
        assert discover_workspace(tmp_path, skip="out") == expected
        monkeypatch.chdir(tmp_path)
        assert discover_workspace(".", skip="out") == expected


# --- alias plans against the per-field scan they replace --------------------

FIELD_NAMES = (
    "event_id",
    "timestamp",
    "role",
    "event_type",
    "tool_name",
    "provider_route",
    "model",
    "usage",
    "content",
)
USAGE_NAMES = ("usage_input", "usage_output", "usage_cache_read", "usage_cache_write")


def reference_lookup(record, envelope, names):
    for name in names:
        if name in record:
            return record[name]
    if envelope is not None:
        for name in names:
            if name in envelope:
                return envelope[name]
    return None


def reference_resolve(payload, aliases):
    envelope = None
    for key in aliases.envelopes:
        nested = payload.get(key)
        if isinstance(nested, dict):
            envelope = nested
            break
    return [reference_lookup(payload, envelope, getattr(aliases, name)) for name in FIELD_NAMES]


def reference_count(value):
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return max(0, value)
    if isinstance(value, float) and math.isfinite(value):
        return max(0, round(value))
    return 0


def reference_usage(value, aliases):
    if not isinstance(value, dict):
        return None
    counts = [reference_lookup(value, None, getattr(aliases, name)) for name in USAGE_NAMES]
    return TokenUsage(*map(reference_count, counts))


# a small pool, so custom alias sets overlap each other and the envelopes
ALIAS_POOL = ("id", "ts", "role", "type", "text", "message", "payload", "usage", "key", "output")
KEY_NAMES = sorted(
    set(ALIAS_POOL)
    | {
        name
        for attribute in (*FIELD_NAMES, *USAGE_NAMES, "envelopes")
        for name in getattr(FieldAliases(), attribute)
    }
)
alias_tuples = st.lists(st.sampled_from(ALIAS_POOL), min_size=1, max_size=3, unique=True).map(
    tuple
)
alias_sets = st.one_of(
    st.just(FieldAliases()),
    st.builds(
        FieldAliases,
        **{name: alias_tuples for name in (*FIELD_NAMES, *USAGE_NAMES, "envelopes")},
    ),
)
leaves = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)
key_names = st.sampled_from(KEY_NAMES)
payloads = st.dictionaries(
    key_names, st.one_of(leaves, st.dictionaries(key_names, leaves, max_size=6)), max_size=8
)


@given(alias_sets, st.lists(payloads, max_size=8))
@settings(max_examples=200)
def test_plan_resolver_matches_per_field_scan(aliases, records):
    compiled = CompiledAliases(aliases)
    for payload in records:
        # the same key shape with other values reuses the cached plan
        for variant in (payload, dict.fromkeys(payload), {k: {} for k in payload}):
            assert compiled.resolve(variant) == reference_resolve(variant, aliases)
        for value in payload.values():
            assert compiled.usage(value) == reference_usage(value, aliases)


def test_plan_cache_is_bounded():
    compiled = CompiledAliases(FieldAliases())
    for i in range(PLAN_CACHE_LIMIT + 10):
        assert compiled.resolve({f"k{i}": 1, "role": "user"})[2] == "user"
    # a full cache keeps the shapes it holds and stores no new ones
    assert len(compiled._plans) == PLAN_CACHE_LIMIT
    assert ("k0", "role") in compiled._plans


# --- the parse fast paths against the plain rules they replace ---------------

# every character str.split() splits on; the same set re's \s matches
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def reference_timestamp(raw):
    """normalize_timestamp without its fast paths: every text tries float()."""
    if raw is None or isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float)):
        return reference_epoch_ms(raw)
    if not isinstance(raw, str):
        return None
    text = raw.strip()
    if not text:
        return None
    try:
        return reference_epoch_ms(float(text))
    except ValueError:
        pass
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        return None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    ms = round(parsed.timestamp() * 1000)
    return ms if 0 <= ms < 4_102_444_800_000 else None


def reference_epoch_ms(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    ms = round(value) if abs(value) >= 10**11 else round(value * 1000)
    return ms if 0 <= ms < 4_102_444_800_000 else None


def reference_prefix(value, limit=CONTENT_PREFIX_CHARS):
    """normalize_content_prefix with one regex substitution per value."""
    if value is None:
        return ""
    if isinstance(value, str):
        text = value
    elif isinstance(value, (dict, list)):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    else:
        text = str(value)
    return re.sub(r"\s+", " ", text).strip()[:limit]


def reference_parse(payload, aliases, source_path, line_number, agent_scope):
    """CompiledAliases.parse as a per-field scan and a normalized role lookup."""
    values = reference_resolve(payload, aliases)
    if all(value is None for value in values):
        return None
    raw_id, raw_ts, raw_role, raw_type, raw_tool, raw_route, raw_model, raw_usage, raw_content = (
        values
    )
    kind = raw_role if isinstance(raw_role, str) else None
    if kind is None and isinstance(raw_type, str):
        kind = raw_type
    role = _ROLE_SYNONYMS.get(kind.strip().lower(), "other") if kind else "other"
    tokens = reference_usage(raw_usage, aliases)
    if role == "model_completed" and tokens is None:
        tokens = TokenUsage()
    text = [value if isinstance(value, str) else None for value in values]
    return Event(
        role,
        source_path,
        line_number,
        agent_scope,
        str(raw_id) if raw_id is not None else None,
        reference_timestamp(raw_ts),
        text[3],
        text[4],
        text[5],
        text[6],
        tokens,
        reference_prefix(raw_content),
    )


def test_split_and_backslash_s_agree_on_every_character():
    assert len(WHITESPACE) == 29
    matched = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if re.match(r"\s", c))
    assert matched == WHITESPACE


DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "⁰¹²³⁴⁵⁶⁷⁸⁹")
padding = st.text(alphabet=WHITESPACE, max_size=2)


@st.composite
def respelt(draw, texts):
    """A drawn text, its ASCII digits maybe in another script, maybe padded."""
    text = draw(texts)
    digits = draw(st.sampled_from(DIGIT_SETS[:1] * 3 + DIGIT_SETS[1:]))
    return draw(padding) + text.translate(str.maketrans("0123456789", digits)) + draw(padding)


@st.composite
def iso_texts(draw):
    zone = st.integers(min_value=-1439, max_value=1439).map(
        lambda minutes: timezone(timedelta(minutes=minutes))
    )
    moment = draw(
        st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30), timezones=st.none() | zone)
    )
    year, week, weekday = moment.isocalendar()
    text = draw(
        st.sampled_from(
            [
                moment.isoformat(),
                moment.isoformat(sep=" ", timespec="milliseconds"),
                moment.isoformat(timespec="minutes"),
                moment.date().isoformat(),
                f"{moment.year:04d}{moment.month:02d}{moment.day:02d}",
                f"{year:04d}-W{week:02d}-{weekday}",
                f"{year:04d}W{week:02d}{weekday}",
            ]
        )
    )
    if text.endswith("+00:00"):
        text = text[:-6] + draw(st.sampled_from(["Z", "z", "+00:00"]))
    return text


epoch_numbers = st.one_of(
    st.integers(min_value=-(10**13), max_value=10**13),
    st.integers(min_value=10**8, max_value=5 * 10**12),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=0, max_value=5e12),
)
numeric_texts = st.one_of(
    epoch_numbers.map(str),
    st.integers(min_value=0, max_value=5 * 10**12).map(lambda n: f"{n:_}"),
    st.floats(min_value=0, max_value=5e12).map(lambda x: f"{x:e}"),
    st.sampled_from(["1_000", "1e5", "1E11", "nan", "-inf", "inf", "Infinity", "+1700000000"]),
)
timestamp_values = st.one_of(
    epoch_numbers,
    respelt(numeric_texts),
    respelt(iso_texts()),
    st.none(),
    st.booleans(),
    st.text(alphabet="0123456789-+:.TWZz eE_", max_size=12),
    st.lists(st.integers(), max_size=1),
)


@given(timestamp_values)
@settings(max_examples=600)
def test_timestamp_fast_paths_equal_the_plain_rule(raw):
    assert normalize_timestamp(raw) == reference_timestamp(raw)


prefix_texts = st.one_of(
    st.text(alphabet=st.sampled_from(WHITESPACE + "ab\x00é"), max_size=150), st.text(max_size=80)
)
prefix_values = st.one_of(
    prefix_texts,
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(prefix_texts, max_size=3),
    st.dictionaries(prefix_texts, prefix_texts, max_size=3),
)


@given(prefix_values, st.integers(min_value=0, max_value=80))
@settings(max_examples=400)
def test_prefix_split_join_equals_the_regex_rule(value, limit):
    assert normalize_content_prefix(value, limit) == reference_prefix(value, limit)
    assert normalize_content_prefix(value) == reference_prefix(value)


@st.composite
def role_texts(draw):
    text = draw(st.sampled_from([*_ROLE_SYNONYMS, "Other", "bot", ""]))
    case = draw(st.sampled_from(["lower", "upper", "title", "swapcase", "capitalize"]))
    return draw(padding) + getattr(text, case)() + draw(padding)


kinds = st.one_of(
    role_texts(), st.none(), st.integers(), st.booleans(), st.lists(st.text(), max_size=1)
)
usage_values = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=2),
    st.text(max_size=2),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(
        st.sampled_from(["input", "output_tokens", "cache_read", "cache_write_tokens", "x"]),
        st.one_of(
            st.integers(min_value=-3, max_value=10**6),
            st.floats(allow_nan=True, allow_infinity=True),
            st.booleans(),
            st.none(),
            st.text(max_size=2),
        ),
        max_size=5,
    ),
)
words = st.one_of(st.none(), st.integers(), st.text(max_size=3))
record_fields = {
    "id": words,
    "ts": timestamp_values,
    "role": kinds,
    "type": kinds,
    "tool": words,
    "provider": words,
    "model": words,
    "usage": usage_values,
    "tokens": usage_values,
    "content": prefix_values,
}
envelope_records = st.fixed_dictionaries({}, optional=record_fields)
parse_payloads = st.fixed_dictionaries(
    {},
    optional={
        **record_fields,
        "message": st.one_of(envelope_records, words),
        "payload": envelope_records,
    },
)


@given(parse_payloads)
@settings(max_examples=500)
def test_parse_fast_paths_equal_the_plain_rules(payload):
    aliases = FieldAliases()
    expected = reference_parse(payload, aliases, "sessions/s.jsonl", 7, "other_agent")
    compiled = CompiledAliases(aliases)
    for _ in range(2):  # a new plan, then the cached one
        assert compiled.parse(payload, "sessions/s.jsonl", 7, "other_agent") == expected


# --- no line can abort a parse ------------------------------------------------


def test_pathological_numbers_and_nesting_are_tolerated(tmp_path):
    path = tmp_path / "p.jsonl"
    write_lines(
        path,
        [
            '{"role": "user", "ts": NaN}',
            '{"role": "user", "ts": 1e400}',
            '{"role": "model_completed", "usage": {"output": Infinity, "input": 7}}',
            '{"role": "user", "ts": "-inf"}',
            '{"content": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"id": ' + "9" * 5000 + "}",
        ],
    )
    events, stats = parse_file(path)
    assert stats.total_lines == 6
    assert stats.parsed_lines == 4
    assert [e.timestamp_ms for e in events] == [None, None, None, None]
    assert events[2].tokens == TokenUsage(input=7)


@pytest.mark.parametrize(
    "record",
    [
        Event(role="user", source_path="s.jsonl", line_number=1),
        TokenUsage(1, 2, 3, 4),
        TokenEventRow(None, "route", "model", 1, 2, 3, 4),
    ],
)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert hash(record) == hash(type(record)(*record))


def test_lone_surrogates_become_replacement_characters(tmp_path):
    path = tmp_path / "s.jsonl"
    write_lines(
        path,
        [
            '{"role": "user", "content": "a\\ud800b", "model": "m\\udfff"}',
            '{"role": "user", "content": "pair \\ud83d\\ude00 kept"}',
        ],
    )
    events, _ = parse_file(path)
    assert events[0].content_prefix == "a\ufffdb"
    assert events[0].model == "m\ufffd"
    assert events[1].content_prefix == "pair \U0001F600 kept"


SURROGATES = st.integers(min_value=0xD800, max_value=0xDFFF).map(chr)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from([10**400, -(10**400), 10**11, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.text(alphabet=st.one_of(st.characters(), SURROGATES), max_size=6),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(key_names, children, max_size=4)
    ),
    max_leaves=12,
)
json_lines = st.dictionaries(
    st.one_of(key_names, st.text(max_size=4)), json_values, max_size=6
).map(lambda record: json.dumps(record).encode())
nested_lines = st.integers(min_value=1, max_value=100_000).map(
    lambda depth: ('{"role": "user", "content": ' + "[" * depth + "]" * depth + "}").encode()
)
literal_lines = st.sampled_from(
    [
        b'{"role": "user", "ts": NaN}',
        b'{"ts": 1e400}',
        b'{"ts": -Infinity, "usage": {"output": Infinity, "cache_read": NaN}}',
        b'{"id": ' + b"9" * 5000 + b"}",
        b'{"role": "user", "content": "\\udc80"}',
        b"\xff\xfe{not json",
        b"[1, 2, 3]",
        b"   ",
        b"",
        b"{} {}",
        b'{"role":"user"} x',
        b'{"role": "user"}{"role": "user"}',
        b'{"role": "user"},',
        b' \t {"role": "user"} \t ',
        b'\xc2\xa0{"role": "user"}\xe2\x80\x83',  # Unicode spaces, stripped like ASCII ones
        b'\xef\xbb\xbf{"role": "user"}',  # a BOM json.loads refuses
        b'{"role": null}',
        b'{"role": "user", "role": 5}',
    ]
)
file_lines = st.lists(
    st.one_of(st.binary(max_size=40), json_lines, nested_lines, literal_lines), max_size=12
)


def text_lines(data: bytes) -> list[str]:
    text = data.decode("utf-8", errors="replace").replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def reference_is_event(line: str) -> bool:
    """json.loads of the stripped line is a dict with a recognized field."""
    try:
        payload = json.loads(line.strip())
    except (ValueError, RecursionError):
        return False
    if not isinstance(payload, dict):
        return False
    return any(value is not None for value in reference_resolve(payload, FieldAliases()))


@given(file_lines)
@settings(max_examples=150, deadline=None)
def test_line_fuzz_never_raises(tmp_path_factory, lines):
    data = b"\n".join(lines)
    path = tmp_path_factory.mktemp("fuzz") / "f.jsonl"
    path.write_bytes(data)
    events, stats = parse_file(path)
    numbered = list(enumerate(text_lines(data), start=1))
    assert stats.total_lines == sum(1 for _, line in numbered if line.strip())
    assert len(events) == stats.parsed_lines <= stats.total_lines
    # a line is an event exactly when json.loads reads it as a dict with a
    # recognized field; near the recursion limit the parser, a few frames
    # deeper than this test, may refuse a line json.loads accepted here
    parsed = {e.line_number for e in events}
    expected = {n for n, line in numbered if reference_is_event(line)}
    assert parsed <= expected
    assert all("[" * 500 in line for n, line in numbered if n in expected - parsed)
    for event in events:
        for name in ("event_id", "event_type", "tool_name", "provider_route", "model"):
            (getattr(event, name) or "").encode("utf-8")
        event.content_prefix.encode("utf-8")
        dedup_key(event)
