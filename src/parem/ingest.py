"""Workspace discovery and tolerant parsing of line-oriented session logs,
with a per-file cache of the parse results for reruns.

Session and trajectory files are treated as JSONL-like: any line that parses
as a key/value record with at least one recognized field becomes an event;
everything else is counted and skipped. A file is recoverable when at least
one of its lines parsed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property, partial
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Literal, NamedTuple

from . import __version__
from .classify import ClassificationRules, SurfaceCounts, surface_counts
from .jsonfmt import to_json

Role = Literal["user", "assistant", "tool_result", "tool_call", "model_completed", "other"]
AgentScope = Literal["main", "other_agent"]

ROLES: tuple[Role, ...] = (
    "user",
    "assistant",
    "tool_result",
    "tool_call",
    "model_completed",
    "other",
)

CONTENT_PREFIX_CHARS = 64

# Raw epoch values at or above this threshold are read as milliseconds,
# below it as seconds.
EPOCH_MS_THRESHOLD = 10**11
UTC_MIN_MS = 0  # 1970-01-01T00:00:00Z
UTC_MAX_MS = 4_102_444_800_000  # 2100-01-01T00:00:00Z

_ROLE_SYNONYMS: dict[str, Role] = {
    "user": "user",
    "human": "user",
    "assistant": "assistant",
    "tool_result": "tool_result",
    "tool-result": "tool_result",
    "toolresult": "tool_result",
    "tool_use_result": "tool_result",
    "tool_call": "tool_call",
    "tool-call": "tool_call",
    "toolcall": "tool_call",
    "tool_use": "tool_call",
    "function_call": "tool_call",
    "model_completed": "model_completed",
    "model.completed": "model_completed",
    "model-completed": "model_completed",
}

_scan_once = json.JSONDecoder().scan_once


class WorkspaceError(Exception):
    """Raised when the workspace root cannot be scanned at all."""


class TokenUsage(NamedTuple):
    input: int = 0
    output: int = 0
    cache_read: int = 0
    cache_write: int = 0

    def total(self) -> int:
        return self.input + self.output + self.cache_read + self.cache_write


class Event(NamedTuple):
    """A normalized telemetry record from a session or trajectory line.

    A named tuple, so immutable and hashable, and cheap to build: one is
    built per parsed line.
    """

    role: Role
    source_path: str
    line_number: int
    agent_scope: AgentScope = "main"
    event_id: str | None = None
    timestamp_ms: int | None = None
    event_type: str | None = None
    tool_name: str | None = None
    provider_route: str | None = None
    model: str | None = None
    tokens: TokenUsage | None = None
    content_prefix: str = ""


# build a record from a tuple of all its fields, skipping the keyword-argument
# handling of the named tuples' constructors
_new_event = partial(tuple.__new__, Event)
_new_usage = partial(tuple.__new__, TokenUsage)


@dataclass(frozen=True, slots=True)
class FileParseStats:
    total_lines: int
    parsed_lines: int

    @property
    def recoverable(self) -> bool:
        return self.parsed_lines >= 1


@dataclass(frozen=True)
class FieldAliases:
    """Field-name synonyms for the heterogeneous runtimes that write logs.

    Lookups run over the record itself and then over one nested envelope
    level (``message``/``payload``), which covers runtimes that wrap the
    interesting fields.
    """

    event_id: tuple[str, ...] = ("id", "event_id", "message_id", "uuid")
    timestamp: tuple[str, ...] = ("timestamp", "ts", "created_at", "time")
    role: tuple[str, ...] = ("role",)
    event_type: tuple[str, ...] = ("type", "event_type")
    tool_name: tuple[str, ...] = ("tool_name", "tool")
    provider_route: tuple[str, ...] = ("provider_route", "provider", "route")
    model: tuple[str, ...] = ("model",)
    usage: tuple[str, ...] = ("usage", "tokens", "token_counts")
    content: tuple[str, ...] = ("content", "text", "body")
    envelopes: tuple[str, ...] = ("message", "payload")
    usage_input: tuple[str, ...] = ("input", "input_tokens", "prompt_tokens")
    usage_output: tuple[str, ...] = ("output", "output_tokens", "completion_tokens")
    usage_cache_read: tuple[str, ...] = (
        "cache_read",
        "cache_read_tokens",
        "cache_read_input_tokens",
    )
    usage_cache_write: tuple[str, ...] = (
        "cache_write",
        "cache_write_tokens",
        "cache_creation_input_tokens",
    )
    version: str = "field-aliases/1"

    @cached_property
    def compiled(self) -> "CompiledAliases":
        """These aliases as per-key-shape lookup plans, compiled once per instance."""
        return CompiledAliases(self)


@dataclass(frozen=True)
class WorkspaceConventions:
    """Directory conventions that separate runtime state from artifacts.

    ``session_dirs`` are scanned both at the workspace root (main scope) and
    under each configured agent directory (other-agent scope).
    """

    memory_dirs: tuple[str, ...] = ("memory",)
    memory_basenames: tuple[str, ...] = ("MEMORY.md",)
    skill_dirs: tuple[str, ...] = ("skills",)
    agent_root: str = "agents"
    session_dirs: tuple[str, ...] = ("sessions", "trajectories")
    trajectory_dirs: tuple[str, ...] = ("trajectories",)
    version: str = "workspace-layout/1"

    def is_trajectory(self, relpath: str) -> bool:
        parts = relpath.replace("\\", "/").split("/")
        if parts and parts[0] in self.trajectory_dirs:
            return True
        return (
            len(parts) > 2
            and parts[0] == self.agent_root
            and parts[2] in self.trajectory_dirs
        )


@dataclass(frozen=True)
class WorkspaceInventory:
    """Counts and file lists discovered by one deterministic workspace scan."""

    memory_files: int = 0
    agent_dirs: int = 0
    skill_files: int = 0
    session_files_main: int = 0
    recoverable_main: int = 0
    session_files_all: int = 0
    recoverable_all: int = 0
    surfaces: SurfaceCounts = field(default_factory=SurfaceCounts)
    memory_paths: tuple[str, ...] = ()
    main_session_paths: tuple[str, ...] = ()
    agent_session_paths: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def normalize_timestamp(raw: object) -> int | None:
    """Coerce epoch seconds/milliseconds or ISO-8601 text to UTC milliseconds.

    Zoneless timestamps are read as UTC. Values outside 1970-2100 and
    anything unparseable come back as None, never as an error.
    """
    if type(raw) is int:
        return _epoch_to_ms(raw)
    if raw is None or isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float)):
        return _epoch_to_ms(raw)
    if not isinstance(raw, str):
        return None
    text = raw.strip()
    if not text:
        return None
    # a "-" right after a digit is never float syntax, so a text starting
    # "YYYY-" skips the float attempt and its caught ValueError
    if not (text[4:5] == "-" and text[:4].isdigit()):
        try:
            return _epoch_to_ms(float(text))
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
    return ms if UTC_MIN_MS <= ms < UTC_MAX_MS else None


def _epoch_to_ms(value: float) -> int | None:
    if isinstance(value, float) and not math.isfinite(value):
        return None
    ms = round(value) if abs(value) >= EPOCH_MS_THRESHOLD else round(value * 1000)
    return ms if UTC_MIN_MS <= ms < UTC_MAX_MS else None


def normalize_content_prefix(value: object, limit: int = CONTENT_PREFIX_CHARS) -> str:
    """Whitespace-collapsed text prefix, capped at ``limit`` characters."""
    if isinstance(value, str):
        text = value
    elif value is None:
        return ""
    elif isinstance(value, (dict, list)):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    else:
        text = str(value)
    return " ".join(text.split())[:limit]  # split() splits where re's \s matches


# Alias plans are cached per key shape. A cache holding this many shapes
# keeps them and resolves further shapes without storing them, so input with
# ever-new key sets neither grows it nor pays for churning it.
PLAN_CACHE_LIMIT = 4096

_INT_ONLY = {int}
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
_TEXT_FIELDS = (
    "event_id",
    "event_type",
    "tool_name",
    "provider_route",
    "model",
    "content_prefix",
)


def _alias_ranks(fields: tuple[tuple[str, ...], ...]) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each alias name -> the (field index, priority) pairs it stands for."""
    ranks: dict[str, list[tuple[int, int]]] = {}
    for index, names in enumerate(fields):
        for priority, name in enumerate(names):
            ranks.setdefault(name, []).append((index, priority))
    return {name: tuple(pairs) for name, pairs in ranks.items()}


def _plan_keys(shape: tuple, ranks: dict, count: int) -> tuple[str | None, ...]:
    """For each field, the key in ``shape`` that is its first alias, or None."""
    keys: list[str | None] = [None] * count
    best = [math.inf] * count
    for key in shape:
        for index, priority in ranks.get(key, ()):
            if priority < best[index]:
                best[index] = priority
                keys[index] = key
    return tuple(keys)


class CompiledAliases:
    """FieldAliases compiled into one lookup plan per record key shape.

    A plan records, for a tuple of keys, which key each field reads (the
    first alias present, in priority order) and which envelope keys are
    present. Record-level keys win over the envelope, even when their value
    is null; the first envelope whose value is a dict is used.
    """

    def __init__(self, aliases: FieldAliases) -> None:
        self._envelopes = aliases.envelopes
        self._fields = (
            aliases.event_id,
            aliases.timestamp,
            aliases.role,
            aliases.event_type,
            aliases.tool_name,
            aliases.provider_route,
            aliases.model,
            aliases.usage,
            aliases.content,
        )
        self._usage_fields = (
            aliases.usage_input,
            aliases.usage_output,
            aliases.usage_cache_read,
            aliases.usage_cache_write,
        )
        self._ranks = _alias_ranks(self._fields)
        self._usage_ranks = _alias_ranks(self._usage_fields)
        self._plans: dict[tuple, tuple[tuple, tuple[str, ...]]] = {}
        self._usage_plans: dict[tuple, tuple] = {}

    def _plan(self, record: dict) -> tuple[tuple, tuple[str, ...]]:
        shape = tuple(record)
        plan = self._plans.get(shape)
        if plan is None:
            plan = (
                _plan_keys(shape, self._ranks, len(self._fields)),
                tuple([name for name in self._envelopes if name in record]),
            )
            if len(self._plans) < PLAN_CACHE_LIMIT:
                self._plans[shape] = plan
        return plan

    def resolve(self, payload: dict) -> list:
        """The raw value of each of the nine fields, None where absent."""
        keys, envelopes = self._plan(payload)
        # a None key reads None: JSON object keys are strings
        values = list(map(payload.get, keys))
        if None not in keys:
            return values
        for name in envelopes:
            envelope = payload[name]
            if isinstance(envelope, dict):
                nested = self._plan(envelope)[0]
                for i, key in enumerate(keys):
                    if key is None and nested[i] is not None:
                        values[i] = envelope[nested[i]]
                break
        return values

    def usage(self, value: object) -> TokenUsage | None:
        if not isinstance(value, dict):
            return None
        shape = tuple(value)
        keys = self._usage_plans.get(shape)
        if keys is None:
            keys = _plan_keys(shape, self._usage_ranks, len(self._usage_fields))
            if len(self._usage_plans) < PLAN_CACHE_LIMIT:
                self._usage_plans[shape] = keys
        counts = [value[key] if key is not None else 0 for key in keys]
        if set(map(type, counts)) != _INT_ONLY or min(counts) < 0:
            counts = [_coerce_count(count) for count in counts]
        return TokenUsage._make(counts)

    def parse(
        self,
        payload: dict,
        source_path: str,
        line_number: int,
        agent_scope: AgentScope,
    ) -> Event | None:
        """Turn one parsed line into an Event, or None when nothing is recognized."""
        values = self.resolve(payload)
        if values.count(None) == len(values):
            return None
        raw_id, raw_ts, raw_role, raw_type, raw_tool = values[:5]
        raw_route, raw_model, raw_usage, raw_content = values[5:]

        kind = raw_role if isinstance(raw_role, str) else None
        if kind is None and isinstance(raw_type, str):
            kind = raw_type
        role: Role = "other"
        if kind:  # the table's keys are stripped and lowercase: try them as they are first
            role = _ROLE_SYNONYMS.get(kind) or _ROLE_SYNONYMS.get(kind.strip().lower(), "other")

        tokens = self.usage(raw_usage) if raw_usage is not None else None
        if role == "model_completed" and tokens is None:
            tokens = TokenUsage()

        return _new_event(
            (
                role,
                source_path,
                line_number,
                agent_scope,
                str(raw_id) if raw_id is not None else None,
                normalize_timestamp(raw_ts),
                raw_type if isinstance(raw_type, str) else None,
                raw_tool if isinstance(raw_tool, str) else None,
                raw_route if isinstance(raw_route, str) else None,
                raw_model if isinstance(raw_model, str) else None,
                tokens,
                normalize_content_prefix(raw_content),
            )
        )


def _coerce_count(value: object) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, int):
        return max(0, value)
    if isinstance(value, float) and math.isfinite(value):
        return max(0, round(value))
    return 0


def _replace_lone_surrogates(event: Event) -> Event:
    """Swap each lone surrogate in the event's text for U+FFFD.

    JSON ``\\ud800``-style escapes can decode to code points that no UTF-8
    writer accepts; undecodable bytes already read as U+FFFD, and so do these.
    """
    changes = {}
    for name in _TEXT_FIELDS:
        value = getattr(event, name)
        if value is not None and _LONE_SURROGATE.search(value):
            changes[name] = _LONE_SURROGATE.sub("\ufffd", value)
    return event._replace(**changes) if changes else event


def parse_session_file(
    data: bytes,
    source_path: str,
    aliases: FieldAliases | None = None,
    agent_scope: AgentScope = "main",
) -> tuple[list[Event], FileParseStats]:
    """Parse one JSONL-like file's bytes tolerantly, preserving file order.

    Every non-empty line counts toward ``total_lines``. A line that is not a
    JSON object (including one too deeply nested to decode) or carries no
    recognized field is skipped. The bytes are split into lines and decoded
    exactly as ``open(path, "r", encoding="utf-8", errors="replace")`` reads
    the file; each event's ``source_path`` is ``source_path``.
    """
    compiled = (aliases or FieldAliases()).compiled
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="replace")
    events: list[Event] = []
    total = 0
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        total += 1
        # json.loads minus its whitespace skips, which a stripped line
        # never needs; a leading BOM fails the scan as it fails loads
        try:
            payload, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):
            continue  # not JSON, too-long integers, too-deep nesting
        if end != len(text) or not isinstance(payload, dict):
            continue
        try:
            event = compiled.parse(payload, source_path, line_number, agent_scope)
        except RecursionError:  # content nested too deeply to serialize
            continue
        if event is not None:
            if "\\u" in text:
                event = _replace_lone_surrogates(event)
            events.append(event)
    return events, FileParseStats(total, len(events))


PARSE_CACHE_FORMAT = "parem-parse-cache/1"

_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
# the Event fields a cache line stores; source_path and agent_scope follow
# from the file's path
_CACHED_FIELDS = tuple(f for f in Event._fields if f not in ("source_path", "agent_scope"))
_cached_columns = itemgetter(*(Event._fields.index(f) for f in _CACHED_FIELDS))
_NO_EVENTS = ((),) * len(_CACHED_FIELDS)
_NONE = repeat(None)
_CHECK_WIDTH = len('"00000000",')


class ParseCache:
    """Per-file parse results of the previous run, and the sink for this run's.

    The cache file holds a header line, then one line per parsed session
    file, in sorted path order::

        ["<path>","<sha256 of the file>","<crc32>",<lines>,[<columns>]]

    ``lines`` is the file's non-empty line count and the columns are its
    events' fields in ``_CACHED_FIELDS`` order, a column that is null
    throughout stored as one null; the crc32 covers the text after it, up to
    the newline. The header names the format, the parem version and the
    field aliases; a different header discards the whole file. A line whose
    checksum or shape does not hold is a miss, so a damaged cache costs a
    re-parse, never a changed result. The cache is JSON, so reading one
    cannot run code.

    Lookups must come in sorted path order: the previous file is read in
    step with them, and this run's lines stream to a temporary file that
    replaces it on a clean exit. Neither cache is ever held in memory. With
    no path every lookup misses and nothing is written.
    """

    def __init__(self, path: Path | None, aliases: FieldAliases) -> None:
        self._path = path
        self._aliases = aliases
        self._header = _compact(
            {"aliases": to_json(aliases), "format": PARSE_CACHE_FORMAT, "parem": __version__}
        ) + "\n"
        self._prior = None
        self._pending: str | None = None
        self._sink = None
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sink = open(self._temporary, "wb")
        self._sink.write(self._header.encode())
        try:
            self._prior = open(path, "r", encoding="utf-8", errors="replace", newline="\n")
            if self._prior.readline() == self._header:
                self._pending = self._prior.readline()
        except OSError:
            pass

    @property
    def _temporary(self) -> Path:
        return self._path.with_name(self._path.name + ".tmp")

    def __enter__(self) -> "ParseCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._prior is not None:
            self._prior.close()
        if self._sink is not None:
            self._sink.close()
            if exc_type is None:
                os.replace(self._temporary, self._path)
            else:
                self._temporary.unlink(missing_ok=True)

    def parse(
        self, rel: str, data: bytes, agent_scope: AgentScope
    ) -> tuple[list[Event], FileParseStats]:
        """The file's events and stats: from the cache when its bytes are
        unchanged, else from ``parse_session_file``."""
        key = _compact([rel, hashlib.sha256(data).hexdigest()])[:-1] + ","
        line = self._take(rel)
        if line is not None and line.startswith(key):
            found = _decode_line(line, len(key), rel, agent_scope)
            if found is not None:
                self._store(line.encode())
                return found
        events, stats = parse_session_file(data, rel, self._aliases, agent_scope)
        if self._sink is not None:
            columns = [
                None if column and column[0] is None and column.count(None) == len(column)
                else column
                for column in (_cached_columns(tuple(zip(*events))) if events else _NO_EVENTS)
            ]
            rest = _compact([stats.total_lines, columns])[1:].encode()
            self._store(b'%s"%08x",%s\n' % (key.encode(), zlib.crc32(rest), rest))
        return events, stats

    def _take(self, rel: str) -> str | None:
        """The previous run's line for ``rel``, skipping lines of paths before it."""
        while self._pending:
            line = self._pending
            try:
                path = _scan_once(line, 1)[0] if line.startswith('["') else None
            except (StopIteration, ValueError):
                path = None
            if isinstance(path, str) and path > rel:
                return None
            try:
                self._pending = self._prior.readline()
            except OSError:
                self._pending = None
            if path == rel:
                return line
        return None

    def _store(self, line: bytes) -> None:
        if self._sink is not None:
            self._sink.write(line)


def _decode_line(
    line: str, start: int, rel: str, agent_scope: AgentScope
) -> tuple[list[Event], FileParseStats] | None:
    """A cache line's events and stats, or None when the line is damaged."""
    rest = line[start + _CHECK_WIDTH : -1]
    try:
        if not line.endswith("\n") or int(line[start + 1 : start + 9], 16) != zlib.crc32(
            rest.encode()
        ):
            return None
        total, columns = json.loads("[" + rest)
        roles, lines, ids, stamps, types, tools, routes, models, tokens, prefixes = (
            _NONE if column is None else column for column in columns
        )
        count = len(roles)
        if any(column is not None and len(column) != count for column in columns):
            return None
        if tokens is not _NONE:
            tokens = [None if usage is None else _new_usage(usage) for usage in tokens]
    except (ValueError, TypeError):
        return None
    rows = zip(
        roles,
        repeat(rel),
        lines,
        repeat(agent_scope),
        ids,
        stamps,
        types,
        tools,
        routes,
        models,
        tokens,
        prefixes,
    )
    return list(map(_new_event, rows)), FileParseStats(total, count)


@dataclass(frozen=True)
class WorkspaceFiles:
    """Relative paths discovered under a workspace root, grouped by kind."""

    memory: tuple[str, ...] = ()
    skills: tuple[str, ...] = ()
    agent_dirs: tuple[str, ...] = ()
    main_sessions: tuple[str, ...] = ()
    agent_sessions: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ()


def discover_workspace(
    root: str | Path,
    conventions: WorkspaceConventions | None = None,
    skip: str | None = None,
) -> WorkspaceFiles:
    """Walk the tree once and bucket every file; deterministic for a fixed tree.

    ``skip`` is a directory below the root, relative to it, that the walk
    leaves out, such as an output directory inside the workspace.
    """
    conventions = conventions or WorkspaceConventions()
    root_path = Path(root)
    if not root_path.is_dir():
        raise WorkspaceError(f"workspace root is not a readable directory: {root}")

    memory: list[str] = []
    skills: list[str] = []
    agent_dirs: list[str] = []
    main_sessions: list[str] = []
    agent_sessions: list[str] = []
    artifacts: list[str] = []

    try:
        entries = sorted(os.listdir(root_path))
    except OSError as exc:
        raise WorkspaceError(f"cannot list workspace root {root}: {exc}") from exc

    agents_root = root_path / conventions.agent_root
    if agents_root.is_dir():
        agent_dirs = sorted(
            f"{conventions.agent_root}/{name}"
            for name in os.listdir(agents_root)
            if (agents_root / name).is_dir()
        )

    skipped = os.path.join(root_path, skip) if skip else None
    # os.walk joins each directory onto the root as given, so the part of a
    # path below the root starts at one fixed offset
    cut = len(os.path.join(root_path, ""))
    for dirpath, dirnames, filenames in os.walk(root_path):
        dirnames.sort()
        if skipped is not None:
            dirnames[:] = [d for d in dirnames if os.path.join(dirpath, d) != skipped]
        prefix = dirpath[cut:].replace(os.sep, "/")
        prefix = prefix + "/" if prefix else ""
        for filename in sorted(filenames):
            rel = prefix + filename
            parts = rel.split("/")
            top = parts[0]
            if top in conventions.memory_dirs or filename in conventions.memory_basenames:
                memory.append(rel)
            elif top in conventions.skill_dirs:
                skills.append(rel)
            elif top in conventions.session_dirs:
                main_sessions.append(rel)
            elif top == conventions.agent_root:
                if len(parts) > 2 and parts[2] in conventions.session_dirs:
                    agent_sessions.append(rel)
                # other agent-internal files are runtime state, not artifacts
            else:
                artifacts.append(rel)

    return WorkspaceFiles(
        memory=tuple(sorted(memory)),
        skills=tuple(sorted(skills)),
        agent_dirs=tuple(agent_dirs),
        main_sessions=tuple(sorted(main_sessions)),
        agent_sessions=tuple(sorted(agent_sessions)),
        artifacts=tuple(sorted(artifacts)),
    )


def scan_and_parse(
    root: str | Path,
    rules: ClassificationRules | None = None,
    conventions: WorkspaceConventions | None = None,
    aliases: FieldAliases | None = None,
    skip: str | None = None,
    cache_path: Path | None = None,
    exclude_generated: bool = False,
) -> tuple[WorkspaceInventory, list[Event]]:
    """Scan a workspace and read every session file once.

    Files are read in sorted path order, main and agent sessions together,
    so the events come back in canonical order (path, then line number).
    ``skip`` is passed to ``discover_workspace``. With ``exclude_generated``,
    artifacts that ``rules.is_generated`` names (build outputs, lock files)
    are dropped before surface counting. With a ``cache_path``, a
    file whose bytes the previous run's cache there holds is not parsed
    again (see ``ParseCache``); the results are the same either way.
    """
    rules = rules or ClassificationRules()
    conventions = conventions or WorkspaceConventions()
    aliases = aliases or FieldAliases()
    files = discover_workspace(root, conventions, skip)
    root_path = Path(root)
    scopes: dict[str, AgentScope] = dict.fromkeys(files.main_sessions, "main")
    scopes.update(dict.fromkeys(files.agent_sessions, "other_agent"))

    warnings: list[str] = []
    events: list[Event] = []
    recoverable: dict[AgentScope, int] = {"main": 0, "other_agent": 0}
    with ParseCache(cache_path, aliases) as cache:
        for rel in sorted(scopes):
            try:
                with open(root_path / rel, "rb") as handle:
                    data = handle.read()
            except OSError:
                warnings.append(f"unreadable or truncated session file: {rel}")
                continue
            parsed, stats = cache.parse(rel, data, scopes[rel])
            recoverable[scopes[rel]] += 1 if stats.recoverable else 0
            events.extend(parsed)

    artifacts = files.artifacts
    if exclude_generated:
        artifacts = [path for path in artifacts if not rules.is_generated(path)]
    inventory = WorkspaceInventory(
        memory_files=len(files.memory),
        agent_dirs=len(files.agent_dirs),
        skill_files=len(files.skills),
        session_files_main=len(files.main_sessions),
        recoverable_main=recoverable["main"],
        session_files_all=len(files.main_sessions) + len(files.agent_sessions),
        recoverable_all=recoverable["main"] + recoverable["other_agent"],
        surfaces=surface_counts(artifacts, rules),
        memory_paths=files.memory,
        main_session_paths=files.main_sessions,
        agent_session_paths=files.agent_sessions,
        warnings=tuple(warnings),
    )
    return inventory, events
