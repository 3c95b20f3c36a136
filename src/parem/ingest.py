"""Workspace discovery and tolerant parsing of line-oriented session logs.

Session and trajectory files are treated as JSONL-like: any line that parses
as a key/value record with at least one recognized field becomes an event;
everything else is counted and skipped. A file is recoverable when at least
one of its lines parsed.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Any, Literal, Mapping, NamedTuple

from .classify import ClassificationRules, SurfaceCounts, surface_counts

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

_WHITESPACE_RUN = re.compile(r"\s+")
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


@dataclass(frozen=True, slots=True)
class FileParseStats:
    total_lines: int
    parsed_lines: int
    truncated: bool = False

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

    @classmethod
    def from_mapping(cls, data: Mapping) -> "FieldAliases":
        kwargs = {}
        for name in cls.__dataclass_fields__:
            if name in data:
                value = data[name]
                kwargs[name] = str(value) if name == "version" else tuple(value)
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out: dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = value if isinstance(value, str) else list(value)
        return out


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

    @classmethod
    def from_mapping(cls, data: Mapping) -> "WorkspaceConventions":
        kwargs = {}
        for name in cls.__dataclass_fields__:
            if name in data:
                value = data[name]
                kwargs[name] = str(value) if name in ("agent_root", "version") else tuple(value)
        return cls(**kwargs)

    def to_mapping(self) -> dict:
        out: dict[str, Any] = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = value if isinstance(value, str) else list(value)
        return out

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

    def to_mapping(self) -> dict:
        return {
            "memory_files": self.memory_files,
            "agent_dirs": self.agent_dirs,
            "skill_files": self.skill_files,
            "session_files_main": self.session_files_main,
            "recoverable_main": self.recoverable_main,
            "session_files_all": self.session_files_all,
            "recoverable_all": self.recoverable_all,
            "surfaces": self.surfaces.to_mapping(),
            "memory_paths": list(self.memory_paths),
            "main_session_paths": list(self.main_session_paths),
            "agent_session_paths": list(self.agent_session_paths),
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_mapping(cls, data: Mapping) -> "WorkspaceInventory":
        return cls(
            memory_files=int(data["memory_files"]),
            agent_dirs=int(data["agent_dirs"]),
            skill_files=int(data["skill_files"]),
            session_files_main=int(data["session_files_main"]),
            recoverable_main=int(data["recoverable_main"]),
            session_files_all=int(data["session_files_all"]),
            recoverable_all=int(data["recoverable_all"]),
            surfaces=SurfaceCounts.from_mapping(data["surfaces"]),
            memory_paths=tuple(data.get("memory_paths", ())),
            main_session_paths=tuple(data.get("main_session_paths", ())),
            agent_session_paths=tuple(data.get("agent_session_paths", ())),
            warnings=tuple(data.get("warnings", ())),
        )


def normalize_timestamp(raw: object) -> int | None:
    """Coerce epoch seconds/milliseconds or ISO-8601 text to UTC milliseconds.

    Zoneless timestamps are read as UTC. Values outside 1970-2100 and
    anything unparseable come back as None, never as an error.
    """
    if raw is None or isinstance(raw, bool):
        return None
    if isinstance(raw, (int, float)):
        return _epoch_to_ms(raw)
    if not isinstance(raw, str):
        return None
    text = raw.strip()
    if not text:
        return None
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
    if value is None:
        return ""
    if isinstance(value, str):
        text = value
    elif isinstance(value, (dict, list)):
        text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    else:
        text = str(value)
    return _WHITESPACE_RUN.sub(" ", text).strip()[:limit]


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
        values = [payload[key] if key is not None else None for key in keys]
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
        role: Role = _ROLE_SYNONYMS.get(kind.strip().lower(), "other") if kind else "other"

        tokens = self.usage(raw_usage)
        if role == "model_completed" and tokens is None:
            tokens = TokenUsage()

        return Event(
            role=role,
            source_path=source_path,
            line_number=line_number,
            agent_scope=agent_scope,
            event_id=str(raw_id) if raw_id is not None else None,
            timestamp_ms=normalize_timestamp(raw_ts),
            event_type=raw_type if isinstance(raw_type, str) else None,
            tool_name=raw_tool if isinstance(raw_tool, str) else None,
            provider_route=raw_route if isinstance(raw_route, str) else None,
            model=raw_model if isinstance(raw_model, str) else None,
            tokens=tokens,
            content_prefix=normalize_content_prefix(raw_content),
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
    path: str | Path,
    aliases: FieldAliases | None = None,
    agent_scope: AgentScope = "main",
    source_path: str | None = None,
) -> tuple[list[Event], FileParseStats]:
    """Parse one JSONL-like file tolerantly, preserving file order.

    Every non-empty line counts toward ``total_lines``. A line that is not a
    JSON object (including one too deeply nested to decode) or carries no
    recognized field is skipped. An I/O failure mid-file keeps the events
    parsed so far and flags the stats as truncated.
    """
    compiled = (aliases or FieldAliases()).compiled
    label = source_path if source_path is not None else str(path)
    events: list[Event] = []
    total = 0
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            for line_number, line in enumerate(handle, start=1):
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
                    event = compiled.parse(payload, label, line_number, agent_scope)
                except RecursionError:  # content nested too deeply to serialize
                    continue
                if event is not None:
                    if "\\u" in text:
                        event = _replace_lone_surrogates(event)
                    events.append(event)
    except (OSError, UnicodeError):
        return events, FileParseStats(total, len(events), truncated=True)
    return events, FileParseStats(total, len(events))


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
    root: str | Path, conventions: WorkspaceConventions | None = None
) -> WorkspaceFiles:
    """Walk the tree once and bucket every file; deterministic for a fixed tree."""
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

    for dirpath, dirnames, filenames in os.walk(root_path):
        dirnames.sort()
        for filename in sorted(filenames):
            full = Path(dirpath) / filename
            rel = full.relative_to(root_path).as_posix()
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
) -> tuple[WorkspaceInventory, list[Event]]:
    """Scan a workspace and parse every session file once.

    Events come back in canonical order (path, then line number) regardless
    of discovery order, so downstream output is schedule-independent.
    """
    rules = rules or ClassificationRules()
    conventions = conventions or WorkspaceConventions()
    aliases = aliases or FieldAliases()
    files = discover_workspace(root, conventions)
    root_path = Path(root)

    warnings: list[str] = []
    events: list[Event] = []
    recoverable_main = 0
    recoverable_agents = 0

    for rel in files.main_sessions:
        parsed, stats = parse_session_file(
            root_path / rel, aliases, agent_scope="main", source_path=rel
        )
        if stats.truncated:
            warnings.append(f"unreadable or truncated session file: {rel}")
        recoverable_main += 1 if stats.recoverable else 0
        events.extend(parsed)

    for rel in files.agent_sessions:
        parsed, stats = parse_session_file(
            root_path / rel, aliases, agent_scope="other_agent", source_path=rel
        )
        if stats.truncated:
            warnings.append(f"unreadable or truncated session file: {rel}")
        recoverable_agents += 1 if stats.recoverable else 0
        events.extend(parsed)

    events.sort(key=lambda e: (e.source_path, e.line_number))
    inventory = WorkspaceInventory(
        memory_files=len(files.memory),
        agent_dirs=len(files.agent_dirs),
        skill_files=len(files.skills),
        session_files_main=len(files.main_sessions),
        recoverable_main=recoverable_main,
        session_files_all=len(files.main_sessions) + len(files.agent_sessions),
        recoverable_all=recoverable_main + recoverable_agents,
        surfaces=surface_counts(files.artifacts, rules),
        memory_paths=files.memory,
        main_session_paths=files.main_sessions,
        agent_session_paths=files.agent_sessions,
        warnings=tuple(warnings),
    )
    return inventory, events


def scan_workspace(
    root: str | Path,
    rules: ClassificationRules | None = None,
    conventions: WorkspaceConventions | None = None,
    aliases: FieldAliases | None = None,
) -> WorkspaceInventory:
    """Inventory a workspace: memory/agent/skill/session counts plus surfaces."""
    inventory, _ = scan_and_parse(root, rules, conventions, aliases)
    return inventory
