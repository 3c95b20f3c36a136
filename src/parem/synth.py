"""Deterministic synthetic workspaces with generator-side ground truth.

The generator writes session, trajectory, memory, skill, agent, and artifact
files that the scanner can ingest, and records every expected metric during
generation, before any parsing, so the corpus doubles as an end-to-end
oracle. Randomness comes from an embedded SplitMix64 stream, never from
platform RNGs, so a (spec, seed) pair yields a byte-identical tree anywhere.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping

from .jsonfmt import to_json

_MASK64 = (1 << 64) - 1

DEFAULT_CAPS: tuple[int, ...] = (15, 30, 45, 60, 90)

# Mirrors the default surface classification roots; kept as a literal so the
# generator's bookkeeping stays independent of the classifier implementation.
SURFACE_BY_ROOT: dict[str, str] = {
    "manuscripts": "manuscripts",
    "teaching-artifacts": "teaching",
    "linkedin": "content",
    "content": "content",
    "revenue-tools": "revenue-tools",
    "scripts": "scripts",
    "ops": "ops",
    "aqrab-website/src": "aqrab-website",
    "aqrab-calibration-study/research": "calibration-research",
    "aqrab-calibration-study/panel-app": "panel-app",
    "target-trial-emulation-benchmark": "target-trial-benchmark",
}

DEFAULT_SURFACE_TREE: dict[str, int] = {
    "manuscripts": 4,
    "teaching-artifacts": 6,
    "linkedin": 3,
    "scripts": 3,
    "ops": 2,
    "aqrab-website/src": 5,
    "aqrab-calibration-study/research": 2,
    "aqrab-calibration-study/panel-app": 3,
    "target-trial-emulation-benchmark": 4,
    "revenue-tools": 2,
}

DEFAULT_GOVERNANCE_PLANTS: dict[str, int] = {
    "verification": 8,
    "correction": 6,
    "protocol": 5,
    "safety": 3,
    "failure": 4,
}

_ROUTES: tuple[str, ...] = ("route-a", "route-b", "route-c")
_TOKEN_KINDS: tuple[str, ...] = ("input", "output", "cache_read", "cache_write")

# A session record's role: a uniform draw falls below the first edge for a
# user record, below the second for an assistant record, and so on.
_SESSION_ROLES: tuple[str, ...] = ("user", "assistant", "tool_result", "tool_call", "other")
_ROLE_EDGES: tuple[float, ...] = (0.20, 0.55, 0.80, 0.90)

_TOOLS: tuple[str, ...] = ("shell", "search", "editor")

_FILLER_SENTENCES: tuple[str, ...] = (
    "Morning review of the calendar.",
    "Quiet stretch in the reading room.",
    "Team sync ran long today.",
    "Backlog triage before lunch.",
    "Afternoon spent on literature notes.",
    "Email catch-up and planning.",
)

# Each template matches exactly one output keyword family and no governance
# family, so planted counts stay exact on both extraction passes.
_OUTPUT_TEMPLATES: tuple[str, ...] = (
    "Drafted the field summary {n}.",
    "Rendered the atlas figure {n}.",
    "Merged the ingestion cleanup {n}.",
    "Published the cohort notes {n}.",
    "Generated the teaching handout {n}.",
)

# Each template matches exactly one governance class family and no output
# family.
_GOVERNANCE_TEMPLATES: dict[str, str] = {
    "verification": "Checked the citation list for entry {n}.",
    "correction": "Corrected the default threshold in entry {n}.",
    "protocol": "Added a new review checklist for case {n}.",
    "safety": "Rotated the leaked credential for service {n}.",
    "failure": "The nightly export failed with a duplicate send for job {n}.",
}

_EXCLUSION_BAIT = "Auto-generated build artifacts were refreshed overnight."

_JUNK_TEXT: tuple[str, ...] = (
    "#### partial write interrupted ####",
    "corrupted segment 0x{n:08x} ...",
    "lost+found fragment {n}",
    # control characters model binary noise; none of them are line breaks
    "\x00\x01\x02 garbled block \x7f{n}\x00",
)


class SplitMix64:
    """Published 64-bit mixing generator; deterministic on every platform."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    # ``random`` and ``randint`` run the mix of ``next_u64`` inline, which
    # saves a method call on each of a corpus's hundreds of thousands of draws

    def random(self) -> float:
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        # exact: a 53-bit integer scaled by a power of two
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        self.state = z = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return low + (z ^ (z >> 31)) % (high - low + 1)


@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 1
    days: int = 20
    start_date: date = date(2024, 1, 1)
    events_per_day: tuple[int, int] = (10, 40)
    session_files_per_day: int = 2
    completions_per_day: tuple[int, int] = (1, 6)
    duplication_rate: float = 0.1
    junk_rate: float = 0.1
    untimed_rate: float = 0.05
    skip_day_rate: float = 0.15
    explicit_id_rate: float = 0.5
    decoy_completion_rate: float = 0.15
    junk_only_file_rate: float = 0.1
    input_token_mean: int = 2_000
    output_token_mean: int = 400
    cache_write_token_mean: int = 300
    cache_dominance_target: float = 0.8
    planted_output_sentences: int = 25
    planted_governance: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_GOVERNANCE_PLANTS)
    )
    surface_tree: Mapping[str, int] = field(
        default_factory=lambda: dict(DEFAULT_SURFACE_TREE)
    )
    agent_count: int = 2
    agent_events_per_day: int = 4
    skill_count: int = 3
    caps: tuple[int, ...] = DEFAULT_CAPS

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.session_files_per_day < 1:
            raise ValueError("session_files_per_day must be >= 1")
        for name in ("duplication_rate", "junk_rate", "untimed_rate", "skip_day_rate",
                     "explicit_id_rate", "decoy_completion_rate", "junk_only_file_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        # junk is drawn while a draw falls below the rate, so at 1 it never stops
        if not self.junk_rate < 1.0:
            raise ValueError(f"junk_rate must be below 1, got {self.junk_rate}")
        counts = {
            name: getattr(self, name)
            for name in ("input_token_mean", "output_token_mean", "cache_write_token_mean",
                         "planted_output_sentences", "agent_count", "agent_events_per_day",
                         "skill_count")
        }
        counts.update((f"planted_governance[{k!r}]", v) for k, v in self.planted_governance.items())
        counts.update((f"surface_tree[{k!r}]", v) for k, v in self.surface_tree.items())
        for name, value in counts.items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0.0 <= self.cache_dominance_target < 1.0:
            raise ValueError("cache_dominance_target must be in [0, 1)")
        lo, hi = self.events_per_day
        if lo < 1 or hi < lo:
            raise ValueError(f"events_per_day range invalid: {self.events_per_day}")
        # each completion of a day takes a second of its own
        lo, hi = self.completions_per_day
        if lo < 0 or hi < lo or hi > 86_400:
            raise ValueError(f"completions_per_day range invalid: {self.completions_per_day}")
        if not self.caps:
            raise ValueError("caps must not be empty")
        unknown = set(self.planted_governance) - set(_GOVERNANCE_TEMPLATES)
        if unknown:
            raise ValueError(f"unknown governance classes: {sorted(unknown)}")
        # a key is joined below the workspace, which it must not leave
        for root in self.surface_tree:
            if any(part in ("", ".", "..") for part in root.split("/")):
                raise ValueError(
                    "surface_tree keys must be relative POSIX paths with no empty, "
                    f"'.' or '..' part, got {root!r}"
                )


@dataclass(frozen=True)
class GroundTruth:
    """Expected analyzer output, computed while generating the corpus."""

    window_start: date
    window_end: date
    drc: int
    active_days: int
    dated_sections: int
    role_counts: dict[str, int]
    ate_hours_by_cap: dict[int, float]
    token_totals: dict[str, int]
    route_totals: dict[str, dict[str, int]]
    completions_strict: int
    output_proxies: int
    governance_by_class: dict[str, int]
    surface_counts: dict[str, int]
    memory_files: int
    agent_dirs: int
    skill_files: int
    session_files_main: int
    recoverable_main: int
    session_files_all: int
    recoverable_all: int

    # properties written beside the fields (see ``jsonfmt.to_json``)
    DERIVED_KEYS = ("cdr",)

    @property
    def cdr(self) -> float | None:
        total = sum(self.token_totals.values())
        return self.token_totals["cache_read"] / total if total else None


def _iso_z(ts_seconds: int) -> str:
    return datetime.fromtimestamp(ts_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def _capped_hours(unique_ts_ms: list[int], cap_minutes: int) -> float:
    cap_ms = cap_minutes * 60_000
    total = 0
    for previous, current in zip(unique_ts_ms, unique_ts_ms[1:]):
        gap = current - previous
        total += gap if gap < cap_ms else cap_ms
    return total / 3_600_000.0


# one encoder for every line: ``json.dumps`` with keywords builds a new one per call
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# The spellings of a session record, each one the aliases recognize: its
# (role key, timestamp key, timestamp from epoch seconds, content key). A
# duplicate of a record with an explicit id is copied in the second.
_SPELLINGS: tuple[tuple, ...] = (
    ("role", "timestamp", _iso_z, "content"),
    ("type", "ts", lambda seconds: seconds * 1000, "text"),
    ("role", "created_at", lambda seconds: seconds, "body"),
)


def _session_line(
    spelling: int, role: str, content: str, ts_seconds: int | None, extra: dict
) -> str:
    role_key, ts_key, ts_form, content_key = _SPELLINGS[spelling]
    record = {role_key: role, content_key: content, **extra}
    if ts_seconds is not None:
        record[ts_key] = ts_form(ts_seconds)
    return _dump(record)


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> GroundTruth:
    """Write a synthetic workspace under ``out_dir/workspace`` plus its ground truth.

    The ground-truth file lands at ``out_dir/ground_truth.json`` so it never
    pollutes the scanned tree.
    """
    rng = SplitMix64(spec.seed)
    out_path = Path(out_dir)
    # each file's lines, by its path in the workspace; written in one pass at the end
    files: dict[str, list[str]] = defaultdict(list)

    window_start = spec.start_date
    window_end = spec.start_date + timedelta(days=spec.days - 1)

    counter = 0
    junk_counter = 0
    decoy_counter = 0
    # one tally per fact; DRC, the strict completions, the token totals and
    # the active days are read off these
    role_counts = dict.fromkeys(
        ("user", "assistant", "tool_result", "tool_call", "model_completed", "other"), 0
    )
    timed_ts_ms: set[int] = set()
    route_totals: dict[str, dict[str, int]] = {}
    completion_ts_used: set[int] = set()
    # main session files that hold a record
    recoverable_files: set[str] = set()

    def maybe_junk(relpath: str) -> None:
        nonlocal junk_counter
        while rng.random() < spec.junk_rate:
            junk_counter += 1
            kind = rng.randint(0, 2)
            if kind == 0:
                # any proper prefix of a serialized object is invalid JSON
                sample = _dump({"role": "assistant", "content": f"cut {junk_counter}"})
                cut = rng.randint(1, len(sample) - 1)
                files[relpath].append(sample[:cut])
            elif kind == 1:
                template = _JUNK_TEXT[rng.randint(0, len(_JUNK_TEXT) - 1)]
                files[relpath].append(template.format(n=junk_counter))
            else:
                # valid JSON with no recognized field still counts as junk
                files[relpath].append(_dump({"blob": junk_counter, "noise": True}))

    def emit_session_event(day_start: int, relpath: str, overlap: str) -> None:
        nonlocal counter
        counter += 1
        role = _SESSION_ROLES[bisect_right(_ROLE_EDGES, rng.random())]
        raw_role = role if role != "other" else "system"
        content = f"log entry {counter:06d}"
        event_id = f"evt-{counter:06d}" if rng.random() < spec.explicit_id_rate else None
        untimed = rng.random() < spec.untimed_rate
        ts_seconds = None if untimed else day_start + rng.randint(0, 86_399)
        if ts_seconds is not None:
            timed_ts_ms.add(ts_seconds * 1000)
        spelling = rng.randint(0, len(_SPELLINGS) - 1)
        extra = {} if event_id is None else {"id": event_id}
        if role in ("tool_call", "tool_result"):
            extra["tool_name"] = _TOOLS[rng.randint(0, len(_TOOLS) - 1)]

        maybe_junk(relpath)
        line = _session_line(spelling, raw_role, content, ts_seconds, extra)
        files[relpath].append(line)
        recoverable_files.add(relpath)
        role_counts[role] += 1

        if rng.random() < spec.duplication_rate:
            if event_id is not None:
                # the alias spelling; the explicit id still wins
                line = _session_line(1, raw_role, content, ts_seconds, extra)
            files[overlap].append(line)
            recoverable_files.add(overlap)

    def emit_completion(day_start: int, relpath: str, overlap: str) -> None:
        while True:
            ts_seconds = day_start + rng.randint(0, 86_399)
            if ts_seconds not in completion_ts_used:
                completion_ts_used.add(ts_seconds)
                break
        timed_ts_ms.add(ts_seconds * 1000)
        route = _ROUTES[rng.randint(0, len(_ROUTES) - 1)]
        input_tokens = rng.randint(spec.input_token_mean // 2, spec.input_token_mean * 3 // 2)
        output_tokens = rng.randint(spec.output_token_mean // 2, spec.output_token_mean * 3 // 2)
        cache_write = rng.randint(0, spec.cache_write_token_mean * 2)
        base = input_tokens + output_tokens + cache_write
        target = spec.cache_dominance_target
        if target > 0:
            jitter = 0.9 + 0.2 * rng.random()
            cache_read = max(1, round(base * target / (1.0 - target) * jitter))
        else:
            cache_read = 0
        usage = {
            "input": input_tokens,
            "output": output_tokens,
            "cache_read": cache_read,
            "cache_write": cache_write,
        }
        record = {
            "type": "model.completed",
            "ts": ts_seconds * 1000,
            "provider_route": route,
            "model": f"model-{route}",
            "usage": usage,
        }
        maybe_junk(relpath)
        line = _dump(record)
        files[relpath].append(line)
        recoverable_files.add(relpath)
        role_counts["model_completed"] += 1
        bucket = route_totals.setdefault(route, dict.fromkeys((*_TOKEN_KINDS, "completions"), 0))
        for key, value in usage.items():
            bucket[key] += value
        bucket["completions"] += 1

        if rng.random() < spec.duplication_rate:
            files[overlap].append(line)
            recoverable_files.add(overlap)

    def emit_decoy(relpath: str) -> None:
        # untimed model-completed record outside the trajectory subset; its
        # tokens must never reach the strict token sums
        nonlocal decoy_counter
        decoy_counter += 1
        record = {
            "type": "model.completed",
            "provider_route": _ROUTES[rng.randint(0, len(_ROUTES) - 1)],
            "model": "decoy-model",
            "usage": {
                "input": 1_000_000 + decoy_counter,
                "output": 17,
                "cache_read": 5,
                "cache_write": 3,
            },
        }
        line = _dump(record)
        files[relpath].append(line)
        recoverable_files.add(relpath)
        role_counts["model_completed"] += 1
        if rng.random() < spec.duplication_rate:
            files[relpath].append(line)

    # ----- main per-day generation -----
    # ISO dates of the days not skipped; each has a memory file. The first
    # day is never skipped, so there is always one.
    memory_days: list[str] = []

    for index in range(spec.days):
        if index > 0 and rng.random() < spec.skip_day_rate:
            continue
        day = window_start + timedelta(days=index)
        iso = day.isoformat()
        day_start = int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())
        day_files = [f"sessions/{iso}-{k:02d}.jsonl" for k in range(spec.session_files_per_day)]
        overlap = f"sessions/{iso}-overlap.jsonl"
        n_events = rng.randint(*spec.events_per_day)
        for _ in range(n_events):
            emit_session_event(day_start, day_files[rng.randint(0, len(day_files) - 1)], overlap)

        trajectory, overlap = f"trajectories/{iso}.jsonl", f"trajectories/{iso}-overlap.jsonl"
        n_completions = rng.randint(*spec.completions_per_day)
        for _ in range(n_completions):
            emit_completion(day_start, trajectory, overlap)

        if rng.random() < spec.decoy_completion_rate:
            emit_decoy(day_files[0])

        if rng.random() < spec.junk_only_file_rate:
            junk_counter += 1
            files[f"sessions/{iso}-detached.log"] += [
                _JUNK_TEXT[0],
                _JUNK_TEXT[2].format(n=junk_counter),
            ]

        memory_days.append(iso)
        fillers = rng.randint(1, 3)
        files[f"memory/{iso}.md"] = [f"## {iso} log"] + [
            _FILLER_SENTENCES[rng.randint(0, len(_FILLER_SENTENCES) - 1)] for _ in range(fillers)
        ]

    # ----- planted proxies, one section each so counts stay exact -----
    outputs = [
        (f"out-{n:03d}", _OUTPUT_TEMPLATES[n % len(_OUTPUT_TEMPLATES)].format(n=n))
        for n in range(spec.planted_output_sentences)
    ]
    governance_planted = {
        name: count for name, count in sorted(spec.planted_governance.items()) if count > 0
    }
    governance = [
        (f"gov-{name}-{n:03d}", _GOVERNANCE_TEMPLATES[name].format(n=n))
        for name, count in governance_planted.items()
        for n in range(count)
    ]
    for label, sentence in outputs + governance:
        iso = memory_days[rng.randint(0, len(memory_days) - 1)]
        files[f"memory/{iso}.md"] += [f"## {iso} entry-{label}", sentence]
    # exclusion bait must extract to nothing
    files[f"memory/{memory_days[0]}.md"] += [f"## {memory_days[0]} entry-bait", _EXCLUSION_BAIT]

    files["memory/MEMORY.md"].append("# workspace index\n\nundated notes live here\n")

    # ----- skills, agents, artifact surfaces -----
    for i in range(spec.skill_count):
        files[f"skills/skill-{i:02d}/SKILL.md"].append(f"# skill {i}\n\nreusable procedure {i}\n")

    for i in range(spec.agent_count):
        files[f"agents/agent-{i}/agent.json"].append(_dump({"name": f"agent-{i}"}))
        for iso in memory_days[: max(1, len(memory_days) // 2)]:
            for k in range(spec.agent_events_per_day):
                files[f"agents/agent-{i}/sessions/{iso}.jsonl"].append(
                    _dump(
                        {
                            "id": f"agent-{i}-evt-{iso}-{k}",
                            "role": "assistant",
                            "content": f"agent {i} entry {k}",
                        }
                    )
                )

    surface_counts: dict[str, int] = {}
    for root in sorted(spec.surface_tree):
        count = spec.surface_tree[root]
        surface = SURFACE_BY_ROOT.get(root, "unclassified")
        for i in range(count):
            files[f"{root}/item-{i:03d}.md"].append(f"placeholder {root} {i}\n")
        if count > 0:
            surface_counts[surface] = surface_counts.get(surface, 0) + count

    workspace = out_path / "workspace"
    by_directory: dict[str, list[str]] = defaultdict(list)
    for relpath in sorted(files):
        by_directory[relpath.rpartition("/")[0]].append(relpath)
    for directory in by_directory:
        (workspace / directory).mkdir(parents=True, exist_ok=True)

    def write_directory(relpaths: list[str]) -> None:
        # three system calls a file, fewer than write_text's buffered text
        # file makes: each call releases the GIL, which the two threads then
        # contend to take back
        for relpath in relpaths:
            data = memoryview(("\n".join(files[relpath]) + "\n").encode("utf-8"))
            fd = os.open(workspace / relpath, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)

    # creating a file is kernel work done outside the GIL, so two threads
    # overlap it; reading every result raises a worker's error here
    with ThreadPoolExecutor(2) as pool:
        for _ in pool.map(write_directory, by_directory.values()):
            pass

    # session-file counts come from files actually written, so a day file
    # that drew zero events never inflates the inventory; every line of an
    # agent's session file is a record
    session_files_main = sum(
        1 for path in files if path.split("/", 1)[0] in ("sessions", "trajectories")
    )
    agent_sessions = sum(1 for path in files if path.startswith("agents/") and "/sessions/" in path)
    # the directories directly below agents/, as discovery counts them
    agent_dirs = {
        path.split("/")[1] for path in files if path.startswith("agents/") and path.count("/") > 1
    }

    unique_ts = sorted(timed_ts_ms)
    buckets = route_totals.values()
    ground_truth = GroundTruth(
        window_start=window_start,
        window_end=window_end,
        drc=sum(role_counts.values()),
        active_days=len({ts // 86_400_000 for ts in unique_ts}),
        dated_sections=len(memory_days) + len(outputs) + len(governance) + 1,
        role_counts=role_counts,
        ate_hours_by_cap={cap: _capped_hours(unique_ts, cap) for cap in spec.caps},
        token_totals={kind: sum(bucket[kind] for bucket in buckets) for kind in _TOKEN_KINDS},
        route_totals=route_totals,
        completions_strict=sum(bucket["completions"] for bucket in buckets),
        output_proxies=len(outputs),
        governance_by_class=governance_planted,
        surface_counts=surface_counts,
        memory_files=len(memory_days) + 1,
        agent_dirs=len(agent_dirs),
        skill_files=sum(1 for path in files if path.startswith("skills/")),
        session_files_main=session_files_main,
        recoverable_main=len(recoverable_files),
        session_files_all=session_files_main + agent_sessions,
        recoverable_all=len(recoverable_files) + agent_sessions,
    )

    (out_path / "ground_truth.json").write_text(
        json.dumps(to_json(ground_truth), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return ground_truth
