"""Deterministic synthetic workspaces with generator-side ground truth.

The generator writes session, trajectory, memory, skill, agent, and artifact
files that the scanner can ingest, and records every expected metric during
generation, before any parsing, so the corpus doubles as an end-to-end
oracle. Randomness comes from an embedded SplitMix64 stream, never from
platform RNGs, so a (spec, seed) pair yields a byte-identical tree anywhere.
"""

from __future__ import annotations

import json
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

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high]."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return low + self.next_u64() % (high - low + 1)


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

    def validate(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.session_files_per_day < 1:
            raise ValueError("session_files_per_day must be >= 1")
        for name in ("duplication_rate", "junk_rate", "untimed_rate", "skip_day_rate",
                     "explicit_id_rate", "decoy_completion_rate", "junk_only_file_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 <= self.cache_dominance_target < 1.0:
            raise ValueError("cache_dominance_target must be in [0, 1)")
        lo, hi = self.events_per_day
        if lo < 1 or hi < lo:
            raise ValueError(f"events_per_day range invalid: {self.events_per_day}")
        lo, hi = self.completions_per_day
        if lo < 0 or hi < lo:
            raise ValueError(f"completions_per_day range invalid: {self.completions_per_day}")
        if not self.caps:
            raise ValueError("caps must not be empty")
        unknown = set(self.planted_governance) - set(_GOVERNANCE_TEMPLATES)
        if unknown:
            raise ValueError(f"unknown governance classes: {sorted(unknown)}")


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


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class _Writer:
    """Collects lines per relative path, then writes everything in one pass."""

    def __init__(self) -> None:
        self.lines: dict[str, list[str]] = {}

    def append(self, relpath: str, line: str) -> None:
        self.lines.setdefault(relpath, []).append(line)

    def write_all(self, root: Path) -> None:
        for relpath in sorted(self.lines):
            full = root / relpath
            full.parent.mkdir(parents=True, exist_ok=True)
            full.write_text("\n".join(self.lines[relpath]) + "\n", encoding="utf-8")


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> GroundTruth:
    """Write a synthetic workspace under ``out_dir/workspace`` plus its ground truth.

    The ground-truth file lands at ``out_dir/ground_truth.json`` so it never
    pollutes the scanned tree.
    """
    spec.validate()
    rng = SplitMix64(spec.seed)
    out_path = Path(out_dir)
    workspace = out_path / "workspace"
    workspace.mkdir(parents=True, exist_ok=True)
    writer = _Writer()

    window_start = spec.start_date
    window_end = spec.start_date + timedelta(days=spec.days - 1)

    counter = 0
    junk_counter = 0
    decoy_counter = 0
    role_counts = {
        "user": 0,
        "assistant": 0,
        "tool_result": 0,
        "tool_call": 0,
        "model_completed": 0,
        "other": 0,
    }
    drc = 0
    timed_ts_ms: set[int] = set()
    active_dates: set[date] = set()
    token_totals = {"input": 0, "output": 0, "cache_read": 0, "cache_write": 0}
    route_totals: dict[str, dict[str, int]] = {}
    completions_strict = 0
    completion_ts_used: set[int] = set()
    recoverable_files: set[str] = set()
    dated_sections = 0

    def maybe_junk(relpath: str) -> None:
        nonlocal junk_counter
        while rng.random() < spec.junk_rate:
            junk_counter += 1
            kind = rng.randint(0, 2)
            if kind == 0:
                # any proper prefix of a serialized object is invalid JSON
                sample = _dump({"role": "assistant", "content": f"cut {junk_counter}"})
                cut = rng.randint(1, len(sample) - 1)
                writer.append(relpath, sample[:cut])
            elif kind == 1:
                template = _JUNK_TEXT[rng.randint(0, len(_JUNK_TEXT) - 1)]
                writer.append(relpath, template.format(n=junk_counter))
            else:
                # valid JSON with no recognized field still counts as junk
                writer.append(relpath, _dump({"blob": junk_counter, "noise": True}))

    def emit_session_event(day: date, relpath: str) -> None:
        nonlocal counter, drc
        counter += 1
        roll = rng.random()
        if roll < 0.20:
            role = "user"
        elif roll < 0.55:
            role = "assistant"
        elif roll < 0.80:
            role = "tool_result"
        elif roll < 0.90:
            role = "tool_call"
        else:
            role = "other"
        content = f"log entry {counter:06d}"
        event_id = f"evt-{counter:06d}" if rng.random() < spec.explicit_id_rate else None
        untimed = rng.random() < spec.untimed_rate
        ts_seconds = None
        if not untimed:
            day_start = int(
                datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()
            )
            ts_seconds = day_start + rng.randint(0, 86_399)
            timed_ts_ms.add(ts_seconds * 1000)
            active_dates.add(day)

        style = rng.randint(0, 2)
        record: dict = {}
        raw_role = role if role != "other" else "system"
        if style == 0:
            record["role"] = raw_role
            if ts_seconds is not None:
                record["timestamp"] = _iso_z(ts_seconds)
            record["content"] = content
        elif style == 1:
            record["type"] = raw_role
            if ts_seconds is not None:
                record["ts"] = ts_seconds * 1000
            record["text"] = content
        else:
            record["role"] = raw_role
            if ts_seconds is not None:
                record["created_at"] = ts_seconds
            record["body"] = content
        if event_id is not None:
            record["id"] = event_id
        if role in ("tool_call", "tool_result"):
            record["tool_name"] = _TOOLS[rng.randint(0, len(_TOOLS) - 1)]

        maybe_junk(relpath)
        line = _dump(record)
        writer.append(relpath, line)
        recoverable_files.add(relpath)
        role_counts[role] += 1
        drc += 1

        if rng.random() < spec.duplication_rate:
            overlap = f"sessions/{day.isoformat()}-overlap.jsonl"
            if event_id is not None:
                # alternate alias spelling; the explicit id still wins
                copy = {"id": event_id, "type": raw_role, "text": content}
                if ts_seconds is not None:
                    copy["ts"] = ts_seconds * 1000
                if "tool_name" in record:
                    copy["tool_name"] = record["tool_name"]
                writer.append(overlap, _dump(copy))
            else:
                writer.append(overlap, line)
            recoverable_files.add(overlap)

    def emit_completion(day: date, relpath: str) -> None:
        nonlocal drc, completions_strict
        day_start = int(
            datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp()
        )
        while True:
            ts_seconds = day_start + rng.randint(0, 86_399)
            if ts_seconds not in completion_ts_used:
                completion_ts_used.add(ts_seconds)
                break
        timed_ts_ms.add(ts_seconds * 1000)
        active_dates.add(day)
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
        writer.append(relpath, line)
        recoverable_files.add(relpath)
        role_counts["model_completed"] += 1
        drc += 1
        completions_strict += 1
        for key, value in usage.items():
            token_totals[key] += value
        bucket = route_totals.setdefault(
            route, {"input": 0, "output": 0, "cache_read": 0, "cache_write": 0, "completions": 0}
        )
        for key, value in usage.items():
            bucket[key] += value
        bucket["completions"] += 1

        if rng.random() < spec.duplication_rate:
            overlap = f"trajectories/{day.isoformat()}-overlap.jsonl"
            writer.append(overlap, line)
            recoverable_files.add(overlap)

    def emit_decoy(day: date, relpath: str) -> None:
        # untimed model-completed record outside the trajectory subset; its
        # tokens must never reach the strict token sums
        nonlocal drc, decoy_counter
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
        writer.append(relpath, line)
        recoverable_files.add(relpath)
        role_counts["model_completed"] += 1
        drc += 1
        if rng.random() < spec.duplication_rate:
            writer.append(relpath, line)

    # ----- main per-day generation -----
    all_days = [window_start + timedelta(days=i) for i in range(spec.days)]
    memory_day_lines: dict[date, list[str]] = {}

    for index, day in enumerate(all_days):
        if index > 0 and rng.random() < spec.skip_day_rate:
            continue
        day_files = [
            f"sessions/{day.isoformat()}-{k:02d}.jsonl"
            for k in range(spec.session_files_per_day)
        ]
        n_events = rng.randint(*spec.events_per_day)
        for _ in range(n_events):
            emit_session_event(day, day_files[rng.randint(0, len(day_files) - 1)])

        n_completions = rng.randint(*spec.completions_per_day)
        if n_completions > 0:
            trajectory = f"trajectories/{day.isoformat()}.jsonl"
            for _ in range(n_completions):
                emit_completion(day, trajectory)

        if rng.random() < spec.decoy_completion_rate:
            emit_decoy(day, day_files[0])

        if rng.random() < spec.junk_only_file_rate:
            detached = f"sessions/{day.isoformat()}-detached.log"
            junk_counter += 1
            writer.append(detached, _JUNK_TEXT[0])
            writer.append(detached, _JUNK_TEXT[2].format(n=junk_counter))

        memory_day_lines[day] = [f"## {day.isoformat()} log"]
        fillers = rng.randint(1, 3)
        for _ in range(fillers):
            memory_day_lines[day].append(
                _FILLER_SENTENCES[rng.randint(0, len(_FILLER_SENTENCES) - 1)]
            )
        dated_sections += 1

    memory_days = sorted(memory_day_lines)

    # ----- planted proxies, one section each so counts stay exact -----
    output_planted = 0
    if memory_days:
        for n in range(spec.planted_output_sentences):
            day = memory_days[rng.randint(0, len(memory_days) - 1)]
            template = _OUTPUT_TEMPLATES[n % len(_OUTPUT_TEMPLATES)]
            memory_day_lines[day].append(f"## {day.isoformat()} entry-out-{n:03d}")
            memory_day_lines[day].append(template.format(n=n))
            dated_sections += 1
            output_planted += 1

        governance_planted: dict[str, int] = {}
        for class_name in sorted(spec.planted_governance):
            count = spec.planted_governance[class_name]
            for n in range(count):
                day = memory_days[rng.randint(0, len(memory_days) - 1)]
                memory_day_lines[day].append(
                    f"## {day.isoformat()} entry-gov-{class_name}-{n:03d}"
                )
                memory_day_lines[day].append(
                    _GOVERNANCE_TEMPLATES[class_name].format(n=n)
                )
                dated_sections += 1
                governance_planted[class_name] = governance_planted.get(class_name, 0) + 1

        # exclusion bait must extract to nothing
        bait_day = memory_days[0]
        memory_day_lines[bait_day].append(f"## {bait_day.isoformat()} entry-bait")
        memory_day_lines[bait_day].append(_EXCLUSION_BAIT)
        dated_sections += 1
    else:
        governance_planted = {}

    for day in memory_days:
        writer.append(f"memory/{day.isoformat()}.md", "\n".join(memory_day_lines[day]))

    writer.append("memory/MEMORY.md", "# workspace index\n\nundated notes live here\n")
    memory_file_count = len(memory_days) + 1

    # ----- skills, agents, artifact surfaces -----
    for i in range(spec.skill_count):
        writer.append(f"skills/skill-{i:02d}/SKILL.md", f"# skill {i}\n\nreusable procedure {i}\n")

    agent_session_files: set[str] = set()
    for i in range(spec.agent_count):
        writer.append(f"agents/agent-{i}/agent.json", _dump({"name": f"agent-{i}"}))
        for day in memory_days[: max(1, len(memory_days) // 2)]:
            relpath = f"agents/agent-{i}/sessions/{day.isoformat()}.jsonl"
            agent_session_files.add(relpath)
            for k in range(spec.agent_events_per_day):
                writer.append(
                    relpath,
                    _dump(
                        {
                            "id": f"agent-{i}-evt-{day.isoformat()}-{k}",
                            "role": "assistant",
                            "content": f"agent {i} entry {k}",
                        }
                    ),
                )

    surface_counts: dict[str, int] = {}
    for root in sorted(spec.surface_tree):
        count = spec.surface_tree[root]
        surface = SURFACE_BY_ROOT.get(root, "unclassified")
        for i in range(count):
            writer.append(f"{root}/item-{i:03d}.md", f"placeholder {root} {i}\n")
        if count > 0:
            surface_counts[surface] = surface_counts.get(surface, 0) + count

    writer.write_all(workspace)

    # session-file counts come from files actually written, so a day file
    # that drew zero events never inflates the inventory
    written_main = [
        path
        for path in writer.lines
        if path.split("/", 1)[0] in ("sessions", "trajectories")
    ]
    recoverable_main = sum(1 for path in written_main if path in recoverable_files)

    unique_ts = sorted(timed_ts_ms)
    ground_truth = GroundTruth(
        window_start=window_start,
        window_end=window_end,
        drc=drc,
        active_days=len(active_dates),
        dated_sections=dated_sections,
        role_counts=role_counts,
        ate_hours_by_cap={cap: _capped_hours(unique_ts, cap) for cap in spec.caps},
        token_totals=token_totals,
        route_totals=route_totals,
        completions_strict=completions_strict,
        output_proxies=output_planted,
        governance_by_class=governance_planted,
        surface_counts=surface_counts,
        memory_files=memory_file_count,
        agent_dirs=spec.agent_count,
        skill_files=spec.skill_count,
        session_files_main=len(written_main),
        recoverable_main=recoverable_main,
        session_files_all=len(written_main) + len(agent_session_files),
        recoverable_all=recoverable_main + len(agent_session_files),
    )

    (out_path / "ground_truth.json").write_text(
        json.dumps(to_json(ground_truth), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return ground_truth
