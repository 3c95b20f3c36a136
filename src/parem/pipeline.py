"""End-to-end analysis pipeline and its serializable run configuration.

A run is reproducible from the RunConfig plus the workspace bytes: no wall
clock, host name, or scheduling detail reaches the outputs, so re-running
the same configuration yields byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from datetime import date
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .activetime import (
    DEFAULT_CAP_MINUTES,
    DEFAULT_CAPS,
    DEFAULT_CLIP_MINUTES,
    SENSITIVITY_CAP_MINUTES,
    cap_sensitivity,
    gap_histogram,
)
from .classify import ClassificationRules
from .dedup import deduplicate, exclude_untimed_for_time_analysis, ledger_rows
from .extraction import (
    DEFAULT_GOVERNANCE_RULES,
    DEFAULT_HEADING_PATTERN,
    DEFAULT_OUTPUT_RULES,
    DatedSection,
    KeywordRuleSet,
    ProxyEvent,
    compile_heading_pattern,
    extract_governance_events,
    extract_output_proxies,
    parse_memory_sections,
)
from .ingest import (
    Event,
    FieldAliases,
    WorkspaceConventions,
    WorkspaceInventory,
    scan_and_parse,
)
from .metrics import ObservationWindow, compute_pare_m, utc_date, window_timestamps
from .report import (
    EVENTS_TOKENS_CSV,
    Provenance,
    ReportBundle,
    TokenEventRow,
    export_csvs,
    render_report,
)
from .tokens import (
    aggregate_tokens,
    cache_output_association,
    daily_composition,
    per_route,
)

DEFAULT_GAP_BIN_MINUTES = 15

REPORT_TEXT = "reports/report.txt"
REPORT_JSON = "reports/report.json"
DEDUP_LEDGER_CSV = "reports/dedup-ledger.csv"
PARSE_CACHE = "cache/parse.jsonl"


@dataclass(frozen=True)
class RunConfig:
    root: str
    out_dir: str = "parem-out"
    window: ObservationWindow | None = None
    caps: tuple[int, ...] = DEFAULT_CAPS
    primary_cap: int = DEFAULT_CAP_MINUTES
    sensitivity_cap: int = SENSITIVITY_CAP_MINUTES
    gap_bin_minutes: int = DEFAULT_GAP_BIN_MINUTES
    gap_clip_minutes: int = DEFAULT_CLIP_MINUTES
    scope: str = "main"  # main | all-agent
    granularity: str = "section"  # section | sentence
    repeat_horizon_days: int = 7
    exclude_generated: bool = False
    log1p: bool = False
    dedup_ledger: bool = False
    heading_pattern: str = DEFAULT_HEADING_PATTERN
    classification: ClassificationRules = field(default_factory=ClassificationRules)
    output_rules: KeywordRuleSet = DEFAULT_OUTPUT_RULES
    governance_rules: KeywordRuleSet = DEFAULT_GOVERNANCE_RULES
    aliases: FieldAliases = field(default_factory=FieldAliases)
    conventions: WorkspaceConventions = field(default_factory=WorkspaceConventions)

    def __post_init__(self) -> None:
        if self.scope not in ("main", "all-agent"):
            raise ValueError(f"scope must be 'main' or 'all-agent', got {self.scope!r}")
        if self.granularity not in ("section", "sentence"):
            raise ValueError(
                f"granularity must be 'section' or 'sentence', got {self.granularity!r}"
            )
        if not self.caps:
            raise ValueError("caps must not be empty")
        compile_heading_pattern(self.heading_pattern)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "RunConfig":
        kwargs: dict = {}
        scalars = (
            "root",
            "out_dir",
            "primary_cap",
            "sensitivity_cap",
            "gap_bin_minutes",
            "gap_clip_minutes",
            "scope",
            "granularity",
            "repeat_horizon_days",
            "exclude_generated",
            "log1p",
            "dedup_ledger",
            "heading_pattern",
        )
        for name in scalars:
            if name in data:
                kwargs[name] = data[name]
        if "caps" in data:
            kwargs["caps"] = tuple(int(c) for c in data["caps"])
        if data.get("window"):
            kwargs["window"] = ObservationWindow.from_mapping(data["window"])
        if "classification" in data:
            kwargs["classification"] = ClassificationRules.from_mapping(data["classification"])
        if "output_rules" in data:
            kwargs["output_rules"] = KeywordRuleSet.from_mapping(data["output_rules"])
        if "governance_rules" in data:
            kwargs["governance_rules"] = KeywordRuleSet.from_mapping(data["governance_rules"])
        if "aliases" in data:
            kwargs["aliases"] = FieldAliases.from_mapping(data["aliases"])
        if "conventions" in data:
            kwargs["conventions"] = WorkspaceConventions.from_mapping(data["conventions"])
        return cls(**kwargs)

    def effective_classification(self) -> ClassificationRules:
        if self.exclude_generated == self.classification.exclude_generated:
            return self.classification
        return replace(self.classification, exclude_generated=self.exclude_generated)


def read_workspace(
    config: RunConfig, cache_path: Path | None = None
) -> tuple[WorkspaceInventory, list[Event]]:
    """Scan and parse the workspace as every command does: with the run's
    classification rules, conventions and aliases, leaving out the output
    directory when it lies inside the root, so that a run never reads the
    outputs of the one before."""
    root = Path(config.root).resolve()
    out = Path(config.out_dir).resolve()
    skip = out.relative_to(root).as_posix() if out != root and out.is_relative_to(root) else None
    return scan_and_parse(
        config.root,
        config.effective_classification(),
        config.conventions,
        config.aliases,
        skip=skip,
        cache_path=cache_path,
    )


def derive_window(
    timed_events: list[Event], configured: ObservationWindow | None, warnings: list[str]
) -> ObservationWindow:
    """The configured window, else the UTC date span of the timed events."""
    if configured is not None:
        return configured
    if timed_events:
        stamps = [e.timestamp_ms for e in timed_events]
        window = ObservationWindow(utc_date(min(stamps)), utc_date(max(stamps)))
        warnings.append(
            "observation window defaulted to the event date span "
            f"{window.start_date.isoformat()}..{window.end_date.isoformat()}; "
            "configure a fixed window for comparable reports"
        )
        return window
    warnings.append(
        "no timed events and no configured window; using a degenerate epoch window"
    )
    return ObservationWindow(date(1970, 1, 1), date(1970, 1, 1))


def extract_in_window(
    config: RunConfig, memory_paths: Sequence[str], window: ObservationWindow
) -> tuple[list[DatedSection], list[ProxyEvent], list[ProxyEvent], list[str]]:
    """The window's dated memory sections, the output and governance proxies
    found in them, and the warnings from reading the memory files."""
    sections, warnings = parse_memory_sections(
        memory_paths, config.heading_pattern, root=config.root
    )
    in_window = [s for s in sections if window.contains(s.date)]
    output_proxies = extract_output_proxies(
        in_window,
        config.output_rules,
        granularity=config.granularity,
        repeat_horizon_days=config.repeat_horizon_days,
    )
    governance_proxies = extract_governance_events(
        in_window, config.governance_rules, granularity=config.granularity
    )
    return in_window, output_proxies, governance_proxies, warnings


def build_bundle(config: RunConfig) -> ReportBundle:
    """Run the full pipeline in memory and return the completed bundle."""
    bundle, _ = _build(config)
    return bundle


def _build(
    config: RunConfig, cache_path: Path | None = None
) -> tuple[ReportBundle, list[Event]]:
    warnings: list[str] = []
    rules = config.effective_classification()
    inventory, all_events = read_workspace(config, cache_path)
    warnings.extend(inventory.warnings)

    if config.scope == "main":
        scoped = [e for e in all_events if e.agent_scope == "main"]
    else:
        scoped = list(all_events)

    deduped, dedup_stats = deduplicate(scoped)
    timed, _untimed = exclude_untimed_for_time_analysis(deduped)
    window = derive_window(timed, config.window, warnings)

    timestamps = window_timestamps(timed, window)
    sensitivity = cap_sensitivity(timestamps, config.caps)
    histogram = gap_histogram(timestamps, config.gap_bin_minutes, config.gap_clip_minutes)

    sections_in_window, output_proxies, governance_proxies, memory_warnings = (
        extract_in_window(config, inventory.memory_paths, window)
    )
    warnings.extend(memory_warnings)

    strict = [
        e
        for e in deduped
        if e.role == "model_completed" and config.conventions.is_trajectory(e.source_path)
    ]
    totals = aggregate_tokens(strict, window)
    routes = per_route(strict, window)
    daily = daily_composition(strict, window)
    lo, hi = window.ms_bounds
    strict_in_window = [
        e for e in strict if e.timestamp_ms is not None and lo <= e.timestamp_ms < hi
    ]
    association = cache_output_association(strict_in_window, log1p=config.log1p)
    token_events = [
        TokenEventRow(
            timestamp_ms=e.timestamp_ms,
            provider_route=e.provider_route or "unknown",
            model=e.model or "unknown",
            input=e.tokens.input if e.tokens else 0,
            output=e.tokens.output if e.tokens else 0,
            cache_read=e.tokens.cache_read if e.tokens else 0,
            cache_write=e.tokens.cache_write if e.tokens else 0,
        )
        for e in sorted(
            strict_in_window, key=lambda e: (e.timestamp_ms, e.source_path, e.line_number)
        )
    ]

    metrics = compute_pare_m(
        deduped,
        list(output_proxies) + list(governance_proxies),
        inventory,
        window,
        totals,
        timestamps,
        primary_cap=config.primary_cap,
        sensitivity_cap=config.sensitivity_cap,
    )

    provenance = Provenance(
        tool_version=__version__,
        ruleset_versions={
            "classification": rules.version,
            "output_rules": config.output_rules.version,
            "governance_rules": config.governance_rules.version,
            "aliases": config.aliases.version,
            "conventions": config.conventions.version,
        },
        window_start=window.start_date.isoformat(),
        window_end=window.end_date.isoformat(),
        scope=config.scope,
        flags={
            "caps": list(config.caps),
            "primary_cap": config.primary_cap,
            "sensitivity_cap": config.sensitivity_cap,
            "granularity": config.granularity,
            "repeat_horizon_days": config.repeat_horizon_days,
            "exclude_generated": config.exclude_generated,
            "log1p": config.log1p,
            "scope": config.scope,
        },
    )

    bundle = ReportBundle(
        provenance=provenance,
        inventory=inventory,
        metrics=metrics,
        dedup_stats=dedup_stats,
        ate_sensitivity=sensitivity,
        gap_histogram=histogram,
        token_totals=totals,
        route_totals=routes,
        daily_tokens=daily,
        token_events=token_events,
        association=association,
        output_proxies=output_proxies,
        governance_proxies=governance_proxies,
        dated_section_count=len(sections_in_window),
        warnings=warnings,
    )
    return bundle, deduped


def write_outputs(
    bundle: ReportBundle,
    config: RunConfig,
    deduped_events: list[Event] | None = None,
) -> list[Path]:
    """Write report text, all CSVs and then the report JSON, which points to
    the events CSV by the digest of its written bytes; remove partial files
    on failure."""
    out_path = Path(config.out_dir)
    written: list[Path] = []
    try:
        text_path = out_path / REPORT_TEXT
        text_path.parent.mkdir(parents=True, exist_ok=True)
        text_path.write_text(render_report(bundle, "text"), encoding="utf-8")
        written.append(text_path)

        csvs = export_csvs(bundle, out_path)
        written.extend(csvs)

        json_path = out_path / REPORT_JSON
        events_sha256 = csvs[out_path / EVENTS_TOKENS_CSV]
        json_path.write_text(render_report(bundle, "structured", events_sha256), encoding="utf-8")
        written.append(json_path)

        if config.dedup_ledger and deduped_events is not None:
            ledger_path = out_path / DEDUP_LEDGER_CSV
            lines = ["tier,key,source,line"]
            for tier, key, source, line in ledger_rows(deduped_events):
                lines.append(f"{tier},{key},{source},{line}")
            ledger_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(ledger_path)
    except Exception:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise
    return written


def run_analysis(config: RunConfig) -> tuple[ReportBundle, list[Path]]:
    """Full pipeline: scan, parse, de-duplicate, analyze, report, export.

    The per-file parse results are cached in the output directory
    (``PARSE_CACHE``), so a rerun parses only new or changed session files.
    The cache is not among the written outputs and never changes them.
    """
    bundle, deduped = _build(config, Path(config.out_dir) / PARSE_CACHE)
    written = write_outputs(bundle, config, deduped)
    return bundle, written


# config sections that may hold either an inline mapping or a path to a
# separate JSON ruleset file (resolved relative to the config file)
RULESET_SECTIONS = (
    "classification",
    "output_rules",
    "governance_rules",
    "aliases",
    "conventions",
)


def load_config_file(path: str | Path) -> dict:
    config_path = Path(path)
    with open(config_path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"config file must contain a JSON object: {path}")
    for section in RULESET_SECTIONS:
        value = data.get(section)
        if isinstance(value, str):
            ruleset_path = Path(value)
            if not ruleset_path.is_absolute():
                ruleset_path = config_path.parent / ruleset_path
            with open(ruleset_path, "r", encoding="utf-8") as handle:
                data[section] = json.load(handle)
    return data
