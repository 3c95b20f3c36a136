"""End-to-end analysis pipeline and its serializable run configuration.

``Analysis`` is one graph of named stages, read -> deduped -> timestamps ->
window -> {active_time, strict -> tokens, extraction} -> metrics -> bundle:
``analyze`` writes its bundle, and each per-stage debug command prints one of
its stages.

A run is reproducible from the RunConfig plus the workspace bytes: no wall
clock, host name, or scheduling detail reaches the outputs, so re-running
the same configuration yields byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from datetime import date
from functools import cache, cached_property, partial
from operator import attrgetter
from pathlib import Path

from . import __version__
from .activetime import (
    DEFAULT_CAPS,
    DEFAULT_CLIP_MINUTES,
    ActiveTimeEstimate,
    GapHistogram,
    Timeline,
    cap_sensitivity,
    gap_histogram,
)
from .classify import ClassificationRules
from .dedup import DedupStats, deduplicate, ledger_rows
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
    TokenUsage,
    WorkspaceConventions,
    WorkspaceInventory,
    scan_and_parse,
)
from .jsonfmt import to_json
from .metrics import MetricReport, ObservationWindow, compute_pare_m, sorted_timestamps, utc_date
from .report import (
    DEDUP_LEDGER_HEADER,
    EVENTS_TOKENS_CSV,
    Provenance,
    ReportBundle,
    csv_bytes,
    export_csvs,
    render_report,
    write_file,
)
from .tokens import (
    UNKNOWN_ROUTE,
    AssociationStats,
    DailyTokens,
    RouteTotals,
    TokenEventRow,
    TokenTotals,
    aggregate_tokens,
    cache_output_association,
    daily_composition,
    per_route,
)

DEFAULT_GAP_BIN_MINUTES = 15

# build an events-CSV row from a tuple of all its fields, skipping the
# keyword-argument handling of the named tuple's constructor
_new_row = partial(tuple.__new__, TokenEventRow)
_NO_TOKENS = TokenUsage()

REPORT_TEXT = "reports/report.txt"
REPORT_JSON = "reports/report.json"
DEDUP_LEDGER_CSV = "reports/dedup-ledger.csv"
PARSE_CACHE = "cache/parse.jsonl"

# config sections that may hold an inline mapping or a path to a JSON ruleset
# file (resolved relative to the config file); provenance digests each one
RULESET_SECTIONS = ("classification", "output_rules", "governance_rules", "aliases", "conventions")


@dataclass(frozen=True)
class RunConfig:
    root: str
    out_dir: str = "parem-out"
    window: ObservationWindow | None = None
    caps: tuple[int, ...] = DEFAULT_CAPS
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
        # type(...) is int: a bool is an int to isinstance, but not a minute count
        if any(type(cap) is not int or cap <= 0 for cap in self.caps):
            raise ValueError(f"caps must all be positive integers, got {list(self.caps)}")
        if len(set(self.caps)) < len(self.caps):
            raise ValueError(f"caps must not list {max(self.caps, key=self.caps.count)} twice")
        for name in ("gap_bin_minutes", "gap_clip_minutes"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        horizon = self.repeat_horizon_days
        if type(horizon) is not int or horizon < 0:
            raise ValueError(f"repeat_horizon_days must be an integer >= 0, got {horizon!r}")
        compile_heading_pattern(self.heading_pattern)


class Analysis:
    """The stages of one run, each computed when first asked for and kept.

    The stages form one graph: ``read`` (scan and parse) -> ``deduped``
    (scope filter and de-duplication) -> ``timestamps`` (sorted once, for the
    derived window and the timeline) -> ``window`` -> ``active_time``,
    ``strict`` -> ``tokens``, and ``extraction`` -> ``metrics`` -> ``bundle``.
    A stage reads only the stages before it, so asking for one runs the graph
    as far as that stage and no further, and no stage runs twice. A stage
    with warnings returns its own, and ``bundle`` joins them in graph order,
    whichever stage was asked for first.
    """

    def __init__(self, config: RunConfig, cache_path: Path | None = None) -> None:
        self.config = config
        self.cache_path = cache_path

    @cached_property
    def read(self) -> tuple[WorkspaceInventory, list[Event]]:
        """The inventory and every parsed record, leaving out the output
        directory when it lies inside the root, so that a run never reads
        the outputs of the one before."""
        config = self.config
        root = Path(config.root).resolve()
        out = Path(config.out_dir).resolve()
        skip = out.relative_to(root).as_posix() if out != root and out.is_relative_to(root) else None
        return scan_and_parse(
            config.root,
            config.classification,
            config.conventions,
            config.aliases,
            skip=skip,
            exclude_generated=config.exclude_generated,
            cache_path=self.cache_path,
        )

    @cached_property
    def deduped(self) -> tuple[list[Event], DedupStats]:
        """The records of the run's scope, de-duplicated, and the counts."""
        events = self.read[1]
        if self.config.scope == "main":
            events = [e for e in events if e.agent_scope == "main"]
        return deduplicate(events)

    @cached_property
    def timestamps(self) -> list[int]:
        """The timestamps of the timed records, ascending with repeats."""
        return sorted_timestamps(self.deduped[0])

    @cached_property
    def window(self) -> tuple[ObservationWindow, list[str]]:
        """The configured window, else the UTC date span of the timed
        records, and the warning a derived window carries."""
        if self.config.window is not None:
            return self.config.window, []
        stamps = self.timestamps
        if not stamps:
            return ObservationWindow(date(1970, 1, 1), date(1970, 1, 1)), [
                "no timed events and no configured window; using a degenerate epoch window"
            ]
        window = ObservationWindow(utc_date(stamps[0]), utc_date(stamps[-1]))
        return window, [
            "observation window defaulted to the event date span "
            f"{window.start_date.isoformat()}..{window.end_date.isoformat()}; "
            "configure a fixed window for comparable reports"
        ]

    @cached_property
    def active_time(self) -> tuple[Timeline, list[ActiveTimeEstimate], GapHistogram]:
        """The window's timeline (the unique timestamps inside its bounds),
        the capped-gap estimate at each cap, and the gap histogram."""
        config = self.config
        timeline = Timeline.between(self.timestamps, *self.window[0].ms_bounds)
        sensitivity = cap_sensitivity(timeline, config.caps)
        histogram = gap_histogram(timeline, config.gap_bin_minutes, config.gap_clip_minutes)
        return timeline, sensitivity, histogram

    @cached_property
    def strict(self) -> list[TokenEventRow]:
        """The strict subset, trajectory-file completions timed inside the
        window, as the events CSV's rows, by (timestamp, path, line)."""
        is_trajectory = cache(self.config.conventions.is_trajectory)  # once per file
        lo, hi = self.window[0].ms_bounds
        strict = [
            e
            for e in self.deduped[0]
            if e.role == "model_completed"
            and (ts := e.timestamp_ms) is not None
            and lo <= ts < hi
            and is_trajectory(e.source_path)
        ]
        # the records are in canonical (path, line) order and the sort is stable
        return [
            _new_row(
                (
                    e.timestamp_ms,
                    e.provider_route or UNKNOWN_ROUTE,
                    e.model or "unknown",
                    *(e.tokens or _NO_TOKENS),
                )
            )
            for e in sorted(strict, key=attrgetter("timestamp_ms"))
        ]

    @cached_property
    def tokens(self) -> tuple[TokenTotals, list[RouteTotals], list[DailyTokens], AssociationStats]:
        """Totals, routes, daily rows and association of the strict subset."""
        strict = self.strict
        return (
            aggregate_tokens(strict),
            per_route(strict),
            daily_composition(strict, self.window[0]),
            cache_output_association(strict, log1p=self.config.log1p),
        )

    @cached_property
    def extraction(
        self,
    ) -> tuple[list[DatedSection], list[ProxyEvent], list[ProxyEvent], list[str]]:
        """The window's dated memory sections, the output and governance
        proxies found in them, and the warnings from reading the memory files."""
        config = self.config
        window = self.window[0]
        sections, warnings = parse_memory_sections(
            self.read[0].memory_paths, config.heading_pattern, root=config.root
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

    @cached_property
    def metrics(self) -> MetricReport:
        _, output_proxies, governance_proxies, _ = self.extraction
        return compute_pare_m(
            self.deduped[0],
            output_proxies + governance_proxies,
            self.read[0],
            self.window[0],
            self.tokens[0],
            self.active_time[0],
        )

    @cached_property
    def bundle(self) -> ReportBundle:
        inventory = self.read[0]
        window, window_warnings = self.window
        _, sensitivity, histogram = self.active_time
        sections, output_proxies, governance_proxies, memory_warnings = self.extraction
        totals, routes, daily, association = self.tokens
        return ReportBundle(
            provenance=provenance(self.config, window),
            inventory=inventory,
            metrics=self.metrics,
            dedup_stats=self.deduped[1],
            ate_sensitivity=sensitivity,
            gap_histogram=histogram,
            token_totals=totals,
            route_totals=routes,
            daily_tokens=daily,
            token_events=self.strict,
            association=association,
            output_proxies=output_proxies,
            governance_proxies=governance_proxies,
            dated_section_count=len(sections),
            warnings=[*inventory.warnings, *window_warnings, *memory_warnings],
        )


def _sha256_json(data: object) -> str:
    """The SHA-256 of ``data``'s canonical JSON: sorted keys, no spaces."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def provenance(config: RunConfig, window: ObservationWindow) -> Provenance:
    """The window, the config but ``root`` and ``out_dir`` as ``to_json`` writes it, and digests."""
    data = to_json(config)
    del data["root"], data["out_dir"]
    return Provenance(
        tool_version=__version__,
        window_start=window.start_date.isoformat(),
        window_end=window.end_date.isoformat(),
        config=data,
        config_sha256=_sha256_json(data),
        ruleset_sha256={name: _sha256_json(data[name]) for name in RULESET_SECTIONS},
    )


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

    def write(name: str, data: bytes) -> None:
        path = out_path / name
        write_file(path, data)
        written.append(path)

    try:
        write(REPORT_TEXT, render_report(bundle, "text").encode("utf-8"))
        csvs = export_csvs(bundle, out_path)
        written.extend(csvs)
        events_sha256 = csvs[out_path / EVENTS_TOKENS_CSV]
        write(REPORT_JSON, render_report(bundle, "structured", events_sha256).encode("utf-8"))
        if config.dedup_ledger and deduped_events is not None:
            write(DEDUP_LEDGER_CSV, csv_bytes(DEDUP_LEDGER_HEADER, ledger_rows(deduped_events)))
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
    analysis = Analysis(config, Path(config.out_dir) / PARSE_CACHE)
    bundle = analysis.bundle
    deduped = analysis.deduped[0] if config.dedup_ledger else None
    del analysis  # free the records and stage results before writing: lower peak memory
    return bundle, write_outputs(bundle, config, deduped)


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
