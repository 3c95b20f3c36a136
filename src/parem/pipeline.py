"""End-to-end analysis pipeline and its serializable run configuration.

``Analysis`` is one graph of named stages, read -> deduped -> window ->
{windowed -> {active_time, strict -> tokens}, extraction} -> metrics ->
bundle: ``analyze`` writes its bundle, and each per-stage debug command
prints one of its stages.

A run is reproducible from the RunConfig plus the workspace bytes: no wall
clock, host name, or scheduling detail reaches the outputs, so re-running
the same configuration yields byte-identical files.
"""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from datetime import date
from functools import cache, cached_property, partial
from operator import attrgetter, is_not
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
    KeywordRuleSet,
    MatchedSection,
    ProxyEvent,
    compile_heading_pattern,
    decode_matched,
    encode_matched,
    extract_governance_events,
    extract_output_proxies,
    match_sections,
    parse_memory_sections,
)
from .ingest import (
    Event,
    FieldAliases,
    FileCache,
    FileCodec,
    TokenUsage,
    WorkspaceConventions,
    WorkspaceInventory,
    read_file,
    scan_and_parse,
)
from .jsonfmt import to_json
from .metrics import MetricReport, ObservationWindow, compute_pare_m, utc_date
from .report import (
    DEDUP_LEDGER_HEADER,
    EVENTS_TOKENS_CSV,
    RULESET_SECTIONS,
    Provenance,
    ReportBundle,
    csv_bytes,
    export_csvs,
    render_report,
    report_document,
    write_file,
)
from .tokens import (
    UNKNOWN_ROUTE,
    AssociationStats,
    DailyTokens,
    RouteTotals,
    TokenEventRow,
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
_timestamp_ms = attrgetter("timestamp_ms")

REPORT_TEXT = "reports/report.txt"
REPORT_JSON = "reports/report.json"
DEDUP_LEDGER_CSV = "reports/dedup-ledger.csv"
PARSE_CACHE = "cache/parse.jsonl"
MEMORY_CACHE = "cache/memory.jsonl"
MEMORY_CACHE_FORMAT = "parem-memory-cache/1"


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
    (scope filter and de-duplication) -> ``window`` -> ``windowed`` (the
    records the window covers, the only place a record's timestamp meets
    the window) -> ``active_time``, ``strict`` -> ``tokens``; ``window`` ->
    ``extraction``; and all of them -> ``metrics`` -> ``bundle``.
    A stage reads only the stages before it, so asking for one runs the graph
    as far as that stage and no further, and no stage runs twice. A stage
    with warnings returns its own, and ``bundle`` joins them in graph order,
    whichever stage was asked for first.

    With ``cached``, ``read`` and ``extraction`` keep their per-file results
    in the output directory (``PARSE_CACHE`` and ``MEMORY_CACHE``) and take
    back those of the previous run for each file whose bytes are unchanged;
    the results are the same either way.
    """

    def __init__(self, config: RunConfig, cached: bool = False) -> None:
        self.config = config
        self.cached = cached

    def _cache(self, name: str) -> Path | None:
        return Path(self.config.out_dir, name) if self.cached else None

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
            cache_path=self._cache(PARSE_CACHE),
        )

    @cached_property
    def deduped(self) -> tuple[list[Event], DedupStats]:
        """The records of the run's scope, de-duplicated, and the counts. A
        record's scope is its file's: under ``main``, the records of the
        files that discovery put among the main sessions."""
        inventory, events = self.read
        if self.config.scope == "main":
            main = frozenset(inventory.main_session_paths)
            events = [e for e in events if e.source_path in main]
        return deduplicate(events)

    @cached_property
    def window(self) -> tuple[ObservationWindow, list[str]]:
        """The configured window, else the UTC date span of the timed
        records, and the warning a derived window carries."""
        if self.config.window is not None:
            return self.config.window, []
        stamps = list(_timestamps(self.deduped[0]))
        if not stamps:
            return ObservationWindow(date(1970, 1, 1), date(1970, 1, 1)), [
                "no timed events and no configured window; using a degenerate epoch window"
            ]
        window = ObservationWindow(utc_date(min(stamps)), utc_date(max(stamps)))
        return window, [
            "observation window defaulted to the event date span "
            f"{window.start_date.isoformat()}..{window.end_date.isoformat()}; "
            "configure a fixed window for comparable reports"
        ]

    @cached_property
    def windowed(self) -> list[Event]:
        """The de-duplicated records the window covers, in canonical order:
        the untimed ones, which count everywhere, and those timed inside it."""
        lo, hi = self.window[0].ms_bounds
        return [e for e in self.deduped[0] if (ts := e.timestamp_ms) is None or lo <= ts < hi]

    @cached_property
    def active_time(self) -> tuple[Timeline, list[ActiveTimeEstimate], GapHistogram]:
        """The window's timeline (the unique timestamps of its records), the
        capped-gap estimate at each cap, and the gap histogram."""
        config = self.config
        timeline = Timeline.of(_timestamps(self.windowed))
        sensitivity = cap_sensitivity(timeline, config.caps)
        histogram = gap_histogram(timeline, config.gap_bin_minutes, config.gap_clip_minutes)
        return timeline, sensitivity, histogram

    @cached_property
    def strict(self) -> list[TokenEventRow]:
        """The strict subset, the window's timed trajectory-file completions,
        as the events CSV's rows, by (timestamp, path, line)."""
        is_trajectory = cache(self.config.conventions.is_trajectory)  # once per file
        strict = [
            e
            for e in self.windowed
            if e.role == "model_completed"
            and e.timestamp_ms is not None
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
            for e in sorted(strict, key=_timestamp_ms)
        ]

    @cached_property
    def tokens(self) -> tuple[TokenUsage, list[RouteTotals], list[DailyTokens], AssociationStats]:
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
    ) -> tuple[list[MatchedSection], list[ProxyEvent], list[ProxyEvent], list[str]]:
        """The window's dated memory sections, matched against both rule sets,
        the output and governance proxies replayed from those matches, and the
        warnings for the memory files that cannot be read, this being their
        one reader. Each file is split and matched on its own
        (``_memory_codec``), or its matches are taken from the memory cache;
        the window, the order, the clusters and the repeat suppression are
        applied afresh on every run."""
        config = self.config
        window = self.window[0]
        root = Path(config.root)
        sections: list[MatchedSection] = []
        warnings: list[str] = []
        with FileCache(self._cache(MEMORY_CACHE), _memory_codec(config)) as cache:
            for rel in self.read[0].memory_paths:
                try:
                    data = read_file(root / rel)
                except OSError as exc:
                    warnings.append(f"unreadable memory file: {rel} ({exc.__class__.__name__})")
                    continue
                sections += cache.get(rel, data)
        in_window = [s for s in sections if window.contains(s.date)]
        granularity = config.granularity
        output_proxies = extract_output_proxies(
            in_window, granularity=granularity, repeat_horizon_days=config.repeat_horizon_days
        )
        governance_proxies = extract_governance_events(
            in_window, config.governance_rules, granularity=granularity
        )
        return in_window, output_proxies, governance_proxies, warnings

    @cached_property
    def metrics(self) -> MetricReport:
        _, output_proxies, governance_proxies, _ = self.extraction
        return compute_pare_m(
            self.windowed,
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


def _memory_codec(config: RunConfig) -> FileCodec:
    """The memory cache's codec: a memory file's sections, split with the
    config's heading pattern and matched against its two rule sets (see
    ``encode_matched``), under a header that names all three; a decoded term
    is the rule sets' own string."""

    def compute(data: bytes, rel: str) -> list[MatchedSection]:
        sections, _ = parse_memory_sections({rel: data}, config.heading_pattern)
        return match_sections(sections, config.output_rules, config.governance_rules)

    header = {
        "format": MEMORY_CACHE_FORMAT,
        "heading_pattern": config.heading_pattern,
        "output_rules": _sha256_json(to_json(config.output_rules)),
        "governance_rules": _sha256_json(to_json(config.governance_rules)),
    }
    rule_sets = (config.output_rules, config.governance_rules)
    terms = {t: t for rules in rule_sets for words in rules.families.values() for t in words}
    return FileCodec(header, compute, encode_matched, partial(decode_matched, terms=terms))


def _timestamps(events: list[Event]):
    """The timed records' timestamps, in the records' order."""
    return filter(partial(is_not, None), map(_timestamp_ms, events))


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
    out_dir: str | Path,
    deduped_events: list[Event] | None = None,
) -> list[Path]:
    """Write the report text, the CSVs, the report JSON and, when
    ``deduped_events`` are given, their dedup ledger, in that order, under
    ``out_dir``; on failure, remove every file this call wrote or began.
    Both reports render from one ``report_document``, which points to the
    events CSV by the digest of its bytes."""
    csvs = export_csvs(bundle)
    document = report_document(bundle, hashlib.sha256(csvs[EVENTS_TOKENS_CSV]).hexdigest())
    files = {REPORT_TEXT: render_report(document, "text").encode("utf-8"), **csvs}
    files[REPORT_JSON] = render_report(document, "structured").encode("utf-8")
    if deduped_events is not None:
        files[DEDUP_LEDGER_CSV] = csv_bytes(DEDUP_LEDGER_HEADER, ledger_rows(deduped_events))
    written: list[Path] = []
    try:
        for name, data in files.items():
            written.append(path := Path(out_dir, name))
            write_file(path, data)
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

    Two per-file caches in the output directory serve a rerun: the parse
    results of each session file (``PARSE_CACHE``) and the rule matches of
    each memory file's sections (``MEMORY_CACHE``), so a rerun parses and
    matches only new or changed files. The caches are not among the written
    outputs and never change them.

    The cyclic garbage collector is paused for the run and left as it was
    found: every stage builds acyclic records, which reference counting
    frees, so a collection pass would walk them all and free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        analysis = Analysis(config, cached=True)
        bundle = analysis.bundle
        deduped = analysis.deduped[0] if config.dedup_ledger else None
        del analysis  # free the records and stage results before writing: lower peak memory
        return bundle, write_outputs(bundle, config.out_dir, deduped)
    finally:
        if was_enabled:
            gc.enable()


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
