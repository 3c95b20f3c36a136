"""Measurement suite for persistent-agent workspaces (PARE-M v0.1)."""

__version__ = "0.1.0"

from .activetime import (
    ActiveTimeEstimate,
    GapHistogram,
    active_time,
    cap_sensitivity,
    gap_histogram,
)
from .classify import ClassificationRules, SurfaceCounts, surface_counts
from .dedup import DedupKey, DedupStats, dedup_key, deduplicate
from .extraction import (
    DatedSection,
    KeywordRuleSet,
    MatchedSection,
    ProxyEvent,
    extract_governance_events,
    extract_output_proxies,
    match_sections,
    parse_memory_sections,
)
from .ingest import (
    Event,
    FieldAliases,
    FileParseStats,
    TokenUsage,
    WorkspaceConventions,
    WorkspaceInventory,
    normalize_timestamp,
    parse_session_file,
)
from .metrics import (
    MetricReport,
    MetricValue,
    ObservationWindow,
    RoleCounts,
    compute_pare_m,
    role_counts,
)
from .pipeline import Analysis, RunConfig, run_analysis
from .report import ReportBundle, export_csvs, render_report
from .synth import CorpusSpec, GroundTruth, generate_corpus
from .tokens import (
    AssociationStats,
    DailyTokens,
    RouteTotals,
    aggregate_tokens,
    cache_output_association,
    daily_composition,
    per_route,
)
