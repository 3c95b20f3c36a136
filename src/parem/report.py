"""Report bundle assembly, deterministic rendering, and CSV exports.

Every number in a rendered report is copied from a bundle field; nothing is
computed at render time, and identical bundles render to identical bytes.
CSV exports carry full precision; the text report uses the reporting
precisions (3 d.p. proportions, 2 d.p. rates, 0.1 h hours).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .activetime import ActiveTimeEstimate, GapHistogram
from .dedup import DedupStats
from .extraction import ProxyEvent
from .ingest import WorkspaceInventory
from .jsonfmt import dumps_indented
from .metrics import (
    METRIC_NAMES,
    MetricReport,
    round_hours,
    round_proportion,
    round_rate,
)
from .tokens import AssociationStats, DailyTokens, RouteTotals, TokenTotals

DAILY_TOKENS_CSV = "figures/figure-1-token-telemetry-daily.csv"
EVENTS_TOKENS_CSV = "figures/figure-1-token-telemetry-events.csv"
SENSITIVITY_CSV = "figures/active-time-sensitivity.csv"
METRICS_CSV = "reports/metrics.csv"
PROXY_LEDGER_CSV = "reports/proxy-ledger.csv"
SURFACE_COUNTS_CSV = "reports/surface-counts.csv"

DAILY_TOKENS_HEADER = [
    "date",
    "input_tokens",
    "output_tokens",
    "cache_read_tokens",
    "cache_write_tokens",
    "completions",
]
EVENTS_TOKENS_HEADER = [
    "timestamp",
    "provider_route",
    "model",
    "input",
    "output",
    "cache_read",
    "cache_write",
]
SENSITIVITY_HEADER = ["cap_minutes", "hours", "cluster_count"]
METRICS_HEADER = [
    "metric",
    "numerator",
    "denominator",
    "window_start",
    "window_end",
    "rule_id",
    "value",
]
PROXY_LEDGER_HEADER = ["date", "kind", "class", "terms", "source"]
SURFACE_COUNTS_HEADER = ["surface", "files"]


class ReportError(Exception):
    """Raised for incomplete bundles or failed exports."""


class TokenEventRow(NamedTuple):
    """One strict-subset completion, as exported to the events CSV."""

    timestamp_ms: int | None
    provider_route: str
    model: str
    input: int
    output: int
    cache_read: int
    cache_write: int

    def to_mapping(self) -> dict:
        return self._asdict()

    @classmethod
    def from_mapping(cls, data: Mapping) -> "TokenEventRow":
        return cls(
            timestamp_ms=data["timestamp_ms"],
            provider_route=data["provider_route"],
            model=data["model"],
            input=int(data["input"]),
            output=int(data["output"]),
            cache_read=int(data["cache_read"]),
            cache_write=int(data["cache_write"]),
        )


@dataclass(frozen=True)
class Provenance:
    tool_version: str
    ruleset_versions: dict[str, str]
    window_start: str
    window_end: str
    scope: str
    flags: dict[str, object] = field(default_factory=dict)

    def to_mapping(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "ruleset_versions": dict(sorted(self.ruleset_versions.items())),
            "window_start": self.window_start,
            "window_end": self.window_end,
            "scope": self.scope,
            "flags": dict(sorted(self.flags.items())),
        }

    @classmethod
    def from_mapping(cls, data: Mapping) -> "Provenance":
        return cls(
            tool_version=data["tool_version"],
            ruleset_versions=dict(data["ruleset_versions"]),
            window_start=data["window_start"],
            window_end=data["window_end"],
            scope=data["scope"],
            flags=dict(data.get("flags", {})),
        )


@dataclass
class ReportBundle:
    provenance: Provenance | None = None
    inventory: WorkspaceInventory | None = None
    metrics: MetricReport | None = None
    dedup_stats: DedupStats | None = None
    ate_sensitivity: list[ActiveTimeEstimate] | None = None
    gap_histogram: GapHistogram | None = None
    token_totals: TokenTotals | None = None
    route_totals: list[RouteTotals] | None = None
    daily_tokens: list[DailyTokens] | None = None
    token_events: list[TokenEventRow] | None = None
    association: AssociationStats | None = None
    output_proxies: list[ProxyEvent] | None = None
    governance_proxies: list[ProxyEvent] | None = None
    dated_section_count: int | None = None
    warnings: list[str] = field(default_factory=list)

    REQUIRED = (
        "provenance",
        "inventory",
        "metrics",
        "dedup_stats",
        "ate_sensitivity",
        "gap_histogram",
        "token_totals",
        "route_totals",
        "daily_tokens",
        "token_events",
        "association",
        "output_proxies",
        "governance_proxies",
        "dated_section_count",
    )

    def missing_sections(self) -> list[str]:
        return [name for name in self.REQUIRED if getattr(self, name) is None]

    def require_complete(self) -> None:
        missing = self.missing_sections()
        if missing:
            raise ReportError(f"incomplete bundle, missing sections: {', '.join(missing)}")

    def to_mapping(self) -> dict:
        self.require_complete()
        return {
            "provenance": self.provenance.to_mapping(),
            "inventory": self.inventory.to_mapping(),
            "metrics": self.metrics.to_mapping(),
            "dedup_stats": self.dedup_stats.to_mapping(),
            "ate_sensitivity": [e.to_mapping() for e in self.ate_sensitivity],
            "gap_histogram": self.gap_histogram.to_mapping(),
            "token_totals": self.token_totals.to_mapping(),
            "route_totals": [r.to_mapping() for r in self.route_totals],
            "daily_tokens": [d.to_mapping() for d in self.daily_tokens],
            "token_events": [e.to_mapping() for e in self.token_events],
            "association": self.association.to_mapping(),
            "output_proxies": [p.to_mapping() for p in self.output_proxies],
            "governance_proxies": [p.to_mapping() for p in self.governance_proxies],
            "dated_section_count": self.dated_section_count,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ReportBundle":
        return cls(
            provenance=Provenance.from_mapping(data["provenance"]),
            inventory=WorkspaceInventory.from_mapping(data["inventory"]),
            metrics=MetricReport.from_mapping(data["metrics"]),
            dedup_stats=DedupStats.from_mapping(data["dedup_stats"]),
            ate_sensitivity=[
                ActiveTimeEstimate.from_mapping(e) for e in data["ate_sensitivity"]
            ],
            gap_histogram=GapHistogram.from_mapping(data["gap_histogram"]),
            token_totals=TokenTotals.from_mapping(data["token_totals"]),
            route_totals=[RouteTotals.from_mapping(r) for r in data["route_totals"]],
            daily_tokens=[DailyTokens.from_mapping(d) for d in data["daily_tokens"]],
            token_events=[TokenEventRow.from_mapping(e) for e in data["token_events"]],
            association=AssociationStats.from_mapping(data["association"]),
            output_proxies=[ProxyEvent.from_mapping(p) for p in data["output_proxies"]],
            governance_proxies=[
                ProxyEvent.from_mapping(p) for p in data["governance_proxies"]
            ],
            dated_section_count=int(data["dated_section_count"]),
            warnings=list(data.get("warnings", [])),
        )


def _format_metric(value: float | None, kind: str, reason: str | None) -> str:
    if value is None:
        return f"undefined ({reason})"
    if kind == "proportion":
        return f"{round_proportion(value):.3f}"
    if kind == "rate":
        return f"{round_rate(value):.2f}"
    if kind == "hours":
        return f"{round_hours(value):.1f}"
    if kind == "count":
        return str(int(value))
    return repr(value)


def _format_number(value: float) -> str:
    # integral values print without a decimal point or scientific notation
    return str(int(value)) if value == int(value) else repr(value)


_METRIC_KIND = {
    "ADF": "proportion",
    "DRC": "count",
    "ATE": "hours",
    "CDR": "proportion",
    "OPR": "rate",
    "GER": "rate",
    "ASB": "count",
}


def render_report(bundle: ReportBundle, format: str = "text") -> str:
    """Render the bundle deterministically as text or structured JSON."""
    bundle.require_complete()
    if format == "structured":
        return dumps_indented(bundle.to_mapping()) + "\n"
    if format != "text":
        raise ReportError(f"unknown report format: {format!r}")

    lines: list[str] = []
    provenance = bundle.provenance
    metrics = bundle.metrics
    inventory = bundle.inventory
    lines.append("workspace measurement report (pare-m v0.1)")
    lines.append("=" * 44)
    lines.append(f"tool version: {provenance.tool_version}")
    lines.append(f"window: {provenance.window_start} .. {provenance.window_end}")
    lines.append(f"scope: {provenance.scope}")
    for name, version in sorted(provenance.ruleset_versions.items()):
        lines.append(f"ruleset {name}: {version}")
    for name, value in sorted(provenance.flags.items()):
        lines.append(f"flag {name}: {value}")
    lines.append("")

    lines.append("metrics")
    lines.append("-" * 44)
    for name in METRIC_NAMES:
        value = metrics.values[name]
        rendered = _format_metric(value.value, _METRIC_KIND[name], value.reason)
        lines.append(
            f"{name}: {rendered}  "
            f"[{_format_number(value.numerator)} / {_format_number(value.denominator)}]  "
            f"rule={value.rule_id}"
        )
    sensitivity = metrics.ate_sensitivity
    lines.append(
        f"ATE sensitivity: {_format_metric(sensitivity.value, 'hours', sensitivity.reason)} h  "
        f"rule={sensitivity.rule_id}"
    )
    for annotation in metrics.annotations:
        lines.append(f"note: {annotation}")
    lines.append("")

    lines.append("utilization")
    lines.append("-" * 44)
    lines.append(f"active days: {metrics.active_day_count}")
    lines.append(f"de-duplicated records: {bundle.dedup_stats.retained_count}")
    lines.append(f"records before de-duplication: {bundle.dedup_stats.input_count}")
    for role, count in sorted(metrics.role_counts.to_mapping().items()):
        lines.append(f"role {role}: {count}")
    for estimate in bundle.ate_sensitivity:
        lines.append(
            f"active time @{estimate.cap_minutes} min cap: "
            f"{round_hours(estimate.hours):.1f} h across {estimate.cluster_count} clusters"
        )
    lines.append("")

    lines.append("inventory")
    lines.append("-" * 44)
    lines.append(f"memory files: {inventory.memory_files}")
    lines.append(f"agent directories: {inventory.agent_dirs}")
    lines.append(f"skill files: {inventory.skill_files}")
    lines.append(
        f"session files (main): {inventory.session_files_main} "
        f"({inventory.recoverable_main} recoverable)"
    )
    lines.append(
        f"session files (all agents): {inventory.session_files_all} "
        f"({inventory.recoverable_all} recoverable)"
    )
    for surface, count in sorted(inventory.surfaces.counts.items()):
        lines.append(f"surface {surface}: {count}")
    lines.append("")

    lines.append("outputs and governance")
    lines.append("-" * 44)
    lines.append(f"dated memory sections: {bundle.dated_section_count}")
    lines.append(f"output proxies: {len(bundle.output_proxies)}")
    lines.append(f"governance proxies: {len(bundle.governance_proxies)}")
    by_class: dict[str, int] = {}
    for proxy in bundle.governance_proxies:
        key = proxy.governance_class or "unclassified"
        by_class[key] = by_class.get(key, 0) + 1
    for name, count in sorted(by_class.items()):
        lines.append(f"governance class {name}: {count}")
    lines.append("")

    lines.append("token telemetry")
    lines.append("-" * 44)
    totals = bundle.token_totals
    lines.append(f"total recorded tokens: {totals.total}")
    lines.append(f"input tokens: {totals.input}")
    lines.append(f"output tokens: {totals.output}")
    lines.append(f"cache-read tokens: {totals.cache_read}")
    lines.append(f"cache-write tokens: {totals.cache_write}")
    cdr_text = (
        f"{round_proportion(totals.cdr):.3f}" if totals.cdr is not None else "undefined"
    )
    lines.append(f"cache dominance: {cdr_text}")
    for route in bundle.route_totals:
        route_cdr = route.totals.cdr
        route_cdr_text = (
            f"{round_proportion(route_cdr):.3f}" if route_cdr is not None else "undefined"
        )
        lines.append(
            f"route {route.provider_route}: {route.totals.total} tokens, "
            f"{route.completions} completions, cache dominance {route_cdr_text}"
        )
    association = bundle.association
    if association.reason is not None:
        lines.append(f"cache/output association: undefined ({association.reason})")
    else:
        lines.append(
            "cache/output association: "
            f"pearson(log) {association.pearson_r_log:.2f}, "
            f"spearman {association.spearman_rho:.2f} "
            f"over {association.n_events} completions "
            f"({association.excluded_zero_events} zero-count excluded)"
        )
    lines.append("")

    if bundle.warnings:
        lines.append("warnings")
        lines.append("-" * 44)
        for warning in bundle.warnings:
            lines.append(f"- {warning}")
        lines.append("")

    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_csvs(bundle: ReportBundle, out_dir: str | Path) -> list[Path]:
    """Write the fixed-schema CSV exports; on failure, remove partial files."""
    bundle.require_complete()
    out_path = Path(out_dir)
    written: list[Path] = []
    try:
        daily_path = out_path / DAILY_TOKENS_CSV
        _write_csv(
            daily_path,
            DAILY_TOKENS_HEADER,
            [
                [
                    row.date.isoformat(),
                    row.input,
                    row.output,
                    row.cache_read,
                    row.cache_write,
                    row.completions,
                ]
                for row in bundle.daily_tokens
            ],
        )
        written.append(daily_path)

        events_path = out_path / EVENTS_TOKENS_CSV
        _write_csv(
            events_path,
            EVENTS_TOKENS_HEADER,
            [
                [
                    row.timestamp_ms if row.timestamp_ms is not None else "",
                    row.provider_route,
                    row.model,
                    row.input,
                    row.output,
                    row.cache_read,
                    row.cache_write,
                ]
                for row in bundle.token_events
            ],
        )
        written.append(events_path)

        sensitivity_path = out_path / SENSITIVITY_CSV
        _write_csv(
            sensitivity_path,
            SENSITIVITY_HEADER,
            [
                [estimate.cap_minutes, repr(estimate.hours), estimate.cluster_count]
                for estimate in bundle.ate_sensitivity
            ],
        )
        written.append(sensitivity_path)

        metrics_path = out_path / METRICS_CSV
        metric_rows = []
        ordered = [bundle.metrics.values[name] for name in METRIC_NAMES]
        ordered.append(bundle.metrics.ate_sensitivity)
        for value in ordered:
            metric_rows.append(
                [
                    value.metric,
                    repr(value.numerator),
                    repr(value.denominator),
                    value.window.start_date.isoformat(),
                    value.window.end_date.isoformat(),
                    value.rule_id,
                    repr(value.value) if value.value is not None else "",
                ]
            )
        _write_csv(metrics_path, METRICS_HEADER, metric_rows)
        written.append(metrics_path)

        ledger_path = out_path / PROXY_LEDGER_CSV
        ledger_rows = []
        for proxy in list(bundle.output_proxies) + list(bundle.governance_proxies):
            ledger_rows.append(
                [
                    proxy.date.isoformat(),
                    proxy.kind,
                    proxy.governance_class or "",
                    "|".join(proxy.matched_terms),
                    f"{proxy.section_ref[0]}#{proxy.section_ref[1]}",
                ]
            )
        _write_csv(ledger_path, PROXY_LEDGER_HEADER, ledger_rows)
        written.append(ledger_path)

        surfaces_path = out_path / SURFACE_COUNTS_CSV
        _write_csv(
            surfaces_path,
            SURFACE_COUNTS_HEADER,
            [
                [surface, count]
                for surface, count in sorted(bundle.inventory.surfaces.counts.items())
            ],
        )
        written.append(surfaces_path)
    except OSError as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise ReportError(f"csv export failed: {exc}") from exc
    return written
