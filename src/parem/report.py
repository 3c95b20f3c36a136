"""Report bundle assembly, deterministic rendering, and CSV exports.

Every number in a rendered report is copied from a bundle field; nothing is
computed at render time, and identical bundles render to identical bytes.
CSV exports carry full precision; the text report uses the reporting
precisions (3 d.p. proportions, 2 d.p. rates, 0.1 h hours). Every CSV is
encoded by ``csv_bytes`` and every output file written by ``write_file``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

from .activetime import ActiveTimeEstimate, GapHistogram
from .dedup import DedupStats
from .extraction import ProxyEvent
from .ingest import WorkspaceInventory
from .jsonfmt import to_json
from .metrics import (
    METRIC_NAMES,
    MetricReport,
    round_hours,
    round_proportion,
    round_rate,
)
from .tokens import AssociationStats, DailyTokens, RouteTotals, TokenEventRow, TokenTotals

# names the structured report's schema; it changes whenever the schema does
REPORT_FORMAT = "parem-report/3"

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
DEDUP_LEDGER_HEADER = ["tier", "key", "source", "line"]

# the CSV columns a record holds, in the order of its table's header
_daily_row = attrgetter(*(f.name for f in fields(DailyTokens)))
_sensitivity_row = attrgetter("cap_minutes", "hours", "cluster_count")
_window_dates = attrgetter("start_date", "end_date")


class ReportError(Exception):
    """Raised for an unknown report format or a failed export."""


@dataclass(frozen=True)
class Provenance:
    tool_version: str
    window_start: str
    window_end: str
    config: dict[str, object]
    config_sha256: str
    ruleset_sha256: dict[str, str]


@dataclass
class ReportBundle:
    provenance: Provenance
    inventory: WorkspaceInventory
    metrics: MetricReport
    dedup_stats: DedupStats
    ate_sensitivity: list[ActiveTimeEstimate]
    gap_histogram: GapHistogram
    token_totals: TokenTotals
    route_totals: list[RouteTotals]
    daily_tokens: list[DailyTokens]
    token_events: list[TokenEventRow]
    association: AssociationStats
    output_proxies: list[ProxyEvent]
    governance_proxies: list[ProxyEvent]
    dated_section_count: int
    warnings: list[str] = field(default_factory=list)


# the bundle fields the structured report writes as they are
_STRUCTURED_FIELDS = tuple(f.name for f in fields(ReportBundle) if f.name != "token_events")
# writes one item of a top-level list on one line
_ONE_LINE = json.JSONEncoder(sort_keys=True)


def _dumps_report(data: dict[str, object]) -> str:
    """``data`` as ``json.dumps(data, indent=2, sort_keys=True)`` writes it,
    except that each item of a non-empty top-level list takes one line.

    Each item is one call to the C encoder, which the standard library
    leaves for a pure-Python one whenever ``indent`` is set. Every other
    value is indented one level deeper by indenting each of its newlines:
    all of them are layout, because an encoded string never holds a raw one.
    """
    fields = []
    for key, value in sorted(data.items()):
        if isinstance(value, list) and value:
            text = "[\n    " + ",\n    ".join(map(_ONE_LINE.encode, value)) + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


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


def inventory_lines(inventory: WorkspaceInventory) -> list[str]:
    """The inventory's file counts, one line each, as the report and ``scan`` print them."""
    lines = [
        f"memory files: {inventory.memory_files}",
        f"agent directories: {inventory.agent_dirs}",
        f"skill files: {inventory.skill_files}",
        f"session files (main): {inventory.session_files_main} "
        f"({inventory.recoverable_main} recoverable)",
        f"session files (all agents): {inventory.session_files_all} "
        f"({inventory.recoverable_all} recoverable)",
    ]
    for surface, count in sorted(inventory.surfaces.counts.items()):
        lines.append(f"surface {surface}: {count}")
    return lines


def governance_by_class(proxies: Iterable[ProxyEvent]) -> dict[str, int]:
    """Governance proxies per class, an unclassified one under ``unclassified``."""
    return dict(Counter(proxy.governance_class or "unclassified" for proxy in proxies))


def render_report(
    bundle: ReportBundle, format: str = "text", events_sha256: str | None = None
) -> str:
    """Render the bundle deterministically as text or structured JSON.

    The structured report holds every bundle field but the token events,
    which it points to in the events CSV: that file's path, its row count
    and ``events_sha256``, the SHA-256 of its bytes as ``export_csvs``
    wrote them. Each record of its lists takes one line (``_dumps_report``).
    """
    if format == "structured":
        if events_sha256 is None:
            raise ReportError("a structured report needs the events CSV's SHA-256")
        data = {name: to_json(getattr(bundle, name)) for name in _STRUCTURED_FIELDS}
        data["token_events"] = {
            "path": EVENTS_TOKENS_CSV,
            "rows": len(bundle.token_events),
            "sha256": events_sha256,
        }
        data["format"] = REPORT_FORMAT
        return _dumps_report(data) + "\n"
    if format != "text":
        raise ReportError(f"unknown report format: {format!r}")

    lines: list[str] = []
    provenance = bundle.provenance
    metrics = bundle.metrics
    lines.append("workspace measurement report (pare-m v0.1)")
    lines.append("=" * 44)
    lines.append(f"tool version: {provenance.tool_version}")
    lines.append(f"window: {provenance.window_start} .. {provenance.window_end}")
    lines.append(f"scope: {provenance.config['scope']}")
    lines.append(f"config sha256: {provenance.config_sha256}")
    for name, digest in provenance.ruleset_sha256.items():
        lines.append(f"ruleset {name}: {provenance.config[name]['version']} sha256 {digest}")
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
    for role, count in sorted(to_json(metrics.role_counts).items()):
        lines.append(f"role {role}: {count}")
    for estimate in bundle.ate_sensitivity:
        lines.append(
            f"active time @{estimate.cap_minutes} min cap: "
            f"{round_hours(estimate.hours):.1f} h across {estimate.cluster_count} clusters"
        )
    lines.append("")

    lines.append("inventory")
    lines.append("-" * 44)
    lines.extend(inventory_lines(bundle.inventory))
    lines.append("")

    lines.append("outputs and governance")
    lines.append("-" * 44)
    lines.append(f"dated memory sections: {bundle.dated_section_count}")
    lines.append(f"output proxies: {len(bundle.output_proxies)}")
    lines.append(f"governance proxies: {len(bundle.governance_proxies)}")
    for name, count in sorted(governance_by_class(bundle.governance_proxies).items()):
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


def csv_bytes(header: Sequence[str], rows: Iterable[Iterable[object]]) -> bytes:
    """The UTF-8 bytes of one CSV table, quoted as RFC 4180 says, with ``\n`` line ends.

    ``csv.writer`` writes ``None`` as an empty field, a float by its
    ``repr`` (full precision) and a ``date`` as ISO text.
    """
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def write_file(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path``, making its directory, and return its SHA-256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def export_csvs(bundle: ReportBundle, out_dir: str | Path) -> dict[Path, str]:
    """Write the fixed-schema CSV exports and return each written path with
    the SHA-256 of its bytes; on failure, remove partial files."""
    out_path = Path(out_dir)
    metrics = bundle.metrics
    # the rows are generators, each run only while its own file is written
    metric_rows = (
        (v.metric, v.numerator, v.denominator, *_window_dates(v.window), v.rule_id, v.value)
        for v in [*(metrics.values[name] for name in METRIC_NAMES), metrics.ate_sensitivity]
    )
    proxy_rows = (
        (p.date, p.kind, p.governance_class, "|".join(p.matched_terms), "#".join(p.section_ref))
        for p in chain(bundle.output_proxies, bundle.governance_proxies)
    )
    surface_counts = bundle.inventory.surfaces.counts
    tables = (
        (DAILY_TOKENS_CSV, DAILY_TOKENS_HEADER, map(_daily_row, bundle.daily_tokens)),
        (EVENTS_TOKENS_CSV, EVENTS_TOKENS_HEADER, bundle.token_events),
        (SENSITIVITY_CSV, SENSITIVITY_HEADER, map(_sensitivity_row, bundle.ate_sensitivity)),
        (METRICS_CSV, METRICS_HEADER, metric_rows),
        (PROXY_LEDGER_CSV, PROXY_LEDGER_HEADER, proxy_rows),
        (SURFACE_COUNTS_CSV, SURFACE_COUNTS_HEADER, sorted(surface_counts.items())),
    )
    written: dict[Path, str] = {}
    try:
        for name, header, rows in tables:
            path = out_path / name
            written[path] = write_file(path, csv_bytes(header, rows))
    except OSError as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        raise ReportError(f"csv export failed: {exc}") from exc
    return written
