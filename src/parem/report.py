"""Report bundle assembly, deterministic rendering, and CSV exports.

Both reports render from one plain-data document (``report_document``): the
structured report is that document, and every number in the text report is
one of its values or the length of one of its lists, so nothing is computed
at render time and identical bundles render to identical bytes. CSV exports
carry full precision; the text report prints each metric at the decimal
places ``METRIC_DECIMALS`` gives it. Every CSV is encoded by ``csv_bytes``
and every output file written by ``write_file``.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from itertools import chain
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .activetime import ActiveTimeEstimate, GapHistogram
from .dedup import DedupStats
from .extraction import ProxyEvent
from .ingest import TokenUsage, WorkspaceInventory
from .jsonfmt import to_json
from .metrics import METRIC_NAMES, MetricReport
from .tokens import AssociationStats, DailyTokens, RouteTotals, TokenEventRow

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
PROXY_LEDGER_HEADER = ["date", "kind", "class", "family", "terms", "path", "heading"]
SURFACE_COUNTS_HEADER = ["surface", "files"]
DEDUP_LEDGER_HEADER = ["tier", "key", "source", "line"]

# config sections that may hold an inline mapping or a path to a JSON ruleset
# file (resolved relative to the config file); provenance digests each one,
# and the text report lists them in this order
RULESET_SECTIONS = ("classification", "output_rules", "governance_rules", "aliases", "conventions")
# the decimal places of each metric's printed value; the counts DRC and ASB print as integers
METRIC_DECIMALS = {"ADF": 3, "ATE": 1, "CDR": 3, "OPR": 2, "GER": 2}

# the CSV columns a record holds, in the order of its table's header
_daily_row = attrgetter(*(f.name for f in fields(DailyTokens)))
_sensitivity_row = attrgetter("cap_minutes", "hours", "cluster_count")
_window_dates = attrgetter("start_date", "end_date")


class ReportError(Exception):
    """Raised for an unknown report format."""


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
    token_totals: TokenUsage
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


def format_metric(record: Mapping) -> str:
    """A metric record of the report document as the text report prints its
    value: at its metric's ``METRIC_DECIMALS``, as an integer for a count,
    or ``undefined (<reason>)``."""
    value = record["value"]
    if value is None:
        return f"undefined ({record['reason']})"
    places = METRIC_DECIMALS.get(record["metric"])
    return str(int(value)) if places is None else f"{value:.{places}f}"


def _format_number(value: float) -> str:
    # integral values print without a decimal point or scientific notation
    return str(int(value)) if value == int(value) else repr(value)


def inventory_lines(inventory: Mapping) -> list[str]:
    """The lines that the report and ``scan`` print for an inventory's ``to_json`` data."""
    lines = [
        f"memory files: {inventory['memory_files']}",
        f"agent directories: {inventory['agent_dirs']}",
        f"skill files: {inventory['skill_files']}",
        f"session files (main): {inventory['session_files_main']} "
        f"({inventory['recoverable_main']} recoverable)",
        f"session files (all agents): {inventory['session_files_all']} "
        f"({inventory['recoverable_all']} recoverable)",
    ]
    counts = sorted(inventory["surfaces"]["counts"].items())
    return lines + [f"surface {surface}: {count}" for surface, count in counts]


def governance_by_class(classes: Iterable[str | None]) -> dict[str, int]:
    """Governance proxies per class, from their classes; ``None`` counts as ``unclassified``."""
    return dict(Counter(name or "unclassified" for name in classes))


def report_document(bundle: ReportBundle, events_sha256: str) -> dict:
    """The structured report as plain data, which both reports render from:
    every bundle field as ``to_json`` writes it but the token events, a
    pointer to the events CSV (its path, its rows and ``events_sha256``, the
    SHA-256 of the bytes ``export_csvs`` encodes for it) and the ``format``."""
    document = {name: to_json(getattr(bundle, name)) for name in _STRUCTURED_FIELDS}
    rows = len(bundle.token_events)
    document["token_events"] = {"path": EVENTS_TOKENS_CSV, "rows": rows, "sha256": events_sha256}
    document["format"] = REPORT_FORMAT
    return document


def render_report(document: Mapping, format: str = "text") -> str:
    """Render a ``report_document`` deterministically as text or structured JSON.

    The structured report is the document, each record of its lists on one
    line (``_dumps_report``). The text report reads only the document, so it
    renders the same from the document read back from ``report.json``.
    """
    if format == "structured":
        return _dumps_report(document) + "\n"
    if format != "text":
        raise ReportError(f"unknown report format: {format!r}")

    provenance, metrics = document["provenance"], document["metrics"]
    config, digests = provenance["config"], provenance["ruleset_sha256"]
    lines = [
        "workspace measurement report (pare-m v0.1)",
        "=" * 44,
        f"tool version: {provenance['tool_version']}",
        f"window: {provenance['window_start']} .. {provenance['window_end']}",
        f"scope: {config['scope']}",
        f"config sha256: {provenance['config_sha256']}",
        *(f"ruleset {n}: {config[n]['version']} sha256 {digests[n]}" for n in RULESET_SECTIONS),
        "",
    ]

    def section(title: str, body: Iterable[str]) -> None:
        lines.extend((title, "-" * 44, *body, ""))

    def dominance(totals: Mapping) -> str:
        cdr = totals["cdr"]
        return "undefined" if cdr is None else f"{cdr:.{METRIC_DECIMALS['CDR']}f}"

    body = []
    for name in METRIC_NAMES:
        value = metrics["values"][name]
        body.append(
            f"{name}: {format_metric(value)}  "
            f"[{_format_number(value['numerator'])} / {_format_number(value['denominator'])}]  "
            f"rule={value['rule_id']}"
        )
    sensitivity = metrics["ate_sensitivity"]
    body.append(f"ATE sensitivity: {format_metric(sensitivity)} h  rule={sensitivity['rule_id']}")
    section("metrics", body + [f"note: {annotation}" for annotation in metrics["annotations"]])

    dedup, hours = document["dedup_stats"], METRIC_DECIMALS["ATE"]
    body = [
        f"active days: {metrics['active_day_count']}",
        f"de-duplicated records: {dedup['retained_count']}",
        f"records before de-duplication: {dedup['input_count']}",
    ]
    body += [f"role {role}: {count}" for role, count in sorted(metrics["role_counts"].items())]
    for estimate in document["ate_sensitivity"]:
        body.append(
            f"active time @{estimate['cap_minutes']} min cap: "
            f"{estimate['hours']:.{hours}f} h across {estimate['cluster_count']} clusters"
        )
    section("utilization", body)
    section("inventory", inventory_lines(document["inventory"]))

    governance = document["governance_proxies"]
    classes = governance_by_class(proxy["governance_class"] for proxy in governance)
    section(
        "outputs and governance",
        [
            f"dated memory sections: {document['dated_section_count']}",
            f"output proxies: {len(document['output_proxies'])}",
            f"governance proxies: {len(governance)}",
            *(f"governance class {name}: {count}" for name, count in sorted(classes.items())),
        ],
    )

    totals, association = document["token_totals"], document["association"]
    body = [
        f"total recorded tokens: {totals['total']}",
        f"input tokens: {totals['input']}",
        f"output tokens: {totals['output']}",
        f"cache-read tokens: {totals['cache_read']}",
        f"cache-write tokens: {totals['cache_write']}",
        f"cache dominance: {dominance(totals)}",
    ]
    for route in document["route_totals"]:
        body.append(
            f"route {route['provider_route']}: {route['totals']['total']} tokens, "
            f"{route['completions']} completions, cache dominance {dominance(route['totals'])}"
        )
    if association["reason"] is not None:
        body.append(f"cache/output association: undefined ({association['reason']})")
    else:
        body.append(
            "cache/output association: "
            f"pearson(log) {association['pearson_r_log']:.2f}, "
            f"spearman {association['spearman_rho']:.2f} "
            f"over {association['n_events']} completions "
            f"({association['excluded_zero_events']} zero-count excluded)"
        )
    section("token telemetry", body)

    if document["warnings"]:
        section("warnings", [f"- {warning}" for warning in document["warnings"]])
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


def write_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def export_csvs(bundle: ReportBundle) -> dict[str, bytes]:
    """The bytes of each fixed-schema CSV export, by its output name."""
    metrics = bundle.metrics
    # the rows are generators, each run only while its own table is encoded
    metric_rows = (
        (v.metric, v.numerator, v.denominator, *_window_dates(v.window), v.rule_id, v.value)
        for v in [*(metrics.values[name] for name in METRIC_NAMES), metrics.ate_sensitivity]
    )
    proxy_rows = (
        (p.date, p.kind, p.governance_class, p.family, "|".join(p.matched_terms), *p.section_ref)
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
    return {name: csv_bytes(header, rows) for name, header, rows in tables}
