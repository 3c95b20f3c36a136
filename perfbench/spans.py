"""Span tracing of parem's layers from outside the package.

The tracer replaces the public functions each layer exposes, as the
``parem.pipeline`` and ``parem.ingest`` namespaces see them, with wrappers
that record one span per call (name, start, end, parent) and the counts the
layer's inputs and results carry. Spans stay in memory; ``layer_metrics``
turns them into the per-layer figures after the run.

A wrapped function that no longer exists, or that the pipeline no longer
calls through that namespace, turns the metrics that depend on it into
nulls with a reason. Tracing never changes what the wrapped function
returns.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from statistics import median, median_low
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


def _parse_counts(args, kwargs, result) -> dict:
    events, stats = result
    return {"files": 1, "lines": stats.total_lines, "events": len(events)}


def _dedup_counts(args, kwargs, result) -> dict:
    _, stats = result
    counts = {"events_in": stats.input_count, "events_retained": stats.retained_count}
    for tier in ("explicit_id", "content_hash", "trajectory_hash"):
        counts[f"removed.{tier}"] = stats.removed_by_tier.get(tier, 0)
    return counts


def _render_name(args, kwargs) -> str:
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "text")
    return "report.render_json" if fmt == "structured" else "report.render_text"


# (module, attribute, span name or a function of the call's arguments that
# returns one, counts of the call). A ``None`` span name counts calls only:
# ``utc_date`` runs about three times per event, and a span per call would
# cost more than the function.
WRAPS: tuple = (
    ("parem.pipeline", "run_analysis", "pipeline.run_analysis", None),
    ("parem.pipeline", "scan_and_parse", "ingest.scan_and_parse", None),
    ("parem.ingest", "discover_workspace", "ingest.discover_workspace", None),
    ("parem.ingest", "parse_session_file", "ingest.parse_session_file", _parse_counts),
    (
        "parem.ingest",
        "surface_counts",
        "classify.surface_counts",
        lambda a, k, r: {"files": len(a[0])},
    ),
    ("parem.pipeline", "deduplicate", "dedup.deduplicate", _dedup_counts),
    (
        "parem.pipeline",
        "cap_sensitivity",
        "activetime.cap_sensitivity",
        lambda a, k, r: {"unique_timestamps": len(set(a[0]))},
    ),
    ("parem.pipeline", "gap_histogram", "activetime.gap_histogram", None),
    ("parem.activetime", "active_time", None, None),
    ("parem.metrics", "active_time", None, None),
    (
        "parem.pipeline",
        "parse_memory_sections",
        "extraction.parse_memory_sections",
        lambda a, k, r: {"sections": len(r[0])},
    ),
    (
        "parem.pipeline",
        "extract_output_proxies",
        "extraction.extract_output_proxies",
        lambda a, k, r: {"proxies": len(r)},
    ),
    (
        "parem.pipeline",
        "extract_governance_events",
        "extraction.extract_governance_events",
        lambda a, k, r: {"events": len(r)},
    ),
    (
        "parem.pipeline",
        "aggregate_tokens",
        "tokens.aggregate_tokens",
        lambda a, k, r: {"strict": len(a[0])},
    ),
    ("parem.pipeline", "per_route", "tokens.per_route", None),
    ("parem.pipeline", "daily_composition", "tokens.daily_composition", None),
    ("parem.pipeline", "cache_output_association", "tokens.cache_output_association", None),
    ("parem.pipeline", "compute_pare_m", "metrics.compute_pare_m", None),
    ("parem.pipeline", "utc_date", None, None),
    ("parem.metrics", "utc_date", None, None),
    ("parem.tokens", "utc_date", None, None),
    ("parem.pipeline", "render_report", _render_name, None),
    ("parem.pipeline", "export_csvs", "report.export_csvs", None),
)


def wrap_key(module: str, attribute: str) -> str:
    return f"{module}.{attribute}"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    # wrap key -> why it could not be wrapped or counted
    missing: dict[str, str] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def install(self) -> None:
        for module_name, attribute, span_name, counter in WRAPS:
            key = wrap_key(module_name, attribute)
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                self.missing[key] = f"module {module_name} not importable ({exc})"
                continue
            original = getattr(module, attribute, None)
            if not callable(original):
                self.missing[key] = f"{key} no longer exists"
                continue
            self.counts[key] = {}
            if span_name is None:
                wrapper = self._counting(key, original)
            else:
                wrapper = self._spanning(key, original, span_name, counter)
            setattr(module, attribute, wrapper)

    def _counting(self, key: str, original: Callable) -> Callable:
        bucket = self.counts[key]
        bucket["calls"] = 0

        def wrapper(*args, **kwargs):
            bucket["calls"] += 1
            return original(*args, **kwargs)

        return wrapper

    def _spanning(
        self, key: str, original: Callable, span_name, counter: Callable | None
    ) -> Callable:
        bucket = self.counts[key]

        def wrapper(*args, **kwargs):
            name = span_name if isinstance(span_name, str) else span_name(args, kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            bucket["calls"] = bucket.get("calls", 0) + 1
            if counter is not None:
                try:
                    increments = counter(args, kwargs, result)
                except Exception as exc:  # a changed signature must not abort the run
                    self.missing[key] = f"cannot count {key}: {exc.__class__.__name__}: {exc}"
                else:
                    for name, value in increments.items():
                        bucket[name] = bucket.get(name, 0) + value
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


_SCAN = "parem.pipeline.scan_and_parse"
_DISCOVER = "parem.ingest.discover_workspace"
_PARSE = "parem.ingest.parse_session_file"
_CLASSIFY = "parem.ingest.surface_counts"
_DEDUP = "parem.pipeline.deduplicate"
_CAPS = "parem.pipeline.cap_sensitivity"
_HIST = "parem.pipeline.gap_histogram"
_PARE_M = "parem.pipeline.compute_pare_m"
_ACTIVE = ("parem.activetime.active_time", "parem.metrics.active_time")
_UTC = ("parem.pipeline.utc_date", "parem.metrics.utc_date", "parem.tokens.utc_date")
_SECTIONS = "parem.pipeline.parse_memory_sections"
_OUTPUTS = "parem.pipeline.extract_output_proxies"
_GOVERNANCE = "parem.pipeline.extract_governance_events"
_AGGREGATE = "parem.pipeline.aggregate_tokens"
_ROUTES = "parem.pipeline.per_route"
_DAILY = "parem.pipeline.daily_composition"
_ASSOCIATION = "parem.pipeline.cache_output_association"
_RENDER = "parem.pipeline.render_report"
_EXPORT = "parem.pipeline.export_csvs"
_RUN = "parem.pipeline.run_analysis"
_TIERS = ("explicit_id", "content_hash", "trajectory_hash")

# Computed by the caller from a traced and an untraced run: traced total
# minus the untraced analysis time.
TRACE_OVERHEAD = "pipeline.trace_overhead_s"


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def layer_metrics(
    tracer: Tracer, files_written: int, bytes_written: int
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Per-layer figures of one traced run, and the reason for each null."""
    spans = tracer.spans
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def own(name: str) -> float:
        return sum(selfs[i] for i, s in enumerate(spans) if s.name == name)

    def count(key: str, name: str) -> int:
        return tracer.counts.get(key, {}).get(name, 0)

    def ratio(numerator: float, denominator: float) -> float | None:
        return numerator / denominator if denominator else None

    def timed(key: str, span_name: str, self_time: bool = False):
        return ((key,), lambda: (own if self_time else total)(span_name))

    spanned = tuple(wrap_key(m, a) for m, a, name, _ in WRAPS if name is not None)
    parse_s = total("ingest.parse_session_file")
    lines = count(_PARSE, "lines")
    # metric -> (wrap keys it depends on, how to compute it)
    table: dict[str, tuple[tuple[str, ...], Callable[[], float | int | None]]] = {
        "ingest.discover_s": timed(_DISCOVER, "ingest.discover_workspace"),
        "ingest.parse_s": timed(_PARSE, "ingest.parse_session_file"),
        # canonical sort and inventory: only meaningful while its children are traced
        "ingest.scan_self_s": (
            (_SCAN, _DISCOVER, _PARSE, _CLASSIFY),
            lambda: own("ingest.scan_and_parse"),
        ),
        "ingest.files_parsed": ((_PARSE,), lambda: count(_PARSE, "files")),
        "ingest.lines_read": ((_PARSE,), lambda: lines),
        "ingest.events_parsed": ((_PARSE,), lambda: count(_PARSE, "events")),
        "ingest.parse_yield": ((_PARSE,), lambda: ratio(count(_PARSE, "events"), lines)),
        "ingest.lines_per_s": ((_PARSE,), lambda: ratio(lines, parse_s)),
        "classify.surface_counts_s": timed(_CLASSIFY, "classify.surface_counts"),
        "classify.files_classified": ((_CLASSIFY,), lambda: count(_CLASSIFY, "files")),
        "dedup.deduplicate_s": timed(_DEDUP, "dedup.deduplicate"),
        "dedup.events_in": ((_DEDUP,), lambda: count(_DEDUP, "events_in")),
        "dedup.events_retained": ((_DEDUP,), lambda: count(_DEDUP, "events_retained")),
        "dedup.retained_ratio": (
            (_DEDUP,),
            lambda: ratio(count(_DEDUP, "events_retained"), count(_DEDUP, "events_in")),
        ),
        **{
            f"dedup.removed.{tier}": ((_DEDUP,), lambda t=tier: count(_DEDUP, f"removed.{t}"))
            for tier in _TIERS
        },
        "activetime.cap_sensitivity_s": timed(_CAPS, "activetime.cap_sensitivity"),
        "activetime.gap_histogram_s": timed(_HIST, "activetime.gap_histogram"),
        "activetime.active_time_calls": (_ACTIVE, lambda: sum(count(k, "calls") for k in _ACTIVE)),
        "activetime.unique_timestamps": ((_CAPS,), lambda: count(_CAPS, "unique_timestamps")),
        "metrics.compute_pare_m_self_s": timed(_PARE_M, "metrics.compute_pare_m", self_time=True),
        "metrics.utc_date_calls": (_UTC, lambda: sum(count(k, "calls") for k in _UTC)),
        "extraction.parse_memory_sections_s": timed(_SECTIONS, "extraction.parse_memory_sections"),
        "extraction.output_proxies_s": timed(_OUTPUTS, "extraction.extract_output_proxies"),
        "extraction.governance_s": timed(
            _GOVERNANCE, "extraction.extract_governance_events"
        ),
        "extraction.sections": ((_SECTIONS,), lambda: count(_SECTIONS, "sections")),
        "extraction.output_proxies": ((_OUTPUTS,), lambda: count(_OUTPUTS, "proxies")),
        "extraction.governance_events": ((_GOVERNANCE,), lambda: count(_GOVERNANCE, "events")),
        "tokens.aggregate_s": timed(_AGGREGATE, "tokens.aggregate_tokens"),
        "tokens.per_route_s": timed(_ROUTES, "tokens.per_route"),
        "tokens.daily_s": timed(_DAILY, "tokens.daily_composition"),
        "tokens.association_s": timed(_ASSOCIATION, "tokens.cache_output_association"),
        "tokens.strict_completions": ((_AGGREGATE,), lambda: count(_AGGREGATE, "strict")),
        "report.render_text_s": timed(_RENDER, "report.render_text"),
        "report.render_json_s": timed(_RENDER, "report.render_json"),
        "report.export_csvs_s": timed(_EXPORT, "report.export_csvs"),
        "report.files_written": ((_RUN,), lambda: files_written),
        "report.bytes_written": ((_RUN,), lambda: bytes_written),
        # what is left of run_analysis once every layer span is taken out;
        # null when any layer is not traced, whose time would move into it
        "pipeline.glue_s": (spanned, lambda: own("pipeline.run_analysis")),
        "pipeline.traced_total_s": timed(_RUN, "pipeline.run_analysis"),
    }

    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for name, (keys, compute) in table.items():
        reason = _unavailable(tracer, keys, any_of=keys in (_ACTIVE, _UTC))
        value = compute() if reason is None else None
        if reason is None and value is None:
            reason = "zero denominator"
        values[name] = value
        if reason is not None:
            reasons[name] = reason
    return values, reasons


def _unavailable(tracer: Tracer, keys: tuple[str, ...], any_of: bool) -> str | None:
    """Why a metric over ``keys`` cannot be trusted, or None.

    A function that exists but is no longer reached through the wrapped name
    would read as zero work, so it counts as unavailable too. With
    ``any_of`` the keys are alternative call sites and one suffices.
    """
    problems = []
    for key in keys:
        if key in tracer.missing:
            problems.append(tracer.missing[key])
        elif not tracer.counts[key].get("calls"):
            problems.append(f"{key} never called through this name")
    if any_of and len(problems) < len(keys):
        return None
    return "; ".join(problems) or None


def medians(runs: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Per-metric median over traced runs; null when any run has it null.

    Counts repeat exactly from run to run and keep their integer type.
    """
    out: dict[str, float | None] = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if any(v is None for v in values):
            out[name] = None
        else:
            out[name] = (median_low if unit_of(name) == "count" else median)(values)
    return out
