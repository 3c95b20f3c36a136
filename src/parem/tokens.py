"""Token telemetry accounting for model-completed events.

All counts accumulate as exact integers; per-route and per-day partitions
reconcile to the grand totals by construction. The cache/output association
statistics use natural-log Pearson and average-rank Spearman over events
with positive counts (zero-count events are excluded and counted, unless
log1p mode is enabled).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from itertools import repeat
from operator import mul, sub
from typing import Iterable, Sequence

from .ingest import Event
from .metrics import MS_PER_DAY, ObservationWindow

UNKNOWN_ROUTE = "unknown"

REASON_TOO_FEW_EVENTS = "fewer_than_3_events"
REASON_ZERO_VARIANCE = "zero_variance"
REASON_NO_TOKENS = "no_recorded_tokens"


@dataclass(frozen=True)
class TokenTotals:
    input: int = 0
    output: int = 0
    cache_read: int = 0
    cache_write: int = 0

    # properties written beside the fields (see ``jsonfmt.to_json``)
    DERIVED_KEYS = ("total", "cdr")

    @property
    def total(self) -> int:
        return self.input + self.output + self.cache_read + self.cache_write

    @property
    def cdr(self) -> float | None:
        """Cache-read share of all recorded tokens; None when nothing recorded."""
        total = self.total
        return self.cache_read / total if total > 0 else None


@dataclass(frozen=True)
class RouteTotals:
    provider_route: str
    totals: TokenTotals
    completions: int


@dataclass(frozen=True)
class DailyTokens:
    date: date
    input: int = 0
    output: int = 0
    cache_read: int = 0
    cache_write: int = 0
    completions: int = 0


@dataclass(frozen=True)
class AssociationStats:
    pearson_r_log: float | None
    spearman_rho: float | None
    n_events: int
    excluded_zero_events: int
    reason: str | None = None

    def __post_init__(self) -> None:
        for name in ("pearson_r_log", "spearman_rho"):
            if (getattr(self, name) is None) != (self.reason is not None):
                raise ValueError(
                    f"{name} must be None exactly when a reason is given, "
                    f"got {getattr(self, name)!r} with reason {self.reason!r}"
                )


def aggregate_tokens(events: Iterable[Event]) -> TokenTotals:
    """Exact integer token sums over model-completed events."""
    input_sum = output_sum = cache_read_sum = cache_write_sum = 0
    for event in events:
        usage = event.tokens
        if event.role != "model_completed" or usage is None:
            continue
        input_sum += usage.input
        output_sum += usage.output
        cache_read_sum += usage.cache_read
        cache_write_sum += usage.cache_write
    return TokenTotals(input_sum, output_sum, cache_read_sum, cache_write_sum)


def per_route(events: Iterable[Event]) -> list[RouteTotals]:
    """Token totals grouped by provider route; routeless events fall under "unknown"."""
    sums: dict[str, list[int]] = {}
    for event in events:
        if event.role != "model_completed":
            continue
        route = event.provider_route or UNKNOWN_ROUTE
        bucket = sums.setdefault(route, [0, 0, 0, 0, 0])
        usage = event.tokens
        if usage is not None:
            bucket[0] += usage.input
            bucket[1] += usage.output
            bucket[2] += usage.cache_read
            bucket[3] += usage.cache_write
        bucket[4] += 1
    return [
        RouteTotals(route, TokenTotals(*sums[route][:4]), sums[route][4])
        for route in sorted(sums)
    ]


def daily_composition(
    events: Iterable[Event], window: ObservationWindow
) -> list[DailyTokens]:
    """One row per UTC date in the window, zero-filled where nothing happened.

    Every model-completed event must be timed inside the window.
    """
    first_day = window.ms_bounds[0] // MS_PER_DAY
    rows = [[0, 0, 0, 0, 0] for _ in range(window.calendar_days)]
    for event in events:
        if event.role != "model_completed":
            continue
        day = event.timestamp_ms // MS_PER_DAY - first_day
        if not 0 <= day < len(rows):
            raise ValueError(f"completion at {event.timestamp_ms} ms lies outside {window}")
        bucket = rows[day]
        usage = event.tokens
        if usage is not None:
            bucket[0] += usage.input
            bucket[1] += usage.output
            bucket[2] += usage.cache_read
            bucket[3] += usage.cache_write
        bucket[4] += 1
    return [
        DailyTokens(day, *row[:4], completions=row[4])
        for day, row in zip(window.dates(), rows)
    ]


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties averaged.

    A tie run spans the first to the last 1-based position its value takes
    in sorted order, and its members share the midpoint of the two.
    """
    ordered = sorted(values)
    n = len(ordered)
    last = dict(zip(ordered, range(1, n + 1)))  # a later position overwrites
    first = dict(zip(reversed(ordered), range(n, 0, -1)))
    return [(first[v] + last[v]) / 2 for v in values]


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Sample Pearson correlation; None when either side has zero variance.

    Zero variance means all values are equal, which is tested exactly: the
    floating-point variance of a constant series can leave a residue. Values
    spread so little that the variance product underflows to zero also give
    None.
    """
    if min(xs) == max(xs) or min(ys) == max(ys):
        return None
    n = len(xs)
    dxs = list(map(sub, xs, repeat(math.fsum(xs) / n)))
    dys = list(map(sub, ys, repeat(math.fsum(ys) / n)))
    cov = math.fsum(map(mul, dxs, dys))
    var_x = math.fsum(map(pow, dxs, repeat(2)))
    var_y = math.fsum(map(pow, dys, repeat(2)))
    if var_x * var_y == 0.0:
        return None
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Spearman rank correlation with average-rank tie handling."""
    return pearson(average_ranks(xs), average_ranks(ys))


def cache_output_association(
    events: Iterable[Event], log1p: bool = False
) -> AssociationStats:
    """Association between cache-read and output tokens per completion.

    Pearson runs on natural-log counts; Spearman on average ranks of the raw
    counts over the same included set. Events with a zero on either side are
    excluded and counted, unless ``log1p`` shifts the transform to ln(1+x)
    and keeps them.
    """
    pairs: list[tuple[int, int]] = []
    excluded = 0
    for event in events:
        if event.role != "model_completed" or event.tokens is None:
            continue
        cache_read, output = event.tokens.cache_read, event.tokens.output
        if not log1p and (cache_read == 0 or output == 0):
            excluded += 1
            continue
        pairs.append((cache_read, output))

    if len(pairs) < 3:
        return AssociationStats(None, None, len(pairs), excluded, REASON_TOO_FEW_EVENTS)

    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    transform = math.log1p if log1p else math.log
    r = pearson([transform(x) for x in xs], [transform(y) for y in ys])
    rho = spearman(xs, ys)
    # rho is None exactly when the integer counts on one side are all equal;
    # r also when distinct counts collapse to one float logarithm
    if r is None or rho is None:
        return AssociationStats(None, None, len(pairs), excluded, REASON_ZERO_VARIANCE)
    return AssociationStats(r, rho, len(pairs), excluded)
