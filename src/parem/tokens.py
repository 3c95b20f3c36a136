"""Token telemetry accounting for model-completed events.

Every figure is read off the strict subset's rows (``TokenEventRow``, one per
completion, as the events CSV holds them), which the pipeline builds once.
All counts accumulate as exact integers, by column sums; per-route and
per-day partitions reconcile to the grand totals by construction. The
cache/output association statistics use natural-log Pearson and
average-rank Spearman over completions with positive counts (zero-count
completions are excluded and counted, unless log1p mode is enabled).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from itertools import compress, groupby, repeat
from operator import itemgetter, mul, sub
from typing import NamedTuple, Sequence

from .ingest import TokenUsage
from .metrics import MS_PER_DAY, ObservationWindow

UNKNOWN_ROUTE = "unknown"

REASON_TOO_FEW_EVENTS = "fewer_than_3_events"
REASON_ZERO_VARIANCE = "zero_variance"


class TokenEventRow(NamedTuple):
    """One strict-subset completion, as exported to the events CSV."""

    timestamp_ms: int | None
    provider_route: str
    model: str
    input: int
    output: int
    cache_read: int
    cache_write: int


_timestamp = itemgetter(0)
_route = itemgetter(1)
_output = itemgetter(4)
_cache_read = itemgetter(5)
# input, output, cache_read and cache_write
_token_columns = tuple(map(itemgetter, range(3, 7)))


@dataclass(frozen=True)
class RouteTotals:
    provider_route: str
    totals: TokenUsage
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


def _token_sums(rows: Sequence[TokenEventRow]) -> list[int]:
    """The sums of the four token columns."""
    return [sum(map(column, rows)) for column in _token_columns]


def aggregate_tokens(rows: Sequence[TokenEventRow]) -> TokenUsage:
    """Exact integer token sums over the strict subset's rows."""
    return TokenUsage(*_token_sums(rows))


def per_route(rows: Sequence[TokenEventRow]) -> list[RouteTotals]:
    """Token totals and completions per provider route, in route order."""
    routes = []
    for route, group in groupby(sorted(rows, key=_route), _route):
        group = list(group)
        routes.append(RouteTotals(route, aggregate_tokens(group), len(group)))
    return routes


def daily_composition(
    rows: Sequence[TokenEventRow], window: ObservationWindow
) -> list[DailyTokens]:
    """One row per UTC date in the window, zero-filled where nothing happened.

    Every row must be timed inside the window. The rows of one date are
    found by bisecting the timestamps at each midnight.
    """
    rows = sorted(rows, key=_timestamp)
    stamps = list(map(_timestamp, rows))
    lo, hi = window.ms_bounds
    for stamp in stamps[:1] + stamps[-1:]:
        if not lo <= stamp < hi:
            raise ValueError(f"completion at {stamp} ms lies outside {window}")
    bounds = [bisect_left(stamps, midnight) for midnight in range(lo, hi + 1, MS_PER_DAY)]
    return [
        DailyTokens(day, *_token_sums(rows[start:stop]), completions=stop - start)
        for day, start, stop in zip(window.dates(), bounds, bounds[1:])
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
    rows: Sequence[TokenEventRow], log1p: bool = False
) -> AssociationStats:
    """Association between cache-read and output tokens per completion.

    Pearson runs on natural-log counts; Spearman on average ranks of the raw
    counts over the same included set. Completions with a zero on either side
    are excluded and counted, unless ``log1p`` shifts the transform to
    ln(1+x) and keeps them. The sums are ``math.fsum``, exactly rounded, and
    the ranks depend only on the values, so the rows' order cannot change
    the result.
    """
    # two columns, not a pair per completion: the rows are held as well,
    # and a tuple each would add to the stage's peak memory
    xs = list(map(_cache_read, rows))
    ys = list(map(_output, rows))
    if not log1p:
        kept = list(map(all, zip(xs, ys)))
        xs, ys = list(compress(xs, kept)), list(compress(ys, kept))
    n, excluded = len(xs), len(rows) - len(xs)

    if n < 3:
        return AssociationStats(None, None, n, excluded, REASON_TOO_FEW_EVENTS)

    transform = math.log1p if log1p else math.log
    r = pearson(list(map(transform, xs)), list(map(transform, ys)))
    rho = spearman(xs, ys)
    # rho is None exactly when the integer counts on one side are all equal;
    # r also when distinct counts collapse to one float logarithm
    if r is None or rho is None:
        return AssociationStats(None, None, n, excluded, REASON_ZERO_VARIANCE)
    return AssociationStats(r, rho, n, excluded)
