"""Active system time from capped inter-event gaps over unique timestamps."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000

DEFAULT_CAP_MINUTES = 30
SENSITIVITY_CAP_MINUTES = 60
DEFAULT_CAPS: tuple[int, ...] = (15, 30, 45, 60, 90)
DEFAULT_CLIP_MINUTES = 180


@dataclass(frozen=True)
class ActiveTimeEstimate:
    cap_minutes: int
    hours: float
    cluster_count: int
    event_count: int


@dataclass(frozen=True)
class GapHistogram:
    """Left-closed bins over raw gaps in minutes; the last count is overflow.

    ``counts[i]`` covers ``[bin_edges[i], bin_edges[i+1])`` minutes for
    ``i < len(bin_edges) - 1``; ``counts[-1]`` accumulates gaps at or above
    the display clip.
    """

    bin_edges: tuple[int, ...]
    counts: tuple[int, ...]
    clip_minutes: int = DEFAULT_CLIP_MINUTES


def active_time(timestamps: Iterable[int], cap_minutes: int) -> ActiveTimeEstimate:
    """Sum consecutive gaps capped at ``cap_minutes`` over unique timestamps.

    Clusters split at gaps strictly greater than the cap, so a gap exactly
    equal to the cap contributes fully and stays inside one cluster.
    """
    return cap_sensitivity(timestamps, (cap_minutes,))[0]


def cap_sensitivity(
    timestamps: Iterable[int], caps: Sequence[int] = DEFAULT_CAPS
) -> list[ActiveTimeEstimate]:
    """One estimate per cap; hours are non-decreasing and clusters non-increasing in cap.

    The timestamps and their gaps are sorted once; each cap is then answered
    by bisecting the sorted gaps: gaps below the cap count in full (a prefix
    sum), the rest count as the cap, and each gap above the cap starts a new
    cluster. A repeated timestamp only adds a zero gap, which adds no time
    and splits no cluster, so duplicates need no removal.
    """
    if not caps:
        raise ValueError("caps must not be empty")
    for cap in caps:
        if cap <= 0:
            raise ValueError(f"cap_minutes must be positive, got {cap}")
    ordered = sorted(timestamps)
    if not ordered:
        return [ActiveTimeEstimate(cap, 0.0, 0, 0) for cap in caps]
    gaps = sorted([current - previous for previous, current in zip(ordered, ordered[1:])])
    prefix = list(accumulate(gaps, initial=0))
    n = len(gaps)
    unique_count = len(ordered) - bisect_right(gaps, 0)
    estimates = []
    for cap in caps:
        cap_ms = cap * MS_PER_MINUTE
        below = bisect_left(gaps, cap_ms)
        total_ms = prefix[below] + cap_ms * (n - below)
        clusters = 1 + n - bisect_right(gaps, cap_ms)
        estimates.append(
            ActiveTimeEstimate(cap, total_ms / MS_PER_HOUR, clusters, unique_count)
        )
    return estimates


def gap_histogram(
    timestamps: Iterable[int],
    bin_width_minutes: int,
    clip_minutes: int = DEFAULT_CLIP_MINUTES,
) -> GapHistogram:
    """Histogram of raw inter-event gaps, with gaps >= clip pooled in a final bin."""
    if bin_width_minutes <= 0:
        raise ValueError(f"bin_width_minutes must be positive, got {bin_width_minutes}")
    if clip_minutes <= 0:
        raise ValueError(f"clip_minutes must be positive, got {clip_minutes}")
    edges: list[int] = []
    edge = 0
    while edge < clip_minutes:
        edges.append(edge)
        edge += bin_width_minutes
    edges.append(clip_minutes)

    counts = [0] * len(edges)
    unique = sorted(set(timestamps))
    bin_ms = bin_width_minutes * MS_PER_MINUTE
    clip_ms = clip_minutes * MS_PER_MINUTE
    for previous, current in zip(unique, unique[1:]):
        gap = current - previous
        if gap >= clip_ms:
            counts[-1] += 1
        else:
            counts[gap // bin_ms] += 1
    return GapHistogram(tuple(edges), tuple(counts), clip_minutes)
