"""Active system time from capped inter-event gaps over unique timestamps."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from operator import sub
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


class Timeline(list):
    """Sorted unique timestamps in epoch ms, with their gaps sorted once.

    ``gaps`` (ascending) and ``prefix`` (``prefix[k]`` is the sum of the
    ``k`` smallest gaps, in integer ms) are built when first asked for and
    kept, so every figure read off one timeline shares one sort. A list, so
    it compares and indexes as one; do not change it after building.
    """

    @classmethod
    def of(cls, timestamps: Iterable[int]) -> "Timeline":
        """The timeline of any timestamps; a timeline passes straight through."""
        if isinstance(timestamps, Timeline):
            return timestamps
        return cls(dict.fromkeys(sorted(timestamps)))

    @cached_property
    def gaps(self) -> list[int]:
        return sorted(map(sub, islice(self, 1, None), self))

    @cached_property
    def prefix(self) -> list[int]:
        return list(accumulate(self.gaps, initial=0))


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

    Each cap is answered by bisecting the timeline's sorted gaps: gaps below
    the cap count in full (a prefix sum), the rest count as the cap, and each
    gap above the cap starts a new cluster. Given a ``Timeline``, this costs
    O(log n) per cap; other timestamps are made into one first.
    """
    if not caps:
        raise ValueError("caps must not be empty")
    for cap in caps:
        if cap <= 0:
            raise ValueError(f"cap_minutes must be positive, got {cap}")
    timeline = Timeline.of(timestamps)
    if not timeline:
        return [ActiveTimeEstimate(cap, 0.0, 0, 0) for cap in caps]
    gaps, prefix = timeline.gaps, timeline.prefix
    n = len(gaps)
    estimates = []
    for cap in caps:
        cap_ms = cap * MS_PER_MINUTE
        below = bisect_left(gaps, cap_ms)
        total_ms = prefix[below] + cap_ms * (n - below)
        clusters = 1 + n - bisect_right(gaps, cap_ms)
        estimates.append(
            ActiveTimeEstimate(cap, total_ms / MS_PER_HOUR, clusters, len(timeline))
        )
    return estimates


def gap_histogram(
    timestamps: Iterable[int],
    bin_width_minutes: int,
    clip_minutes: int = DEFAULT_CLIP_MINUTES,
) -> GapHistogram:
    """Histogram of the gaps between unique timestamps, with gaps >= clip
    pooled in a final bin.

    A bin's count is the difference of the bisections of the timeline's
    sorted gaps at its two edges, in ms. Given a ``Timeline``, this costs
    O(log n) per bin; other timestamps are made into one first.
    """
    if bin_width_minutes <= 0:
        raise ValueError(f"bin_width_minutes must be positive, got {bin_width_minutes}")
    if clip_minutes <= 0:
        raise ValueError(f"clip_minutes must be positive, got {clip_minutes}")
    edges = [*range(0, clip_minutes, bin_width_minutes), clip_minutes]
    gaps = Timeline.of(timestamps).gaps
    below = [bisect_left(gaps, edge * MS_PER_MINUTE) for edge in edges]
    counts = [*map(sub, below[1:], below), len(gaps) - below[-1]]
    return GapHistogram(tuple(edges), tuple(counts), clip_minutes)
