"""The PARE-M v0.1 metric suite.

Every metric is emitted with its numerator, denominator, time window, and a
versioned computation-rule identifier. Undefined metrics carry an explicit
reason code instead of a value; they are never reported as zero.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from functools import partial
from operator import attrgetter, is_not
from typing import TYPE_CHECKING, Iterable, Sequence

from .activetime import DEFAULT_CAP_MINUTES, SENSITIVITY_CAP_MINUTES, Timeline, active_time
from .ingest import Event, ROLES, WorkspaceInventory

if TYPE_CHECKING:
    from .extraction import ProxyEvent
    from .tokens import TokenTotals

METRIC_NAMES: tuple[str, ...] = ("ADF", "DRC", "ATE", "CDR", "OPR", "GER", "ASB")

RULE_IDS: dict[str, str] = {
    "ADF": "pare-m-0.1/adf/active-days-over-calendar-days",
    "DRC": "pare-m-0.1/drc/unique-records-after-key-cascade",
    "ATE": "pare-m-0.1/ate/capped-gap-sum-30min",
    "ATE_SENSITIVITY": "pare-m-0.1/ate/capped-gap-sum-60min",
    "CDR": "pare-m-0.1/cdr/cache-read-over-total-tokens",
    "OPR": "pare-m-0.1/opr/output-proxies-per-active-day",
    "GER": "pare-m-0.1/ger/governance-proxies-per-active-day",
    "ASB": "pare-m-0.1/asb/distinct-artifact-surfaces",
}

REASON_ZERO_DENOMINATOR = "zero_denominator"

MS_PER_DAY = 86_400_000
EPOCH_DATE = date(1970, 1, 1)


@dataclass(frozen=True)
class ObservationWindow:
    start_date: date
    end_date: date

    def __post_init__(self) -> None:
        if self.end_date < self.start_date:
            raise ValueError(
                f"window end {self.end_date} precedes start {self.start_date}"
            )

    @property
    def calendar_days(self) -> int:
        return (self.end_date - self.start_date).days + 1

    def contains(self, day: date) -> bool:
        return self.start_date <= day <= self.end_date

    @property
    def ms_bounds(self) -> tuple[int, int]:
        """``[lo, hi)`` in UTC epoch ms: ``lo <= ts < hi`` iff ts's UTC date is inside."""
        return (
            (self.start_date - EPOCH_DATE).days * MS_PER_DAY,
            (self.end_date - EPOCH_DATE).days * MS_PER_DAY + MS_PER_DAY,
        )

    def dates(self) -> Iterable[date]:
        current = self.start_date
        while current <= self.end_date:
            yield current
            current += timedelta(days=1)


@dataclass(frozen=True)
class MetricValue:
    metric: str
    numerator: float
    denominator: float
    window: ObservationWindow
    rule_id: str
    value: float | None
    reason: str | None = None


@dataclass(frozen=True)
class RoleCounts:
    user: int = 0
    assistant: int = 0
    tool_result: int = 0
    tool_call: int = 0
    model_completed: int = 0
    other: int = 0

    @property
    def total(self) -> int:
        return sum(getattr(self, role) for role in ROLES)


@dataclass(frozen=True)
class MetricReport:
    window: ObservationWindow
    values: dict[str, MetricValue]
    ate_sensitivity: MetricValue
    role_counts: RoleCounts
    active_day_count: int
    annotations: tuple[str, ...] = ()


def utc_date(timestamp_ms: int) -> date:
    return datetime.fromtimestamp(timestamp_ms / 1000, tz=timezone.utc).date()


def sorted_timestamps(events: Iterable[Event]) -> list[int]:
    """The timed events' timestamps in ascending order, repeats kept."""
    return sorted(filter(partial(is_not, None), map(attrgetter("timestamp_ms"), events)))


def _active_days(timeline: Timeline) -> int:
    """The number of UTC dates the timeline touches, by one bisection per date."""
    count = i = 0
    while i < len(timeline):
        count += 1
        i = bisect_left(timeline, (timeline[i] // MS_PER_DAY + 1) * MS_PER_DAY, i)
    return count


def role_counts(events: Iterable[Event]) -> RoleCounts:
    counts = {role: 0 for role in ROLES}
    for event in events:
        counts[event.role] += 1
    return RoleCounts(**counts)


def ratio_metric(
    metric: str,
    numerator: float,
    denominator: float,
    window: ObservationWindow,
    rule_id: str | None = None,
) -> MetricValue:
    """A MetricValue whose value is numerator/denominator, or undefined."""
    rule = rule_id if rule_id is not None else RULE_IDS[metric]
    if denominator > 0:
        return MetricValue(metric, numerator, denominator, window, rule, numerator / denominator)
    return MetricValue(
        metric, numerator, denominator, window, rule, None, reason=REASON_ZERO_DENOMINATOR
    )


def round_proportion(value: float) -> float:
    return round(value, 3)


def round_rate(value: float) -> float:
    return round(value, 2)


def round_hours(value: float) -> float:
    return round(value, 1)


def compute_pare_m(
    events: Sequence[Event],
    proxies: Sequence["ProxyEvent"],
    inventory: WorkspaceInventory,
    window: ObservationWindow,
    token_totals: "TokenTotals",
    timestamps: Iterable[int],
) -> MetricReport:
    """Assemble the full PARE-M report from de-duplicated analysis inputs.

    ``events`` must already be de-duplicated and scoped, and ``timestamps``
    are those events' timestamps inside the window, such as the timeline
    that ``Analysis.active_time`` cuts with ``Timeline.between``. ATE and
    its sensitivity use the 30- and 60-minute caps their rule ids name. OPR and GER are flagged
    undefined (never infinite) when there are no active days.
    """
    timestamps = Timeline.of(timestamps)
    day_count = _active_days(timestamps)

    primary = active_time(timestamps, DEFAULT_CAP_MINUTES)
    sensitivity = active_time(timestamps, SENSITIVITY_CAP_MINUTES)

    output_count = sum(1 for p in proxies if p.kind == "output")
    governance_count = sum(1 for p in proxies if p.kind == "governance")

    values = {
        "ADF": ratio_metric("ADF", day_count, window.calendar_days, window),
        "DRC": ratio_metric("DRC", len(events), 1, window),
        "ATE": MetricValue(
            "ATE",
            primary.hours * 3600,
            3600,
            window,
            RULE_IDS["ATE"],
            primary.hours,
        ),
        "CDR": ratio_metric("CDR", token_totals.cache_read, token_totals.total, window),
        "OPR": ratio_metric("OPR", output_count, day_count, window),
        "GER": ratio_metric("GER", governance_count, day_count, window),
        "ASB": ratio_metric("ASB", inventory.surfaces.asb, 1, window),
    }
    ate_sensitivity = MetricValue(
        "ATE",
        sensitivity.hours * 3600,
        3600,
        window,
        RULE_IDS["ATE_SENSITIVITY"],
        sensitivity.hours,
    )

    annotations: list[str] = []
    if timestamps:
        earliest = utc_date(timestamps[0])
        if earliest > window.start_date:
            annotations.append(
                "active-day and record counts are lower bounds: earliest recoverable "
                f"event is {earliest.isoformat()}, after the window start "
                f"{window.start_date.isoformat()}"
            )

    return MetricReport(
        window=window,
        values=values,
        ate_sensitivity=ate_sensitivity,
        role_counts=role_counts(events),
        active_day_count=day_count,
        annotations=tuple(annotations),
    )
