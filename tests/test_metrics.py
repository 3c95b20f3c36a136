from __future__ import annotations

import math
from dataclasses import astuple, fields
from datetime import date, timedelta
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analysis_of, make_completion, make_event, window_timeline
from parem.ingest import TokenUsage, WorkspaceInventory
from parem.classify import SurfaceCounts
from parem.metrics import (
    METRIC_NAMES,
    ObservationWindow,
    RoleCounts,
    compute_pare_m,
    ratio_metric,
    role_counts,
    round_proportion,
    round_rate,
    utc_date,
)

REFERENCE_WINDOW = ObservationWindow(date(2026, 1, 31), date(2026, 5, 25))
DAY_MS = 86_400_000
FEB2_MS = 1_769_990_400_000  # 2026-02-02T00:00:00Z


def date_oracle_days(start: date, end: date) -> int:
    """Independent inclusive day count by explicit iteration."""
    count = 0
    current = start
    while current <= end:
        count += 1
        current += timedelta(days=1)
    return count


class TestCalendarDays:
    def test_published_window_is_115_days(self):
        assert date_oracle_days(date(2026, 1, 31), date(2026, 5, 25)) == 115
        assert REFERENCE_WINDOW.calendar_days == 115

    def test_single_day(self):
        window = ObservationWindow(date(2026, 3, 3), date(2026, 3, 3))
        assert window.calendar_days == 1

    def test_leap_february(self):
        window = ObservationWindow(date(2024, 2, 1), date(2024, 3, 1))
        assert date_oracle_days(window.start_date, window.end_date) == 30
        assert window.calendar_days == 30

    def test_inverted_window_rejected(self):
        with pytest.raises(ValueError):
            ObservationWindow(date(2026, 2, 2), date(2026, 2, 1))


def pare_m(events, window):
    """The metrics of a run over ``window`` whose de-duplicated records are ``events``."""
    analysis = analysis_of(events, window)
    return compute_pare_m(
        analysis.windowed, [], empty_inventory(), window, TokenUsage(), analysis.active_time[0]
    )


class TestActiveDays:
    def test_empty(self):
        assert pare_m([], REFERENCE_WINDOW).active_day_count == 0

    def test_every_day_of_ten_day_window(self):
        window = ObservationWindow(date(2026, 2, 2), date(2026, 2, 11))
        events = [
            make_event(timestamp_ms=FEB2_MS + i * DAY_MS, content_prefix=f"d{i}")
            for i in range(10)
        ]
        report = pare_m(events, window)
        assert report.active_day_count == 10
        assert report.values["ADF"].value == 1.0

    def test_outside_window_excluded(self):
        window = ObservationWindow(date(2026, 2, 2), date(2026, 2, 3))
        events = [
            make_event(timestamp_ms=FEB2_MS),
            make_event(timestamp_ms=FEB2_MS + 40 * DAY_MS),
        ]
        assert pare_m(events, window).active_day_count == 1

    def test_untimed_ignored(self):
        assert pare_m([make_event()], REFERENCE_WINDOW).active_day_count == 0

    def test_utc_day_boundary(self):
        last_ms_of_feb2 = FEB2_MS + DAY_MS - 1
        assert utc_date(last_ms_of_feb2) == date(2026, 2, 2)
        assert utc_date(last_ms_of_feb2 + 1) == date(2026, 2, 3)


class TestRoleCounts:
    def test_empty(self):
        counts = role_counts([])
        assert sum(astuple(counts)) == 0

    def test_fixture(self):
        events = (
            [make_event(role="user", line=i) for i in range(2)]
            + [make_event(role="assistant", line=i) for i in range(3)]
            + [make_event(role="tool_call", line=9)]
        )
        counts = role_counts(events)
        assert (
            counts.user,
            counts.assistant,
            counts.tool_result,
            counts.tool_call,
            counts.model_completed,
            counts.other,
        ) == (2, 3, 0, 1, 0, 0)


class TestReferenceArithmetic:
    def test_adf(self):
        metric = ratio_metric("ADF", 96, 115, REFERENCE_WINDOW)
        assert round_proportion(metric.value) == 0.835

    def test_opr(self):
        metric = ratio_metric("OPR", 482, 96, REFERENCE_WINDOW)
        assert round_rate(metric.value) == 5.02

    def test_ger(self):
        metric = ratio_metric("GER", 889, 96, REFERENCE_WINDOW)
        assert round_rate(metric.value) == 9.26

    def test_cdr(self):
        metric = ratio_metric("CDR", 61_278_669, 73_950_305, REFERENCE_WINDOW)
        assert round_proportion(metric.value) == 0.829

    def test_undefined_on_zero_denominator(self):
        metric = ratio_metric("OPR", 5, 0, REFERENCE_WINDOW)
        assert metric.value is None
        assert metric.reason == "zero_denominator"


def empty_inventory(surface_counts_map=None) -> WorkspaceInventory:
    return WorkspaceInventory(
        surfaces=SurfaceCounts(counts=surface_counts_map or {})
    )


class TestComputePareM:
    def test_empty_workspace(self):
        report = compute_pare_m(
            [], [], empty_inventory(), REFERENCE_WINDOW, TokenUsage(), []
        )
        assert report.values["DRC"].value == 0
        assert report.values["ADF"].value == 0.0
        assert report.values["ASB"].value == 0
        assert report.values["OPR"].value is None
        assert report.values["OPR"].reason == "zero_denominator"
        assert report.values["GER"].value is None
        assert report.values["CDR"].value is None

    def test_asb_from_inventory(self):
        inventory = empty_inventory({f"surface-{i}": 1 for i in range(10)})
        report = compute_pare_m([], [], inventory, REFERENCE_WINDOW, TokenUsage(), [])
        assert report.values["ASB"].value == 10

    def test_value_times_denominator_is_numerator(self):
        events = [
            make_event(timestamp_ms=FEB2_MS + i * DAY_MS, content_prefix=f"e{i}")
            for i in range(5)
        ]
        report = compute_pare_m(
            events,
            [],
            empty_inventory({"s": 1}),
            REFERENCE_WINDOW,
            TokenUsage(1, 2, 3, 4),
            window_timeline(events, REFERENCE_WINDOW),
        )
        for name in METRIC_NAMES:
            metric = report.values[name]
            if metric.value is None:
                continue
            assert math.isclose(
                metric.value * metric.denominator, metric.numerator, rel_tol=1e-12
            )

    def test_recompute_is_stable(self):
        events = [
            make_event(timestamp_ms=FEB2_MS + i * 3_600_000, content_prefix=f"e{i}")
            for i in range(20)
        ] + [make_completion(ts=FEB2_MS + 50_000_000 + i, source="trajectories/a.jsonl") for i in range(3)]
        args = (
            events,
            [],
            empty_inventory({"s": 2}),
            REFERENCE_WINDOW,
            TokenUsage(10, 20, 30, 40),
            window_timeline(events, REFERENCE_WINDOW),
        )
        assert compute_pare_m(*args) == compute_pare_m(*args)

    def test_ate_carries_sensitivity(self):
        events = [
            make_event(timestamp_ms=FEB2_MS + i * 45 * 60_000, content_prefix=f"e{i}")
            for i in range(4)
        ]
        report = compute_pare_m(
            events,
            [],
            empty_inventory(),
            REFERENCE_WINDOW,
            TokenUsage(),
            window_timeline(events, REFERENCE_WINDOW),
        )
        # gaps of 45 min: capped at 30 -> 1.5h, at 60 -> 2.25h
        assert report.values["ATE"].value == pytest.approx(1.5)
        assert report.ate_sensitivity.value == pytest.approx(2.25)
        assert report.values["ATE"].rule_id.endswith("30min")
        assert report.ate_sensitivity.rule_id.endswith("60min")

    def test_lower_bound_annotation_when_telemetry_starts_late(self):
        events = [make_event(timestamp_ms=FEB2_MS, content_prefix="late")]
        report = compute_pare_m(
            events,
            [],
            empty_inventory(),
            REFERENCE_WINDOW,
            TokenUsage(),
            window_timeline(events, REFERENCE_WINDOW),
        )
        assert any("lower bound" in a for a in report.annotations)


@given(st.integers(0, 10**12), st.lists(st.integers(0, 8_000_000), max_size=200), st.randoms())
@settings(max_examples=100)
def test_ate_numerator_is_the_capped_gap_seconds(start, gaps, random):
    # repeats (zero gaps) and gaps on both sides of each cap, in any order
    stamps = list(accumulate(gaps, initial=start))
    random.shuffle(stamps)
    report = compute_pare_m([], [], empty_inventory(), REFERENCE_WINDOW, TokenUsage(), stamps)
    for metric, cap in ((report.values["ATE"], 30), (report.ate_sensitivity, 60)):
        capped_ms = sum(min(gap, cap * 60_000) for gap in gaps)
        assert (metric.numerator, metric.denominator) == (capped_ms / 1000, 3600)


@st.composite
def windows_and_timestamps(draw):
    """A window plus timestamps at and +-1 ms around both edges' UTC midnights."""
    start = draw(st.dates(min_value=date(1970, 1, 5), max_value=date(2099, 12, 1)))
    window = ObservationWindow(start, start + timedelta(days=draw(st.integers(0, 30))))
    lo = (start - date(1970, 1, 1)).days * DAY_MS
    hi = lo + window.calendar_days * DAY_MS
    edges = [edge + delta for edge in (lo, hi) for delta in (-1, 0, 1)]
    spread = st.integers(min_value=lo - 3 * DAY_MS, max_value=hi + 3 * DAY_MS)
    stamps = draw(st.lists(st.one_of(st.sampled_from(edges), spread), max_size=40))
    return window, stamps


@given(windows_and_timestamps())
@settings(max_examples=200)
def test_ms_bounds_filter_matches_utc_date_containment(case):
    window, stamps = case
    lo, hi = window.ms_bounds
    for ts in stamps:
        assert (lo <= ts < hi) == window.contains(utc_date(ts))
    # drawn unsorted around both edges; add repeats and untimed records
    stamps = [None, *stamps, None, *stamps[::2]]
    events = [make_event(timestamp_ms=ts, line=i) for i, ts in enumerate(stamps)]
    inside = sorted({ts for ts in stamps if ts is not None and window.contains(utc_date(ts))})
    timeline = window_timeline(events, window)
    assert timeline == inside
    assert timeline.gaps == sorted(b - a for a, b in zip(inside, inside[1:]))
    assert pare_m(events, window).active_day_count == len({utc_date(ts) for ts in inside})


ROLE_NAMES = tuple(f.name for f in fields(RoleCounts))


@given(windows_and_timestamps(), st.data())
@settings(max_examples=100)
def test_drc_counts_the_untimed_records_and_the_timed_ones_inside_the_window(case, data):
    # timestamps at and around both window edges, untimed records, any roles
    window, stamps = case
    stamps = data.draw(st.permutations(stamps + [None] * data.draw(st.integers(0, 5))))
    roles = data.draw(
        st.lists(st.sampled_from(ROLE_NAMES), min_size=len(stamps), max_size=len(stamps))
    )
    events = [
        make_event(role=role, timestamp_ms=ts, line=i)
        for i, (role, ts) in enumerate(zip(roles, stamps))
    ]
    covered = [r for r, ts in zip(roles, stamps) if ts is None or window.contains(utc_date(ts))]
    analysis = analysis_of(events, window)
    analysis.read = empty_inventory(), []
    report = analysis.metrics
    assert report.values["DRC"].numerator == len(covered)
    assert astuple(report.role_counts) == tuple(map(covered.count, ROLE_NAMES))
    assert sum(astuple(report.role_counts)) == report.values["DRC"].numerator
