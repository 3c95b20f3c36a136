from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from parem.activetime import (
    DEFAULT_CAPS,
    GapHistogram,
    Timeline,
    active_time,
    cap_sensitivity,
    gap_histogram,
)

MIN = 60_000  # one minute in ms


timestamps_strategy = st.lists(
    st.integers(min_value=0, max_value=10**12), min_size=0, max_size=120
)


def test_empty_stream():
    estimate = active_time([], 30)
    assert estimate.hours == 0.0
    assert estimate.cluster_count == 0
    assert estimate.event_count == 0


def test_single_timestamp():
    estimate = active_time([1_000_000], 30)
    assert estimate.hours == 0.0
    assert estimate.cluster_count == 1
    assert estimate.event_count == 1


def test_two_events_ten_minutes_apart():
    estimate = active_time([0, 10 * MIN], 30)
    assert estimate.hours == pytest.approx(10 / 60)
    assert estimate.cluster_count == 1


def test_two_events_120_minutes_apart_cap_30():
    estimate = active_time([0, 120 * MIN], 30)
    assert estimate.hours == pytest.approx(0.5)
    assert estimate.cluster_count == 2


def test_gap_exactly_at_cap_stays_in_one_cluster():
    estimate = active_time([0, 30 * MIN], 30)
    assert estimate.cluster_count == 1
    assert estimate.hours == pytest.approx(0.5)


def test_duplicate_timestamps_collapse():
    estimate = active_time([0, 0, 0, 10 * MIN, 10 * MIN], 30)
    assert estimate.event_count == 2
    assert estimate.hours == pytest.approx(10 / 60)


def test_fifty_minute_gap_between_caps():
    # min(50, 60) - min(50, 45) = 5 minutes
    stream = [0, 50 * MIN]
    h45 = active_time(stream, 45).hours
    h60 = active_time(stream, 60).hours
    assert h60 - h45 == pytest.approx(5 / 60)


def test_all_gaps_under_15_identical_across_caps():
    stream = [0, 5 * MIN, 12 * MIN, 20 * MIN]
    estimates = cap_sensitivity(stream, DEFAULT_CAPS)
    hours = {e.hours for e in estimates}
    assert len(hours) == 1


def test_cap_sensitivity_empty_caps_rejected():
    with pytest.raises(ValueError):
        cap_sensitivity([0, MIN], [])


def test_cap_sensitivity_default_cap_list():
    estimates = cap_sensitivity([0, MIN])
    assert [e.cap_minutes for e in estimates] == [15, 30, 45, 60, 90]


def test_nonpositive_cap_rejected():
    with pytest.raises(ValueError):
        active_time([0], 0)


@given(timestamps_strategy)
@settings(max_examples=120)
def test_monotonicity_in_cap(stream):
    h30, h60 = active_time(stream, 30), active_time(stream, 60)
    assert h60.hours >= h30.hours
    assert h60.cluster_count <= h30.cluster_count


@given(timestamps_strategy, st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=100)
def test_translation_invariance(stream, shift):
    shifted = [t + shift for t in stream]
    original = active_time(stream, 30)
    moved = active_time(shifted, 30)
    assert moved.hours == original.hours
    assert moved.cluster_count == original.cluster_count


@given(timestamps_strategy)
@settings(max_examples=100)
def test_upper_bounds(stream):
    estimate = active_time(stream, 30)
    unique = sorted(set(stream))
    if len(unique) >= 1:
        assert estimate.hours <= (estimate.event_count - 1) * 30 / 60 + 1e-12
        span_hours = (unique[-1] - unique[0]) / 3_600_000
        assert estimate.hours <= span_hours + 1e-12


def test_histogram_example():
    # gaps of 5, 25 and 200 minutes with 30-minute bins, 180-minute clip
    stream = [0, 5 * MIN, 30 * MIN, 230 * MIN]
    histogram = gap_histogram(stream, 30)
    assert histogram.bin_edges == (0, 30, 60, 90, 120, 150, 180)
    assert histogram.counts == (2, 0, 0, 0, 0, 0, 1)


def test_histogram_empty():
    histogram = gap_histogram([], 30)
    assert sum(histogram.counts) == 0


def test_histogram_gap_at_clip_goes_to_overflow():
    histogram = gap_histogram([0, 180 * MIN], 30)
    assert histogram.counts[-1] == 1


def test_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        gap_histogram([0], 0)
    with pytest.raises(ValueError):
        gap_histogram([0], 30, clip_minutes=0)


@given(timestamps_strategy)
@settings(max_examples=100)
def test_histogram_total_is_unique_count_minus_one(stream):
    histogram = gap_histogram(stream, 30)
    assert sum(histogram.counts) == max(0, len(set(stream)) - 1)


@st.composite
def streams_and_caps(draw):
    """Unsorted caps, duplicate timestamps, and gaps exactly equal to a cap."""
    caps = draw(st.lists(st.integers(min_value=1, max_value=240), min_size=1, max_size=8))
    stream = draw(st.lists(st.integers(min_value=0, max_value=10**8), max_size=80))
    if stream:
        for anchor in draw(st.lists(st.sampled_from(stream), max_size=10)):
            stream.append(anchor)
            stream.append(anchor + draw(st.sampled_from(caps)) * MIN)
    return draw(st.permutations(stream)), caps


@given(streams_and_caps())
@settings(max_examples=200)
def test_cap_sensitivity_matches_per_cap_scan(case):
    stream, caps = case
    expected = [reference.capped_gap_estimate(stream, cap) for cap in caps]
    assert cap_sensitivity(stream, caps) == expected
    assert [active_time(stream, cap) for cap in caps] == expected


def reference_histogram(timestamps, bin_width_minutes, clip_minutes):
    """The per-gap loop: bin each gap between sorted unique timestamps."""
    edges = []
    edge = 0
    while edge < clip_minutes:
        edges.append(edge)
        edge += bin_width_minutes
    edges.append(clip_minutes)
    counts = [0] * len(edges)
    unique = sorted(set(timestamps))
    for previous, current in zip(unique, unique[1:]):
        gap = current - previous
        if gap >= clip_minutes * MIN:
            counts[-1] += 1
        else:
            counts[gap // (bin_width_minutes * MIN)] += 1
    return GapHistogram(tuple(edges), tuple(counts), clip_minutes)


@st.composite
def streams_and_bins(draw):
    """Bin widths that often do not divide the clip, and gaps exactly on a
    bin edge, on the clip, and 1 ms either side of them."""
    width = draw(st.integers(min_value=1, max_value=60))
    clip = draw(st.integers(min_value=1, max_value=240))
    stream = draw(st.lists(st.integers(min_value=0, max_value=10**8), max_size=60))
    edges = [*range(0, clip, width), clip]
    if stream:
        for anchor in draw(st.lists(st.sampled_from(stream), max_size=10)):
            gap = draw(st.sampled_from(edges)) * MIN + draw(st.sampled_from((-1, 0, 1)))
            stream.append(anchor + gap)
    return draw(st.permutations(stream)), width, clip


@given(streams_and_bins())
@settings(max_examples=150)
def test_histogram_bisection_matches_the_per_gap_loop(case):
    stream, width, clip = case
    expected = reference_histogram(stream, width, clip)
    assert gap_histogram(stream, width, clip) == expected
    assert gap_histogram(Timeline.of(stream), width, clip) == expected


@given(timestamps_strategy)
@settings(max_examples=50)
def test_timeline_is_sorted_unique_and_passes_through(stream):
    timeline = Timeline.of(stream)
    assert timeline == sorted(set(stream))
    assert Timeline.of(timeline) is timeline
    assert timeline.gaps == sorted(b - a for a, b in zip(timeline, timeline[1:]))
    assert cap_sensitivity(timeline) == cap_sensitivity(stream)
