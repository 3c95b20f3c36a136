from __future__ import annotations

import math
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import make_completion, strict_stage
from parem.ingest import TokenUsage
from parem.metrics import ObservationWindow
from parem.tokens import (
    AssociationStats,
    TokenEventRow,
    aggregate_tokens,
    average_ranks,
    cache_output_association,
    daily_composition,
    pearson,
    per_route,
    spearman,
)

DAY_MS = 86_400_000
WINDOW = ObservationWindow(date(2026, 5, 1), date(2026, 5, 25))
MAY1_MS = 1_777_593_600_000  # 2026-05-01T00:00:00Z, verified in test_ingest


# --- totals ---------------------------------------------------------------


def test_published_component_sums():
    totals = TokenUsage(
        input=10_697_394,
        output=754_633,
        cache_read=61_278_669,
        cache_write=1_219_609,
    )
    assert totals.total == 73_950_305
    assert round(totals.cdr, 3) == 0.829


def test_empty_totals_undefined_cdr():
    totals = aggregate_tokens([])
    assert totals.total == 0
    assert totals.cdr is None


def test_generator_known_sums():
    events = [
        make_completion(ts=MAY1_MS + i * DAY_MS, tokens=(10 * i, i, 100 * i, i))
        for i in range(1, 6)
    ]
    totals = aggregate_tokens(strict_stage(events, WINDOW))
    assert totals.input == 10 * 15
    assert totals.output == 15
    assert totals.cache_read == 100 * 15
    assert totals.cache_write == 15


def test_window_excludes_out_of_range_and_untimed():
    inside = make_completion(ts=MAY1_MS, tokens=(1, 1, 1, 1))
    outside = make_completion(ts=MAY1_MS + 30 * DAY_MS, tokens=(100, 100, 100, 100))
    untimed = make_completion(ts=None, tokens=(7, 7, 7, 7))
    session = make_completion(ts=MAY1_MS, tokens=(9, 9, 9, 9), source="sessions/a.jsonl")
    totals = aggregate_tokens(strict_stage([inside, outside, untimed, session], WINDOW))
    assert totals.total == 4


def test_non_completions_ignored():
    from conftest import make_event
    from parem.ingest import TokenUsage

    stray = make_event(
        role="assistant",
        source="trajectories/a.jsonl",
        timestamp_ms=MAY1_MS,
        tokens=TokenUsage(9, 9, 9, 9),
    )
    assert strict_stage([stray], WINDOW) == []
    assert aggregate_tokens([]).total == 0


# --- per-route ------------------------------------------------------------


def test_single_route_equals_grand_total():
    events = [
        make_completion(ts=MAY1_MS + i, tokens=(10, 5, 50, 1)) for i in range(4)
    ]
    strict = strict_stage(events, WINDOW)
    routes = per_route(strict)
    assert len(routes) == 1
    assert routes[0].totals == aggregate_tokens(strict)
    assert routes[0].completions == 4


def test_three_routes_reconcile():
    events = []
    for i, route in enumerate(["a", "b", "c"] * 3):
        events.append(
            make_completion(ts=MAY1_MS + i, route=route, tokens=(i, 2 * i, 3 * i, i))
        )
    strict = strict_stage(events, WINDOW)
    routes = per_route(strict)
    grand = aggregate_tokens(strict)
    assert sum(r.totals.input for r in routes) == grand.input
    assert sum(r.totals.output for r in routes) == grand.output
    assert sum(r.totals.cache_read for r in routes) == grand.cache_read
    assert sum(r.totals.cache_write for r in routes) == grand.cache_write
    assert sum(r.completions for r in routes) == 9


def test_missing_route_grouped_unknown():
    events = [make_completion(ts=MAY1_MS, route=None)]
    routes = per_route(strict_stage(events, WINDOW))
    assert routes[0].provider_route == "unknown"


def test_cache_write_heavy_route_has_lower_cdr():
    balanced = [
        make_completion(ts=MAY1_MS + i, route="steady", tokens=(10, 10, 400, 5))
        for i in range(5)
    ]
    write_heavy = [
        make_completion(ts=MAY1_MS + 100 + i, route="writer", tokens=(10, 10, 50, 400))
        for i in range(5)
    ]
    strict = strict_stage(balanced + write_heavy, WINDOW)
    routes = {r.provider_route: r for r in per_route(strict)}
    assert routes["writer"].totals.cdr < routes["steady"].totals.cdr


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=40,
    )
)
@settings(max_examples=100)
def test_partition_identity_property(rows):
    events = [
        make_completion(ts=MAY1_MS + i, route=route, tokens=(a, b, c, d))
        for i, (route, a, b, c, d) in enumerate(rows)
    ]
    strict = strict_stage(events, WINDOW)
    routes = per_route(strict)
    grand = aggregate_tokens(strict)
    assert sum(r.totals.input for r in routes) == grand.input
    assert sum(r.totals.output for r in routes) == grand.output
    assert sum(r.totals.cache_read for r in routes) == grand.cache_read
    assert sum(r.totals.cache_write for r in routes) == grand.cache_write


# --- daily composition ----------------------------------------------------


def test_single_day_row():
    window = ObservationWindow(date(2026, 5, 1), date(2026, 5, 3))
    events = [make_completion(ts=MAY1_MS + 1000, tokens=(5, 6, 7, 8))]
    rows = daily_composition(strict_stage(events, window), window)
    assert len(rows) == 3
    assert rows[0].input == 5 and rows[0].completions == 1
    assert rows[1].completions == 0 and rows[2].completions == 0


def test_daily_rows_sum_to_totals():
    events = [
        make_completion(ts=MAY1_MS + i * DAY_MS // 2, tokens=(i, i, i, i))
        for i in range(10)
    ]
    strict = strict_stage(events, WINDOW)
    rows = daily_composition(strict, WINDOW)
    grand = aggregate_tokens(strict)
    assert sum(r.input for r in rows) == grand.input
    assert sum(r.output for r in rows) == grand.output
    assert sum(r.cache_read for r in rows) == grand.cache_read
    assert sum(r.cache_write for r in rows) == grand.cache_write
    assert len(rows) == WINDOW.calendar_days


def test_generator_known_daily_schedule():
    window = ObservationWindow(date(2026, 5, 1), date(2026, 5, 2))
    events = [
        make_completion(ts=MAY1_MS, tokens=(1, 0, 0, 0)),
        make_completion(ts=MAY1_MS + 60_000, tokens=(2, 0, 0, 0)),
        make_completion(ts=MAY1_MS + DAY_MS, tokens=(4, 0, 0, 0)),
    ]
    rows = daily_composition(strict_stage(events, window), window)
    assert [r.input for r in rows] == [3, 4]
    assert [r.completions for r in rows] == [2, 1]


# --- association ----------------------------------------------------------


def completion_pairs(pairs):
    events = [
        make_completion(ts=MAY1_MS + i, tokens=(0, out, cache, 0))
        for i, (cache, out) in enumerate(pairs)
    ]
    return strict_stage(events, WINDOW)


def test_proportional_pairs():
    stats = cache_output_association(completion_pairs([(x, 2 * x) for x in range(1, 11)]))
    assert stats.pearson_r_log == pytest.approx(1.0, abs=1e-12)
    assert stats.spearman_rho == pytest.approx(1.0, abs=1e-12)
    assert stats.n_events == 10
    assert stats.excluded_zero_events == 0


def test_reversed_pairs():
    # y = 2^10 / x is log-linear with slope -1, and rank-reversed
    stats = cache_output_association(
        completion_pairs([(2**k, 2 ** (10 - k)) for k in range(10)])
    )
    assert stats.pearson_r_log == pytest.approx(-1.0, abs=1e-12)
    assert stats.spearman_rho == pytest.approx(-1.0, abs=1e-12)


def test_zero_events_excluded_and_counted():
    pairs = [(10, 5), (0, 5), (10, 0), (3, 3)]
    stats = cache_output_association(completion_pairs(pairs))
    assert stats.excluded_zero_events == 2
    assert stats.n_events == 2
    assert stats.pearson_r_log is None
    assert stats.reason == "fewer_than_3_events"


def test_log1p_keeps_zero_events():
    pairs = [(10, 5), (0, 5), (10, 0), (3, 3)]
    stats = cache_output_association(completion_pairs(pairs), log1p=True)
    assert stats.n_events == 4
    assert stats.excluded_zero_events == 0
    assert stats.pearson_r_log is not None


def test_constant_series_undefined():
    for pairs in (
        [(5, i) for i in range(1, 6)],
        # the float variance of ln(39), ln(39), ln(39) leaves a residue of about 1e-17
        [(39, 1), (39, 1), (39, 2)],
    ):
        stats = cache_output_association(completion_pairs(pairs))
        assert stats == AssociationStats(None, None, len(pairs), 0, "zero_variance")


def test_pearson_underflowing_variance_undefined():
    # not all equal, but the squared deviations underflow to zero
    assert pearson([1e-200, 2e-200, 3e-200], [1.0, 2.0, 4.0]) is None
    # each variance is nonzero, their product underflows
    assert pearson([1e-100, 2e-100, 3e-100], [1e-100, 2e-100, 4e-100]) is None


@pytest.mark.parametrize(
    "values",
    [(0.5, None, 3, 0, None), (None, 0.5, 3, 0, "zero_variance"), (None, None, 3, 0, None)],
)
def test_association_value_none_iff_reason(values):
    with pytest.raises(ValueError):
        AssociationStats(*values)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**6),
            st.integers(min_value=1, max_value=10**6),
        ),
        min_size=3,
        max_size=30,
    )
)
@settings(max_examples=80)
def test_spearman_monotone_transform_invariance(pairs):
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    base = spearman(xs, ys)
    transformed = spearman([math.exp(x / 10**6) for x in xs], ys)
    if base is None:
        assert transformed is None
    else:
        assert transformed == pytest.approx(base, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=10**4),
            st.integers(min_value=1, max_value=10**4),
        ),
        min_size=3,
        max_size=30,
    ),
    st.integers(min_value=1, max_value=1000),
)
@settings(max_examples=80)
# a constant cache_read series leaves a float variance residue of about 1e-17
@example(pairs=[(39, 1), (39, 1), (39, 2)], scale=1)
@example(pairs=[(108, 1), (108, 1), (108, 2)], scale=2)
def test_pearson_log_invariant_under_positive_rescaling(pairs, scale):
    events = completion_pairs(pairs)
    scaled = completion_pairs([(x * scale, y) for x, y in pairs])
    base = cache_output_association(events)
    rescaled = cache_output_association(scaled)
    if base.pearson_r_log is None:
        assert rescaled.pearson_r_log is None
    else:
        assert rescaled.pearson_r_log == pytest.approx(base.pearson_r_log, abs=1e-9)


def test_average_ranks_with_ties():
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]) == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("offset_ms", [-1, 3 * DAY_MS])
def test_daily_rows_reject_a_completion_outside_the_window(offset_ms):
    window = ObservationWindow(date(2026, 5, 1), date(2026, 5, 3))
    with pytest.raises(ValueError, match="outside"):
        daily_composition([TokenEventRow(MAY1_MS + offset_ms, "a", "m", 1, 2, 3, 4)], window)


# --- against the plain references, compared exactly -----------------------


# few distinct values, so most draws hold ties; floats include -0.0 == 0.0
tied_values = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=10**9),
    st.sampled_from([-0.0, 0.0, 0.5, 1e-300, 2.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@given(st.lists(tied_values, max_size=40))
@settings(max_examples=150)
def test_average_ranks_match_the_run_walk(values):
    assert average_ranks(values) == reference.average_ranks(values)


@given(
    st.lists(st.tuples(tied_values, tied_values), min_size=1, max_size=40),
    st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=3, max_size=40),
)
@settings(max_examples=150)
def test_pearson_and_spearman_match_the_old_sums_bit_for_bit(pairs, counts):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    assert pearson(xs, ys) == reference.pearson(xs, ys)
    assert spearman(xs, ys) == reference.spearman(xs, ys)
    # the association: Pearson on the logs, Spearman on the raw counts
    reads = [c for c, _ in counts]
    outputs = [o for _, o in counts]
    expected = (
        reference.pearson(list(map(math.log, reads)), list(map(math.log, outputs))),
        reference.spearman(reads, outputs),
    )
    stats = cache_output_association(completion_pairs(counts))
    assert (stats.pearson_r_log, stats.spearman_rho) == (
        (None, None) if None in expected else expected
    )
