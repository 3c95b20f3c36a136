"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The oracles are the plain references in ``tests/reference.py``,
independent of the library code paths they check.
"""

from __future__ import annotations

import math
import random
import time
from datetime import date

import pytest

import reference
from conftest import hash_tree, make_completion, strict_stage
from parem.activetime import active_time
from parem.dedup import dedup_key, deduplicate
from parem.extraction import (
    DEFAULT_GOVERNANCE_RULES,
    DEFAULT_OUTPUT_RULES,
    DatedSection,
    extract_governance_events,
    extract_output_proxies,
    match_sections,
)
from parem.ingest import Event, TokenUsage
from parem.jsonfmt import to_json
from parem.metrics import ObservationWindow, ratio_metric
from parem.pipeline import Analysis, RunConfig, run_analysis
from parem.report import format_metric
from parem.synth import CorpusSpec, generate_corpus
from parem.tokens import (
    aggregate_tokens,
    cache_output_association,
    per_route,
)

MAY_WINDOW = ObservationWindow(date(2026, 5, 1), date(2026, 5, 25))
MAY1_MS = 1_777_593_600_000


def test_acceptance_1_reference_arithmetic_reproduction():
    window = ObservationWindow(date(2026, 1, 31), date(2026, 5, 25))
    assert window.calendar_days == 115

    # each metric as the text report prints it, from its record in the report
    adf = ratio_metric("ADF", 96, 115, window)
    assert format_metric(to_json(adf)) == "0.835"

    opr = ratio_metric("OPR", 482, 96, window)
    assert format_metric(to_json(opr)) == "5.02"

    ger = ratio_metric("GER", 889, 96, window)
    assert format_metric(to_json(ger)) == "9.26"

    cdr = ratio_metric("CDR", 61_278_669, 73_950_305, window)
    assert format_metric(to_json(cdr)) == "0.829"
    assert f"{cdr.value * 100:.1f}%" == "82.9%"

    print("ACCEPTANCE 1 PASS: reference-arithmetic reproduction exact at printed precision")


def test_acceptance_2_token_identity():
    components = TokenUsage(
        input=10_697_394,
        output=754_633,
        cache_read=61_278_669,
        cache_write=1_219_609,
    )
    assert components.total == 73_950_305

    rnd = random.Random(2024)
    for _ in range(200):
        events = []
        for i in range(rnd.randint(0, 60)):
            events.append(
                make_completion(
                    ts=MAY1_MS + i * 1000,
                    route=rnd.choice(["a", "b", "c", None]),
                    tokens=(
                        rnd.randint(0, 10**9),
                        rnd.randint(0, 10**9),
                        rnd.randint(0, 10**9),
                        rnd.randint(0, 10**9),
                    ),
                )
            )
        strict = strict_stage(events, MAY_WINDOW)
        grand = aggregate_tokens(strict)
        routes = per_route(strict)
        assert sum(r.totals.input for r in routes) == grand.input
        assert sum(r.totals.output for r in routes) == grand.output
        assert sum(r.totals.cache_read for r in routes) == grand.cache_read
        assert sum(r.totals.cache_write for r in routes) == grand.cache_write
        assert sum(r.completions for r in routes) == len(events)

    print("ACCEPTANCE 2 PASS: token identity and per-route reconciliation exact on 200 fixtures")


def _random_streams(rnd, count=1000):
    streams = []
    for i in range(count):
        if i % 100 == 0:
            size = rnd.randint(5000, 10000)
        elif i % 10 == 0:
            size = rnd.randint(500, 2000)
        else:
            size = rnd.randint(0, 200)
        streams.append([rnd.randint(0, 10**12) for _ in range(size)])
    return streams


def test_acceptance_3_and_4_capped_gap_oracle_and_sensitivity():
    rnd = random.Random(7)
    streams = _random_streams(rnd)
    shift = 123_456_789
    for stream in streams:
        est30 = active_time(stream, 30)
        est60 = active_time(stream, 60)

        assert est30 == reference.capped_gap_estimate(stream, 30)

        # criterion 4: cap sensitivity mirrors the published 674.1 >= 579.7
        assert est60.hours >= est30.hours
        assert est60.cluster_count <= est30.cluster_count

        shifted = active_time([t + shift for t in stream], 30)
        assert shifted.hours == est30.hours
        assert shifted.cluster_count == est30.cluster_count

    print("ACCEPTANCE 3 PASS: capped-gap estimator exact against naive oracle on 1000 streams")
    print("ACCEPTANCE 4 PASS: cap sensitivity monotone on all streams")


def _random_event(rnd, location):
    role = rnd.choice(
        ["user", "assistant", "tool_result", "tool_call", "model_completed", "other"]
    )
    return Event(
        role=role,
        source_path=location[0],
        line_number=location[1],
        event_id=rnd.choice([None, None, f"id-{rnd.randint(0, 20)}"]),
        timestamp_ms=rnd.choice([None, rnd.randint(0, 30)]),
        event_type=rnd.choice([None, "t1", "t2"]),
        tool_name=rnd.choice([None, None, "shell"]),
        provider_route=rnd.choice([None, "r1", "r2"]),
        model=rnd.choice([None, "m"]),
        tokens=rnd.choice(
            [None, TokenUsage(rnd.randint(0, 4), 0, rnd.randint(0, 4), 0)]
        ),
        content_prefix=rnd.choice(["", "alpha", "beta", f"c{rnd.randint(0, 30)}"]),
    )


def test_acceptance_5_dedup_properties():
    rnd = random.Random(99)
    for _ in range(500):
        size = rnd.randint(0, 40)
        locations = [(f"sessions/{rnd.randint(0, 3)}.jsonl", i + 1) for i in range(size + 20)]
        events = [_random_event(rnd, locations[i]) for i in range(size)]
        # planted duplicates: same identity material from a later location
        for i, event in enumerate(list(events)):
            if rnd.random() < 0.4:
                events.append(
                    Event(
                        **{
                            **{
                                f: getattr(event, f)
                                for f in Event._fields
                            },
                            "source_path": "sessions/overlap.jsonl",
                            "line_number": size + i + 1,
                        }
                    )
                )

        retained, stats = deduplicate(events)

        # brute-force agreement: one record kept per distinct raw identity
        assert len(retained) == len(set(map(reference.dedup_identity, events)))

        again, again_stats = deduplicate(retained)
        assert again == retained
        assert sum(again_stats.removed_by_tier.values()) == 0

        shuffled = list(events)
        rnd.shuffle(shuffled)
        assert deduplicate(shuffled)[0] == retained

        for event in events:
            key = dedup_key(event)
            if event.event_id is not None:
                assert key.tier == "explicit_id"

        assert stats.input_count == len(events)
        assert stats.retained_count + sum(stats.removed_by_tier.values()) == len(events)

    print("ACCEPTANCE 5 PASS: dedup idempotent, order-invariant, tier-ordered on 500 sets")


def test_acceptance_6_synthetic_round_trip(tmp_path):
    for i in range(20):
        fraction = i / 19
        spec = CorpusSpec(
            seed=1000 + i,
            days=10,
            events_per_day=(15, 45),
            duplication_rate=0.5 * fraction,
            junk_rate=0.3 * fraction,
            untimed_rate=0.2 * fraction,
        )
        ground_truth = generate_corpus(spec, tmp_path / f"c{i}")
        config = RunConfig(
            root=str(tmp_path / f"c{i}" / "workspace"),
            window=ObservationWindow(
                ground_truth.window_start, ground_truth.window_end
            ),
        )
        bundle = Analysis(config).bundle

        assert bundle.dedup_stats.retained_count == ground_truth.drc
        assert bundle.metrics.values["DRC"].value == ground_truth.drc
        assert bundle.metrics.active_day_count == ground_truth.active_days
        assert to_json(bundle.metrics.role_counts) == ground_truth.role_counts
        assert bundle.dated_section_count == ground_truth.dated_sections

        assert len(bundle.output_proxies) == ground_truth.output_proxies
        by_class = {}
        for proxy in bundle.governance_proxies:
            by_class[proxy.governance_class] = by_class.get(proxy.governance_class, 0) + 1
        assert by_class == ground_truth.governance_by_class

        surface_map = {
            k: v
            for k, v in bundle.inventory.surfaces.counts.items()
            if k != "unclassified"
        }
        assert surface_map == ground_truth.surface_counts

        totals = bundle.token_totals
        assert totals.input == ground_truth.token_totals["input"]
        assert totals.output == ground_truth.token_totals["output"]
        assert totals.cache_read == ground_truth.token_totals["cache_read"]
        assert totals.cache_write == ground_truth.token_totals["cache_write"]
        route_map = {
            r.provider_route: {**to_json(r.totals), "completions": r.completions}
            for r in bundle.route_totals
        }
        for route, sums in ground_truth.route_totals.items():
            for key, value in sums.items():
                assert route_map[route][key] == value

        inventory = bundle.inventory
        assert inventory.memory_files == ground_truth.memory_files
        assert inventory.agent_dirs == ground_truth.agent_dirs
        assert inventory.skill_files == ground_truth.skill_files
        assert inventory.session_files_main == ground_truth.session_files_main
        assert inventory.recoverable_main == ground_truth.recoverable_main
        assert inventory.session_files_all == ground_truth.session_files_all
        assert inventory.recoverable_all == ground_truth.recoverable_all

        for estimate in bundle.ate_sensitivity:
            expected = ground_truth.ate_hours_by_cap[estimate.cap_minutes]
            assert estimate.hours == pytest.approx(expected, abs=1e-9)

    print("ACCEPTANCE 6 PASS: 20 seeded corpora round-trip exactly")


def test_acceptance_7_association_oracle():
    rnd = random.Random(13)
    for _ in range(100):
        n = rnd.randint(3, 50)
        pairs = [(rnd.randint(1, 200), rnd.randint(1, 200)) for _ in range(n)]
        events = [
            make_completion(ts=MAY1_MS + i, tokens=(0, out, cache, 0))
            for i, (cache, out) in enumerate(pairs)
        ]
        stats = cache_output_association(strict_stage(events, MAY_WINDOW))
        xs = [float(c) for c, _ in pairs]
        ys = [float(o) for _, o in pairs]
        expected_r = reference.pearson([math.log(x) for x in xs], [math.log(y) for y in ys])
        expected_rho = reference.spearman(xs, ys)
        if expected_r is None or expected_rho is None:
            assert stats.reason == "zero_variance"
            continue
        assert stats.pearson_r_log == pytest.approx(expected_r, abs=1e-12)
        assert stats.spearman_rho == pytest.approx(expected_rho, abs=1e-12)

        # monotone-transform invariance of spearman
        transformed = [
            make_completion(ts=MAY1_MS + i, tokens=(0, out, cache**2, 0))
            for i, (cache, out) in enumerate(pairs)
        ]
        rescaled = cache_output_association(strict_stage(transformed, MAY_WINDOW))
        assert rescaled.spearman_rho == pytest.approx(stats.spearman_rho, abs=1e-12)

    print("ACCEPTANCE 7 PASS: association statistics match brute-force oracles within 1e-12")


def test_acceptance_8_extraction_determinism_and_soundness():
    day = date(2026, 2, 3)

    def section(body, heading="## 2026-02-03"):
        return DatedSection(day, heading, body, "memory/m.md")

    def outputs_of(body):
        return extract_output_proxies(match_sections([section(body)]))

    for family, terms in DEFAULT_OUTPUT_RULES.families.items():
        for term in terms:
            proxies = outputs_of(f"Logged {term} for the records.")
            assert len(proxies) == 1, (family, term)
            assert proxies[0].matched_terms == (term,)

    assert outputs_of("Auto-generated build artifacts were refreshed.") == []
    assert outputs_of("Planned to deploy the app tomorrow.") == []

    class_bodies = {
        "verification": "Checked the citation list for entry {n}.",
        "correction": "Corrected the default threshold in entry {n}.",
        "protocol": "Added a new review checklist for case {n}.",
        "safety": "Rotated the leaked credential for service {n}.",
        "failure": "The nightly export failed with a duplicate send for job {n}.",
    }
    rnd = random.Random(17)
    planted = {name: rnd.randint(2, 9) for name in class_bodies}
    sections = []
    k = 0
    for name, count in planted.items():
        for n in range(count):
            sections.append(
                section(class_bodies[name].format(n=n), heading=f"## 2026-02-03 s{k}")
            )
            k += 1
    matched = match_sections(sections)
    governance = extract_governance_events(matched, DEFAULT_GOVERNANCE_RULES)
    recovered: dict[str, int] = {}
    for proxy in governance:
        recovered[proxy.governance_class] = recovered.get(proxy.governance_class, 0) + 1
    assert recovered == planted

    assert extract_governance_events(matched) == extract_governance_events(match_sections(sections))

    print("ACCEPTANCE 8 PASS: every keyword family member extracts exactly once, exclusions sound")


def test_acceptance_9_throughput_desk_scale(tmp_path):
    spec = CorpusSpec(
        seed=4242,
        days=100,
        events_per_day=(1000, 1000),
        session_files_per_day=10,
        completions_per_day=(3, 8),
        duplication_rate=0.05,
        junk_rate=0.05,
        untimed_rate=0.05,
        skip_day_rate=0.0,
        planted_output_sentences=60,
    )
    generation_started = time.perf_counter()
    ground_truth = generate_corpus(spec, tmp_path / "corpus")
    generation_seconds = time.perf_counter() - generation_started
    assert generation_seconds < 30.0
    assert ground_truth.drc >= 100_000
    assert ground_truth.session_files_main >= 1000

    durations = []
    out_dirs = []
    for run in range(2):
        out_dir = tmp_path / f"out{run}"
        config = RunConfig(
            root=str(tmp_path / "corpus" / "workspace"),
            out_dir=str(out_dir),
            window=ObservationWindow(
                ground_truth.window_start, ground_truth.window_end
            ),
        )
        started = time.perf_counter()
        bundle, written = run_analysis(config)
        durations.append(time.perf_counter() - started)
        out_dirs.append(out_dir)
        assert bundle.dedup_stats.retained_count == ground_truth.drc

    assert hash_tree(out_dirs[0]) == hash_tree(out_dirs[1])
    for duration in durations:
        assert duration < 10.0, f"analysis took {duration:.2f}s, budget is 10s"

    print(
        "ACCEPTANCE 9 PASS: "
        f"{ground_truth.drc} events / {ground_truth.session_files_main} files "
        f"generated in {generation_seconds:.2f}s, analyzed in "
        f"{max(durations):.2f}s, byte-identical reruns"
    )
