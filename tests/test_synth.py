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


def test_the_inline_draws_match_next_u64():
    # random and randint run next_u64's mix inline; next_u64 is the reference
    drawn, reference = SplitMix64(31), SplitMix64(31)
    for _ in range(1000):
        assert drawn.random() == (reference.next_u64() >> 11) / float(1 << 53)
        assert drawn.randint(-5, 1_000_003) == -5 + reference.next_u64() % 1_000_009
    assert drawn.state == reference.state


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
        CorpusSpec(days=0)
    with pytest.raises(ValueError):
        CorpusSpec(duplication_rate=1.5)
    with pytest.raises(ValueError):
        CorpusSpec(cache_dominance_target=1.0)
    with pytest.raises(ValueError):
        CorpusSpec(events_per_day=(5, 2))
    with pytest.raises(ValueError):
        CorpusSpec(planted_governance={"mystery": 1})
    # a spec file is checked as it is read, and the failure names the record
    with pytest.raises(ValueError, match="^CorpusSpec: days must be >= 1$"):
        from_json(CorpusSpec, {"days": 0})


@pytest.mark.parametrize(
    "fields, message",
    [
        # junk is drawn until a draw falls at or above the rate: at 1 it hangs
        (dict(junk_rate=1.0), "junk_rate must be below 1"),
        (dict(agent_count=-1), "agent_count must be >= 0"),
        (dict(skill_count=-2), "skill_count must be >= 0"),
        (dict(agent_events_per_day=-1), "agent_events_per_day must be >= 0"),
        (dict(planted_output_sentences=-1), "planted_output_sentences must be >= 0"),
        (dict(input_token_mean=-1), "input_token_mean must be >= 0"),
        (dict(output_token_mean=-1), "output_token_mean must be >= 0"),
        (dict(cache_write_token_mean=-1), "cache_write_token_mean must be >= 0"),
        (dict(planted_governance={"safety": -1}), r"planted_governance\['safety'\] must be >= 0"),
        (dict(surface_tree={"ops": -3}), r"surface_tree\['ops'\] must be >= 0"),
        # a day has 86,400 distinct seconds for its completions
        (dict(completions_per_day=(1, 86_401)), "completions_per_day range invalid"),
        # a key that leaves the workspace, or names it or its parent
        (dict(surface_tree={"../../escaped": 1}), "surface_tree keys must be relative"),
        (dict(surface_tree={"/abs": 1}), "surface_tree keys must be relative"),
        (dict(surface_tree={"": 1}), "surface_tree keys must be relative"),
        (dict(surface_tree={"a//b": 1}), "surface_tree keys must be relative"),
        (dict(surface_tree={"a/.": 1}), "surface_tree keys must be relative"),
        (dict(surface_tree={"a/b/": 1}), "surface_tree keys must be relative"),
    ],
)
def test_a_spec_that_would_hang_or_leave_the_workspace_is_refused(fields, message):
    with pytest.raises(ValueError, match=message):
        CorpusSpec(**fields)


def test_the_widest_accepted_spec_values_are_accepted():
    CorpusSpec(
        junk_rate=0.999,
        agent_count=0,
        skill_count=0,
        completions_per_day=(0, 86_400),
        surface_tree={"a/b.c/..d": 0},
    )


def test_a_failed_write_in_a_worker_thread_reaches_the_caller(tmp_path):
    # a directory where the generator must write the memory index
    (tmp_path / "workspace" / "memory" / "MEMORY.md").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        generate_corpus(CorpusSpec(seed=4, days=2), tmp_path)


# Digests of the whole output, workspace and ground_truth.json, of three small
# specs: they pin bytes that no analysis output reads, such as the artifact
# files, the junk lines and agent.json.
@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            CorpusSpec(seed=33, days=6),
            "b2d1b1411e402016f90d18673586341ad7e92205f47ae2d9867bd5de7f7a2def",
        ),
        (
            CorpusSpec(
                seed=2, days=1, completions_per_day=(0, 0), planted_output_sentences=0
            ),
            "fcc54f31eab7d128a7ad6ce7466eb861bdd0cfb407acff5ebb21122d099640e3",
        ),
        (
            CorpusSpec(
                seed=3, days=30, skip_day_rate=0.9, junk_rate=0.6, explicit_id_rate=0.0
            ),
            "e04f113404fee8b85ba5d47b4d03678249065e63624a85ddf33cfbaf726ec9b9",
        ),
    ],
    ids=["six-days", "one-day-no-completions", "sparse-days-heavy-junk"],
)
def test_the_generator_writes_the_pinned_bytes(tmp_path, spec, digest):
    generate_corpus(spec, tmp_path)
    assert hash_tree(tmp_path) == digest


def test_the_inventory_counts_only_session_files_written(tmp_path):
    # with no agent events no agent session file is written, and none is counted
    ground_truth = generate_corpus(CorpusSpec(seed=4, days=4, agent_events_per_day=0), tmp_path)
    inventory = Analysis(RunConfig(root=str(tmp_path / "workspace"))).read[0]
    assert ground_truth.session_files_all == inventory.session_files_all == 17
    assert ground_truth.recoverable_all == inventory.recoverable_all
    assert ground_truth.agent_dirs == inventory.agent_dirs == 2
    assert ground_truth.skill_files == inventory.skill_files == 3


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
