from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from parem.classify import (
    UNCLASSIFIED,
    ClassificationRules,
    classify_file,
    surface_counts,
)
from parem.ingest import scan_and_parse
from parem.jsonfmt import from_json, to_json


def test_manuscript_root():
    rules = ClassificationRules()
    assert classify_file("manuscripts/draft-v2.md", rules) == "manuscripts"


def test_unmatched_falls_back():
    rules = ClassificationRules()
    assert classify_file("random/notes.txt", rules) == "unclassified"


def test_longest_prefix_wins_regardless_of_declared_order():
    rules = ClassificationRules(
        rules=(
            ("aqrab-calibration-study/", "calibration-study"),
            ("aqrab-calibration-study/panel-app/", "panel-app"),
        )
    )
    assert (
        classify_file("aqrab-calibration-study/panel-app/src/app.ts", rules)
        == "panel-app"
    )
    assert (
        classify_file("aqrab-calibration-study/research/protocol.md", rules)
        == "calibration-study"
    )


def test_default_panel_app_rule():
    rules = ClassificationRules()
    assert (
        classify_file("aqrab-calibration-study/panel-app/src/app.ts", rules)
        == "panel-app"
    )


def test_empty_paths_zero_asb():
    counts = surface_counts([], ClassificationRules())
    assert counts.counts == {}
    assert counts.asb == 0


def test_ten_surface_fixture():
    rules = ClassificationRules()
    paths = [
        "manuscripts/a.md",
        "teaching-artifacts/b.md",
        "linkedin/c.md",
        "revenue-tools/d.md",
        "scripts/e.py",
        "ops/f.md",
        "aqrab-website/src/g.ts",
        "aqrab-calibration-study/research/h.md",
        "aqrab-calibration-study/panel-app/i.ts",
        "target-trial-emulation-benchmark/j.md",
    ]
    counts = surface_counts(paths, rules)
    assert counts.asb == 10


def test_known_per_surface_counts():
    rules = ClassificationRules()
    paths = ["manuscripts/a.md", "manuscripts/b.md", "scripts/x.py", "other/y.txt"]
    counts = surface_counts(paths, rules)
    assert counts.counts == {"manuscripts": 2, "scripts": 1, "unclassified": 1}
    assert counts.asb == 2


def test_unclassified_never_counts_toward_asb():
    counts = surface_counts(["a", "b", "c"], ClassificationRules())
    assert counts.counts == {"unclassified": 3}
    assert counts.asb == 0


paths_strategy = st.lists(
    st.sampled_from(
        [
            "manuscripts/a.md",
            "manuscripts/deep/b.md",
            "scripts/t.py",
            "ops/x.md",
            "linkedin/p.md",
            "content/q.md",
            "stray/z.txt",
            "aqrab-calibration-study/panel-app/app.ts",
        ]
    ),
    max_size=40,
)


@given(paths_strategy, st.randoms())
@settings(max_examples=60)
def test_permutation_invariance(paths, rnd):
    rules = ClassificationRules()
    shuffled = list(paths)
    rnd.shuffle(shuffled)
    assert surface_counts(paths, rules) == surface_counts(shuffled, rules)


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=100)
def test_classification_is_total(path):
    surface = classify_file(path, ClassificationRules())
    assert isinstance(surface, str) and surface


@given(paths_strategy)
@settings(max_examples=60)
def test_asb_bounded_by_configured_surfaces(paths):
    rules = ClassificationRules()
    counts = surface_counts(paths, rules)
    assert counts.asb <= len({surface for _, surface in rules.rules})
    assert sum(counts.counts.values()) == len(paths)


def test_generated_exclusion_off_by_default():
    rules = ClassificationRules()
    paths = ["scripts/node_modules/lib.js", "scripts/real.py"]
    assert surface_counts(paths, rules).counts["scripts"] == 2


def test_generated_exclusion_enabled(tmp_path):
    paths = [
        "scripts/node_modules/lib.js",
        "scripts/real.py",
        "manuscripts/package-lock.json",
        "dist/bundle.js",
    ]
    for path in paths:
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text("x\n", encoding="utf-8")
    inventory, _ = scan_and_parse(tmp_path, ClassificationRules(), exclude_generated=True)
    assert inventory.surfaces.counts == {"scripts": 1}


def test_content_from_two_roots_merges():
    rules = ClassificationRules()
    counts = surface_counts(["linkedin/a.md", "content/b.md"], rules)
    assert counts.counts == {"content": 2}
    assert counts.asb == 1


def test_rules_round_trip():
    rules = ClassificationRules(rules=((".github/", "ci"),), generated_patterns=("build/",))
    again = from_json(ClassificationRules, to_json(rules))
    assert again == rules


def test_dot_directories_keep_their_dot():
    rules = ClassificationRules()
    for path in (".git/config", ".next/cache/x", "./.git/config", "/.git/config", "sub/.git/config"):
        assert rules.is_generated(path), path
    assert not rules.is_generated("git/config")
    assert not rules.is_generated("next/cache/x")
    ci = ClassificationRules(rules=((".github/", "ci"), ("scripts/", "scripts")))
    assert classify_file(".github/workflows/a.yml", ci) == "ci"
    assert classify_file("./.github/workflows/a.yml", ci) == "ci"
    assert classify_file("github/workflows/a.yml", ci) == UNCLASSIFIED
    for path in ("./scripts/a.py", "/scripts/a.py", ".//scripts/a.py", "scripts\\a.py"):
        assert classify_file(path, ci) == "scripts", path
