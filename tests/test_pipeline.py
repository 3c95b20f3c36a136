from __future__ import annotations

import csv
import hashlib
import itertools
import json
import re
from dataclasses import fields, replace
from datetime import date

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import deny_reading, hash_tree
from parem.classify import ClassificationRules
from parem.extraction import DEFAULT_GOVERNANCE_RULES, DEFAULT_HEADING_PATTERN, KeywordRuleSet
from parem.ingest import FieldAliases, WorkspaceConventions
from parem.jsonfmt import from_json, to_json
from parem.metrics import ObservationWindow
from parem.pipeline import (
    DEDUP_LEDGER_CSV,
    REPORT_JSON,
    REPORT_TEXT,
    RULESET_SECTIONS,
    Analysis,
    RunConfig,
    load_config_file,
    provenance,
    run_analysis,
    write_outputs,
)
from parem.report import EVENTS_TOKENS_CSV, METRICS_CSV
from parem.synth import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline-corpus")
    ground_truth = generate_corpus(CorpusSpec(seed=55, days=6), out)
    return out / "workspace", ground_truth


def test_window_defaults_to_event_span_with_warning(corpus):
    root, ground_truth = corpus
    bundle = Analysis(RunConfig(root=str(root))).bundle
    window = bundle.metrics.window
    assert window.start_date >= ground_truth.window_start
    assert window.end_date <= ground_truth.window_end
    assert any("window defaulted" in w for w in bundle.warnings)


def test_explicit_window_produces_no_default_warning(corpus):
    root, ground_truth = corpus
    config = RunConfig(
        root=str(root),
        window=ObservationWindow(ground_truth.window_start, ground_truth.window_end),
    )
    bundle = Analysis(config).bundle
    assert not any("window defaulted" in w for w in bundle.warnings)


def test_empty_workspace_degenerate_window(tmp_path):
    (tmp_path / "ws").mkdir()
    bundle = Analysis(RunConfig(root=str(tmp_path / "ws"))).bundle
    assert bundle.metrics.window.start_date == date(1970, 1, 1)
    assert any("degenerate epoch window" in w for w in bundle.warnings)


def test_scope_filters_agent_events(corpus):
    root, ground_truth = corpus
    window = ObservationWindow(ground_truth.window_start, ground_truth.window_end)
    main_bundle = Analysis(RunConfig(root=str(root), window=window)).bundle
    all_bundle = Analysis(RunConfig(root=str(root), window=window, scope="all-agent")).bundle
    assert main_bundle.dedup_stats.retained_count == ground_truth.drc
    assert all_bundle.dedup_stats.retained_count > ground_truth.drc


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(root="x", scope="solo")
    with pytest.raises(ValueError):
        RunConfig(root="x", granularity="paragraph")
    with pytest.raises(ValueError):
        RunConfig(root="x", caps=())


@pytest.mark.parametrize(
    "name, value",
    [
        ("caps", (0, 30)),
        ("caps", (30, -15)),
        ("gap_bin_minutes", -15),
        ("gap_clip_minutes", "30"),
        ("gap_clip_minutes", 0),
        ("gap_bin_minutes", 0),
        ("gap_clip_minutes", -1),
        ("repeat_horizon_days", -1),
        ("repeat_horizon_days", 1.5),
        ("gap_bin_minutes", True),
        ("caps", (True, 30)),
    ],
)
def test_run_config_rejects_out_of_range_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        RunConfig(root="x", **{name: value})
    with pytest.raises(ValueError, match=name):
        from_json(RunConfig, {"root": "x", name: to_json(value)})


def test_a_zero_repeat_horizon_is_accepted():
    assert RunConfig(root="x", repeat_horizon_days=0).repeat_horizon_days == 0


@pytest.mark.parametrize("name", ["primary_cap", "sensitivity_cap"])
def test_ate_caps_are_not_settings(name):
    # ATE and its sensitivity are fixed at the caps their rule ids name;
    # `caps` gives the estimate at any other cap
    with pytest.raises(ValueError, match=f"unknown RunConfig key\\(s\\): {name}$"):
        from_json(RunConfig, {"root": "x", name: 45})


def test_run_config_mapping_round_trip(corpus):
    root, ground_truth = corpus
    config = RunConfig(
        root=str(root),
        window=ObservationWindow(ground_truth.window_start, ground_truth.window_end),
        caps=(10, 30),
        log1p=True,
    )
    again = from_json(RunConfig, json.loads(json.dumps(to_json(config))))
    assert again == config


def test_heading_pattern_must_compile_and_capture_the_date():
    no_group = r"^#+\s.*\d{4}-\d{2}-\d{2}"
    with pytest.raises(ValueError, match=re.escape(repr(no_group))):
        RunConfig(root="x", heading_pattern=no_group)
    with pytest.raises(ValueError, match="does not compile"):
        RunConfig(root="x", heading_pattern=r"^#+\s(\d{4}")


def test_config_file_with_a_bad_heading_pattern_or_string_family(tmp_path):
    # the way the CLI reads a config: load_config_file, then from_json
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps({"root": "ws", "heading_pattern": r"^#+\s.*\d{4}-\d{2}-\d{2}"}),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="no capture group"):
        from_json(RunConfig, load_config_file(path))
    (tmp_path / "output.json").write_text(
        json.dumps({"families": {"authorship": "wrote"}}), encoding="utf-8"
    )
    path.write_text(json.dumps({"root": "ws", "output_rules": "output.json"}), encoding="utf-8")
    bad_family = "RunConfig.output_rules.families['authorship']"
    with pytest.raises(ValueError, match=re.escape(bad_family)):
        from_json(RunConfig, load_config_file(path))


@pytest.mark.parametrize(
    "data, unknown",
    [
        ({"root": "ws", "primry_cap": 0}, "unknown RunConfig key(s): primry_cap"),
        ({"root": "ws", "windw": {}, "caps": [30]}, "unknown RunConfig key(s): windw"),
        ({"root": "ws", "aliases": {"rol": ["kind"]}}, "unknown FieldAliases key(s): rol"),
        (
            {"root": "ws", "conventions": {"memory_dir": ["notes"], "agents": "a"}},
            "unknown WorkspaceConventions key(s): agents, memory_dir",
        ),
    ],
    ids=["run-config", "two-keys", "aliases", "conventions"],
)
def test_config_file_with_a_misspelt_key_is_rejected(tmp_path, data, unknown):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(unknown)):
        from_json(RunConfig, load_config_file(path))


# Text from a fixed alphabet: a first draw from all of Unicode builds
# Hypothesis's character table, too slow for its health check when this
# module runs alone in a checkout with no .hypothesis/ directory.
_TEXT = st.text(alphabet="ab/._- é☃", max_size=8)
_KEYS = st.text(alphabet="abxyz_", min_size=1, max_size=6)
_TEXTS = st.lists(_TEXT, max_size=3).map(tuple)
_POSITIVE = st.integers(1, 10_000)
_WINDOWS = st.lists(st.dates(), min_size=2, max_size=2).map(
    lambda days: ObservationWindow(min(days), max(days))
)
_CLASSIFICATION = st.builds(
    ClassificationRules,
    rules=st.lists(st.tuples(_TEXT, _TEXT), max_size=3).map(tuple),
    fallback=_TEXT,
    generated_patterns=_TEXTS,
    version=_TEXT,
)


@st.composite
def _rulesets(draw) -> KeywordRuleSet:
    # a family class must name a family and a class listed in class_priority
    families = draw(
        st.dictionaries(
            _KEYS, st.lists(st.text(alphabet="abc", min_size=1), min_size=1, max_size=3).map(tuple)
        )
    )
    class_priority = draw(_TEXTS)
    family_classes = (
        draw(
            st.dictionaries(
                st.sampled_from(sorted(families)), st.sampled_from(class_priority), max_size=2
            )
        )
        if families and class_priority
        else {}
    )
    return KeywordRuleSet(
        families=families,
        family_classes=family_classes,
        exclusions=tuple(draw(st.lists(_KEYS, max_size=2))),
        class_priority=class_priority,
        case_sensitive=draw(st.booleans()),
        version=draw(_TEXT),
    )


_RULESETS = _rulesets()
_ALIASES = st.builds(
    FieldAliases,
    **{f.name: _TEXT if f.type == "str" else _TEXTS for f in fields(FieldAliases)},
)
_CONVENTIONS = st.builds(
    WorkspaceConventions,
    **{f.name: _TEXT if f.type == "str" else _TEXTS for f in fields(WorkspaceConventions)},
)
_SPECS = st.builds(
    CorpusSpec,
    start_date=st.dates(),
    events_per_day=st.tuples(st.integers(), st.integers()),
    completions_per_day=st.tuples(st.integers(), st.integers()),
    planted_governance=st.dictionaries(_KEYS, st.integers(), max_size=3),
    surface_tree=st.dictionaries(_TEXT, st.integers(), max_size=3),
    caps=st.lists(st.integers(), max_size=4).map(tuple),
    **{
        f.name: st.integers() if f.type == "int" else st.floats(allow_nan=False)
        for f in fields(CorpusSpec)
        if f.type in ("int", "float")
    },
)
_CONFIGS = st.builds(
    RunConfig,
    root=_TEXT,
    out_dir=_TEXT,
    window=st.none() | _WINDOWS,
    caps=st.lists(_POSITIVE, min_size=1, max_size=4, unique=True).map(tuple),
    gap_bin_minutes=_POSITIVE,
    gap_clip_minutes=_POSITIVE,
    scope=st.sampled_from(["main", "all-agent"]),
    granularity=st.sampled_from(["section", "sentence"]),
    repeat_horizon_days=st.integers(0, 60),
    exclude_generated=st.booleans(),
    log1p=st.booleans(),
    dedup_ledger=st.booleans(),
    heading_pattern=st.sampled_from([DEFAULT_HEADING_PATTERN, r"^## (\d{4}-\d{2}-\d{2})"]),
    classification=_CLASSIFICATION,
    output_rules=_RULESETS,
    governance_rules=_RULESETS,
    aliases=_ALIASES,
    conventions=_CONVENTIONS,
)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(_CONFIGS, _WINDOWS, _CLASSIFICATION, _RULESETS, _ALIASES, _CONVENTIONS, _SPECS)
)
def test_from_json_reads_back_what_to_json_writes(record):
    # through JSON text, as a config file holds it
    assert from_json(type(record), json.loads(json.dumps(to_json(record)))) == record


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small-corpus")
    ground_truth = generate_corpus(CorpusSpec(seed=3, days=3), out)
    # every word of one to three letters a drawn rule set's terms are made
    # of, so drawn families match one section together
    words = [
        "".join(word) for size in (1, 2, 3) for word in itertools.product("abc", repeat=size)
    ]
    (out / "workspace" / "memory" / "words.md").write_text(
        f"## {ground_truth.window_start.isoformat()}\n{' '.join(words)}.\n", encoding="utf-8"
    )
    return out / "workspace", ground_truth


# A drawn config is large: shrinking a failing one took minutes and hundreds
# of MB, so the properties below report a failing example as drawn.
_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(_CONFIGS, st.booleans(), st.booleans())
def test_a_report_reproduces_from_its_provenance_config(
    small_corpus, tmp_path_factory, config, fixed_window, drawn_aliases
):
    root, ground_truth = small_corpus
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    window = ObservationWindow(ground_truth.window_start, ground_truth.window_end)
    config = replace(
        config,
        root=str(root),
        out_dir=str(first),
        window=window if fixed_window else None,
        # a drawn layout could lead the scan out of the root
        conventions=WorkspaceConventions(),
        # drawn aliases read hardly a record of the corpus
        aliases=config.aliases if drawn_aliases else FieldAliases(),
    )
    run_analysis(config)
    report = json.loads((first / REPORT_JSON).read_text(encoding="utf-8"))
    data = {**report["provenance"]["config"], "root": str(root), "out_dir": str(second)}
    run_analysis(from_json(RunConfig, data))
    assert hash_tree(first) == hash_tree(second)


_WINDOW = ObservationWindow(date(2024, 1, 1), date(2024, 1, 31))


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(_CONFIGS, _CONFIGS, _TEXT, _TEXT)
def test_the_config_digest_names_every_setting_but_root_and_out_dir(a, b, root, out_dir):
    assert provenance(replace(a, root=root, out_dir=out_dir), _WINDOW) == provenance(a, _WINDOW)
    digest = provenance(a, _WINDOW).config_sha256
    # one setting at a time, taken from the other config
    for name in (f.name for f in fields(RunConfig) if f.name not in ("root", "out_dir")):
        changed = replace(a, **{name: getattr(b, name)})
        assert (provenance(changed, _WINDOW).config_sha256 == digest) == (changed == a), name


_SECTION_VALUES = {
    "classification": _CLASSIFICATION,
    "output_rules": _RULESETS,
    "governance_rules": _RULESETS,
    "aliases": _ALIASES,
    "conventions": _CONVENTIONS,
}


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(_CONFIGS, st.sampled_from(RULESET_SECTIONS), st.data())
def test_a_rule_set_change_moves_only_its_own_digest(config, section, data):
    rules = data.draw(_SECTION_VALUES[section])
    assume(rules != getattr(config, section))
    before = provenance(config, _WINDOW)
    after = provenance(replace(config, **{section: rules}), _WINDOW)
    assert after.config_sha256 != before.config_sha256
    old, new = before.ruleset_sha256, after.ruleset_sha256
    assert {name for name in RULESET_SECTIONS if new[name] != old[name]} == {section}


@pytest.mark.parametrize(
    "kind, data, message",
    [
        (RunConfig, {"root": "ws", "aliases": {"role": "kind"}}, "RunConfig.aliases.role must be"),
        (
            RunConfig,
            {"root": "ws", "conventions": {"memory_dirs": "notes"}},
            "RunConfig.conventions.memory_dirs must be",
        ),
        (
            RunConfig,
            {"root": "ws", "classification": {"generated_patterns": "dist/"}},
            "RunConfig.classification.generated_patterns must be",
        ),
        (RunConfig, {"root": "ws", "log1p": "false"}, "RunConfig.log1p must be"),
        (
            RunConfig,
            {"root": "ws", "output_rules": {"families": {"x": ["w"]}, "case_sensitive": "false"}},
            "RunConfig.output_rules.case_sensitive must be",
        ),
        (RunConfig, {"root": "ws", "gap_bin_minutes": True}, "RunConfig.gap_bin_minutes must be"),
        (RunConfig, {"root": "ws", "caps": [30.7]}, "RunConfig.caps[0] must be"),
        (RunConfig, {"root": "ws", "caps": [15, "30"]}, "RunConfig.caps[1] must be"),
        (RunConfig, {"root": "ws", "caps": [30, 30, 15]}, "RunConfig: caps must not list 30 twice"),
        (CorpusSpec, {"days": 3.9}, "CorpusSpec.days must be"),
        (
            RunConfig,
            {"root": "ws", "window": {}},
            "RunConfig.window: ObservationWindow.__init__() missing 2 required positional"
            " arguments: 'start_date' and 'end_date'",
        ),
        (
            RunConfig,
            {"root": "ws", "governance_rules": {"exclusions": ["draft"]}},
            "RunConfig.governance_rules: KeywordRuleSet.__init__() missing 1 required positional"
            " argument: 'families'",
        ),
        (
            RunConfig,
            {"root": "ws", "classification": [["scripts/", "scripts"]]},
            "RunConfig.classification must be an object",
        ),
        (
            RunConfig,
            {"root": "ws", "classification": {"exclude_generatd": True}},
            "RunConfig.classification: unknown ClassificationRules key(s): exclude_generatd",
        ),
        (
            RunConfig,
            {"root": "ws", "output_rules": {"families": {"x": ["wrote"]}, "exclusion": ["draft"]}},
            "RunConfig.output_rules: unknown KeywordRuleSet key(s): exclusion",
        ),
        (
            RunConfig,
            {"root": "ws", "window": {"start_date": "2024-01-01", "end_date": "2024-01-31", "to": 1}},
            "RunConfig.window: unknown ObservationWindow key(s): to",
        ),
        (CorpusSpec, {"seed": 1, "seeds": 2}, "CorpusSpec: unknown CorpusSpec key(s): seeds"),
    ],
    ids=[
        "string-for-aliases",
        "string-for-conventions",
        "string-for-generated-patterns",
        "string-for-a-bool",
        "string-for-a-ruleset-bool",
        "bool-for-an-int",
        "float-cap",
        "string-cap",
        "repeated-cap",
        "float-spec-days",
        "empty-window",
        "ruleset-without-families",
        "list-for-an-object",
        "misspelt-classification-key",
        "misspelt-ruleset-key",
        "misspelt-window-key",
        "misspelt-spec-key",
    ],
)
def test_from_json_rejects_a_wrong_value_by_its_path(kind, data, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        from_json(kind, data)


def test_load_config_file_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config_file(path)


def test_exclude_generated_flag_reaches_classifier(tmp_path):
    workspace = tmp_path / "ws"
    (workspace / "scripts" / "node_modules").mkdir(parents=True)
    (workspace / "scripts" / "real.py").write_text("pass\n", encoding="utf-8")
    (workspace / "scripts" / "node_modules" / "dep.js").write_text("x\n", encoding="utf-8")
    raw = Analysis(RunConfig(root=str(workspace))).bundle
    filtered = Analysis(RunConfig(root=str(workspace), exclude_generated=True)).bundle
    assert raw.inventory.surfaces.counts["scripts"] == 2
    assert filtered.inventory.surfaces.counts["scripts"] == 1


def test_sections_outside_window_ignored(tmp_path):
    workspace = tmp_path / "ws"
    (workspace / "memory").mkdir(parents=True)
    (workspace / "memory" / "notes.md").write_text(
        "## 2026-02-03\nDrafted the summary.\n## 2026-06-01\nDrafted the other thing.\n",
        encoding="utf-8",
    )
    config = RunConfig(
        root=str(workspace),
        window=ObservationWindow(date(2026, 2, 1), date(2026, 2, 28)),
    )
    bundle = Analysis(config).bundle
    assert bundle.dated_section_count == 1
    assert len(bundle.output_proxies) == 1


def test_report_json_is_valid_json(corpus, tmp_path):
    from parem.pipeline import run_analysis

    root, ground_truth = corpus
    config = RunConfig(
        root=str(root),
        out_dir=str(tmp_path / "out"),
        window=ObservationWindow(ground_truth.window_start, ground_truth.window_end),
    )
    _, written = run_analysis(config)
    report_path = next(p for p in written if p.name == "report.json")
    data = json.loads(report_path.read_text())
    assert data["metrics"]["values"]["DRC"]["value"] == ground_truth.drc
    assert data["format"] == "parem-report/3"
    # the token events are not copied into the report but pointed to
    events = (tmp_path / "out" / EVENTS_TOKENS_CSV).read_bytes()
    assert data["token_events"] == {
        "path": EVENTS_TOKENS_CSV,
        "rows": ground_truth.completions_strict,
        "sha256": hashlib.sha256(events).hexdigest(),
    }
    assert events.count(b"\n") == 1 + ground_truth.completions_strict


def test_write_outputs_removes_every_file_it_wrote_when_one_write_fails(corpus, tmp_path):
    root, _ = corpus
    config = RunConfig(root=str(root), out_dir=str(tmp_path), dedup_ledger=True)
    analysis = Analysis(config)
    # report.txt and the figures are written before the directory in the way
    (tmp_path / METRICS_CSV).mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        write_outputs(analysis.bundle, config, analysis.deduped[0])
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []


def test_dedup_ledger_reads_back_with_csv_reader(tmp_path):
    # ids and a file name that hold the characters CSV has to quote
    ids = ["x,1", 'say "hi"', "two\nlines", "plain"]
    root = tmp_path / "workspace"
    (root / "sessions").mkdir(parents=True)
    (root / "sessions" / "a,b.jsonl").write_text(
        "".join(json.dumps({"id": i, "role": "user"}) + "\n" for i in ids), encoding="utf-8"
    )
    out = tmp_path / "out"
    run_analysis(RunConfig(root=str(root), out_dir=str(out), dedup_ledger=True))
    with open(out / DEDUP_LEDGER_CSV, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows == [["tier", "key", "source", "line"]] + [
        ["explicit_id", i, "sessions/a,b.jsonl", str(line)] for line, i in enumerate(ids, 1)
    ]


def write_trajectory(root, lines):
    path = root / "trajectories" / "t.jsonl"
    path.parent.mkdir(parents=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_lone_surrogates_do_not_abort_analysis(tmp_path):
    root = tmp_path / "workspace"
    write_trajectory(
        root,
        [
            '{"role": "user", "ts": "2026-05-01T10:00:00Z", "content": "a\\ud800b"}',
            '{"type": "model_completed", "ts": "2026-05-01T10:05:00Z", "model": "m\\udc00",'
            ' "usage": {"input": 1, "output": 2, "cache_read": 3}}',
        ],
    )
    out = tmp_path / "out"
    bundle, _ = run_analysis(RunConfig(root=str(root), out_dir=str(out)))
    assert bundle.dedup_stats.retained_count == 2
    assert [row.model for row in bundle.token_events] == ["m\ufffd"]
    assert "m\ufffd" in (out / EVENTS_TOKENS_CSV).read_text(encoding="utf-8")


def test_token_event_rows_come_out_by_timestamp_then_path_then_line(tmp_path):
    # the rows are sorted on the timestamp alone, so ties keep the strict
    # subset's (path, line) order: b.jsonl holds both the earliest completion
    # and one that shares its timestamp with a.jsonl
    def completion(minute: int, output: int) -> str:
        return (
            f'{{"type": "model_completed", "ts": "2026-05-01T10:{minute:02d}:00Z",'
            f' "usage": {{"input": 1, "output": {output}, "cache_read": 3}}}}'
        )

    sessions = tmp_path / "workspace" / "trajectories"
    sessions.mkdir(parents=True)
    (sessions / "a.jsonl").write_text(completion(30, 1) + "\n" + completion(20, 2) + "\n")
    (sessions / "b.jsonl").write_text(
        completion(20, 3) + "\n" + completion(20, 4) + "\n" + completion(10, 5) + "\n"
    )
    out = tmp_path / "out"
    run_analysis(RunConfig(root=str(tmp_path / "workspace"), out_dir=str(out)))
    with open(out / EVENTS_TOKENS_CSV, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    # b:3, then a:2, b:1, b:2 at 10:20, then a:1
    assert [row["output"] for row in rows] == ["5", "2", "3", "4", "1"]


def test_degenerate_association_renders(tmp_path):
    # cache_read 39, 39, 39: zero variance, which a float test misses
    root = tmp_path / "workspace"
    write_trajectory(
        root,
        [
            json.dumps(
                {
                    "type": "model_completed",
                    "ts": f"2026-05-01T10:0{i}:00Z",
                    "usage": {"input": 1, "output": output, "cache_read": 39},
                }
            )
            for i, output in enumerate((1, 1, 2))
        ],
    )
    out = tmp_path / "out"
    bundle, _ = run_analysis(RunConfig(root=str(root), out_dir=str(out)))
    assert bundle.association.reason == "zero_variance"
    text = (out / REPORT_TEXT).read_text(encoding="utf-8")
    assert "cache/output association: undefined (zero_variance)" in text


def test_untimed_records_count_in_drc_but_never_reach_active_time(tmp_path):
    root = tmp_path / "workspace"
    write_trajectory(
        root,
        [
            '{"role": "user", "ts": "2026-05-01T10:00:00Z", "content": "a"}',
            '{"role": "assistant", "ts": "2026-05-01T10:20:00Z", "content": "b"}',
            '{"role": "user", "content": "untimed c"}',
            '{"role": "assistant", "content": "untimed d"}',
        ],
    )
    analysis = Analysis(RunConfig(root=str(root)))
    assert analysis.deduped[1].retained_count == 4
    assert analysis.metrics.values["DRC"].value == 4
    assert analysis.metrics.role_counts.assistant == 2
    may1 = ObservationWindow(date(2026, 5, 1), date(2026, 5, 1))
    assert analysis.window[0] == may1
    timestamps, sensitivity, _ = analysis.active_time
    assert timestamps == [1_777_629_600_000, 1_777_630_800_000]
    assert {estimate.event_count for estimate in sensitivity} == {2}


def test_warnings_keep_their_order_whichever_stage_runs_first(tmp_path, monkeypatch):
    root = tmp_path / "workspace"
    write_trajectory(root, ['{"role": "user", "ts": "2026-05-01T10:00:00Z"}'])
    (root / "memory").mkdir()
    (root / "trajectories" / "gone.jsonl").write_text("x\n")
    (root / "memory" / "gone.md").write_text("x\n")
    deny_reading(monkeypatch, "gone.jsonl", "gone.md")
    config = RunConfig(root=str(root))
    warnings = Analysis(config).bundle.warnings
    assert [w.split(":")[0] for w in warnings] == [
        "unreadable or truncated session file",
        "observation window defaulted to the event date span 2026-05-01..2026-05-01; "
        "configure a fixed window for comparable reports",
        "unreadable memory file",
    ]
    # each stage returns its own warnings, asked for here out of graph order
    analysis = Analysis(config)
    assert analysis.extraction[3] == warnings[2:]
    assert analysis.window[1] == warnings[1:2]
    assert analysis.bundle.warnings == warnings


def test_an_unreadable_memory_file_warns_and_is_skipped(tmp_path, monkeypatch):
    root = tmp_path / "workspace"
    (root / "memory").mkdir(parents=True)
    for name in ("a.md", "b.md"):
        (root / "memory" / name).write_text("## 2026-02-03\nDrafted the plan.\n")
    deny_reading(monkeypatch, "b.md")
    window = ObservationWindow(date(2026, 2, 1), date(2026, 2, 28))
    sections, outputs, _, warnings = Analysis(RunConfig(root=str(root), window=window)).extraction
    assert [section.source_path for section in sections] == ["memory/a.md"]
    assert len(outputs) == 1
    assert warnings == ["unreadable memory file: memory/b.md (PermissionError)"]
