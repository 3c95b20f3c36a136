from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

import pytest

import parem
from conftest import hash_tree
from parem.cli import main
from parem.extraction import DEFAULT_HEADING_PATTERN
from parem.synth import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-corpus")
    ground_truth = generate_corpus(CorpusSpec(seed=31, days=8), out)
    return out / "workspace", ground_truth


def test_scan_empty_dir_exits_zero(tmp_path, capsys):
    assert main(["scan", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "memory files: 0" in out


def test_scan_missing_dir_exits_nonzero(tmp_path, capsys):
    assert main(["scan", "--root", str(tmp_path / "nope")]) != 0
    assert "error:" in capsys.readouterr().err


def test_scan_fixture_counts(corpus, capsys):
    root, ground_truth = corpus
    assert main(["scan", "--root", str(root), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["memory_files"] == ground_truth.memory_files
    assert data["agent_dirs"] == ground_truth.agent_dirs
    assert data["skill_files"] == ground_truth.skill_files
    assert data["session_files_main"] == ground_truth.session_files_main
    assert data["recoverable_main"] == ground_truth.recoverable_main
    assert data["session_files_all"] == ground_truth.session_files_all
    assert data["recoverable_all"] == ground_truth.recoverable_all


def analyze_args(root, out, ground_truth):
    return [
        "analyze",
        "--root",
        str(root),
        "--out",
        str(out),
        "--window-start",
        ground_truth.window_start.isoformat(),
        "--window-end",
        ground_truth.window_end.isoformat(),
    ]


def test_analyze_matches_ground_truth(corpus, tmp_path, capsys):
    root, ground_truth = corpus
    out = tmp_path / "out"
    assert main(analyze_args(root, out, ground_truth)) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    assert report["metrics"]["values"]["DRC"]["value"] == ground_truth.drc
    assert report["metrics"]["active_day_count"] == ground_truth.active_days
    assert report["token_totals"]["input"] == ground_truth.token_totals["input"]
    assert len(report["output_proxies"]) == ground_truth.output_proxies


def test_analyze_rerun_byte_identical(corpus, tmp_path):
    root, ground_truth = corpus
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(analyze_args(root, out_a, ground_truth)) == 0
    assert main(analyze_args(root, out_b, ground_truth)) == 0
    assert hash_tree(out_a) == hash_tree(out_b)


def test_analyze_empty_workspace_defined_empty(tmp_path):
    workspace = tmp_path / "ws"
    workspace.mkdir()
    out = tmp_path / "out"
    assert main(["analyze", "--root", str(workspace), "--out", str(out)]) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    assert report["metrics"]["values"]["DRC"]["value"] == 0
    assert report["metrics"]["values"]["OPR"]["value"] is None


def test_analyze_missing_root_nonzero(tmp_path, capsys):
    assert main(["analyze", "--root", str(tmp_path / "gone"), "--out", str(tmp_path / "o")]) != 0


@pytest.mark.parametrize("caps", ["0,30", "30,-15"])
def test_analyze_rejects_a_non_positive_cap_before_writing(corpus, tmp_path, capsys, caps):
    root, ground_truth = corpus
    out = tmp_path / "out"
    assert main(analyze_args(root, out, ground_truth) + ["--caps", caps]) == 2
    assert "caps must all be positive integers" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_dedup_ledger_flag(corpus, tmp_path):
    root, ground_truth = corpus
    out = tmp_path / "out"
    assert main(analyze_args(root, out, ground_truth) + ["--dedup-ledger"]) == 0
    ledger = (out / "reports" / "dedup-ledger.csv").read_text().splitlines()
    assert ledger[0] == "tier,key,source,line"
    assert len(ledger) - 1 == ground_truth.drc


def test_synth_deterministic(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
    assert main(["synth", "--out", str(tmp_path / "b"), "--seed", "5"]) == 0
    assert main(["synth", "--out", str(tmp_path / "c"), "--seed", "6"]) == 0
    assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")
    assert hash_tree(tmp_path / "a") != hash_tree(tmp_path / "c")


def test_synth_spec_file(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"seed": 9, "days": 4}), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "ground_truth.json").exists()


def test_synth_invalid_spec_nonzero(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps({"days": 0}), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) != 0
    assert "error:" in capsys.readouterr().err


def test_config_file_equivalent_to_flags(corpus, tmp_path):
    root, ground_truth = corpus
    out_flags, out_config = tmp_path / "flags", tmp_path / "config"
    assert main(analyze_args(root, out_flags, ground_truth)) == 0

    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "root": str(root),
                "out_dir": str(out_config),
                "window": {
                    "start_date": ground_truth.window_start.isoformat(),
                    "end_date": ground_truth.window_end.isoformat(),
                },
            }
        ),
        encoding="utf-8",
    )
    assert main(["analyze", "--config", str(config_path)]) == 0
    assert (out_flags / "reports" / "report.json").read_bytes() == (
        out_config / "reports" / "report.json"
    ).read_bytes()


def test_analyze_rejects_a_misspelt_config_key_before_writing(corpus, tmp_path, capsys):
    root, _ = corpus
    out = tmp_path / "out"
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({"root": str(root), "out_dir": str(out), "primry_cap": 0}), encoding="utf-8"
    )
    assert main(["analyze", "--config", str(config_path)]) == 2
    assert "unknown RunConfig key(s): primry_cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, data, path",
    [
        ("analyze", {"output_rules": {"exclusions": ["draft"]}}, "RunConfig.output_rules"),
        ("analyze", {"classification": ["x"]}, "RunConfig.classification"),
        ("analyze", {"window": ["2024-01-01"]}, "RunConfig.window"),
        ("synth", {"start_date": 5}, "CorpusSpec.start_date"),
        (
            "analyze",
            {"output_rules": {"families": {"x": ["wrote"]}, "exclusions": ["("]}},
            "RunConfig.output_rules: exclusion '(' does not compile",
        ),
        (
            "analyze",
            {
                "governance_rules": {
                    "families": {"v": ["checked"]},
                    "family_classes": {"v": "verifcation"},
                }
            },
            "RunConfig.governance_rules: class 'verifcation' of family 'v'",
        ),
    ],
    ids=[
        "ruleset-without-families",
        "list-for-an-object",
        "list-for-the-window",
        "spec-date-as-a-number",
        "exclusion-that-does-not-compile",
        "family-class-not-in-the-priority",
    ],
)
def test_a_bad_config_is_reported_before_writing(corpus, tmp_path, capsys, command, data, path):
    root, _ = corpus
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    if command == "analyze":
        data = {"root": str(root), "out_dir": str(out), **data}
        window = ["--window-start", "2024-01-02", "--window-end", "2024-01-03"]
        argv = ["analyze", "--config", str(config_path), *window]
    else:
        argv = ["synth", "--spec", str(config_path), "--out", str(out)]
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}")
    assert not out.exists()


def test_flag_overrides_config(corpus, tmp_path):
    root, ground_truth = corpus
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps({"root": str(tmp_path / "wrong"), "scope": "all-agent"}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    args = analyze_args(root, out, ground_truth) + ["--config", str(config_path), "--scope", "main"]
    assert main(args) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    assert report["provenance"]["config"]["scope"] == "main"
    assert report["metrics"]["values"]["DRC"]["value"] == ground_truth.drc


def test_ruleset_path_in_config(corpus, tmp_path):
    root, ground_truth = corpus
    out = tmp_path / "out"
    # a ruleset referenced by path, relative to the config file
    rules_path = tmp_path / "rules" / "output.json"
    rules_path.parent.mkdir()
    rules_path.write_text(
        json.dumps(
            {
                "families": {"authorship": ["drafted", "rendered", "generated"]},
                "version": "narrow/1",
            }
        ),
        encoding="utf-8",
    )
    config_path = tmp_path / "run.json"
    config_path.write_text(
        json.dumps(
            {
                "root": str(root),
                "out_dir": str(out),
                "output_rules": "rules/output.json",
            }
        ),
        encoding="utf-8",
    )
    assert main(["analyze", "--config", str(config_path)]) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    # the report holds the rule set read from that file, not the path to it
    config = report["provenance"]["config"]
    assert config["output_rules"]["version"] == "narrow/1"
    assert config["output_rules"]["families"] == {
        "authorship": ["drafted", "rendered", "generated"]
    }
    # the narrowed families cannot see the merged/published planted sentences
    assert len(report["output_proxies"]) < ground_truth.output_proxies
    assert len(report["output_proxies"]) > 0


def test_env_var_config(corpus, tmp_path, monkeypatch):
    root, ground_truth = corpus
    out = tmp_path / "out"
    config_path = tmp_path / "env.json"
    config_path.write_text(
        json.dumps({"root": str(root), "out_dir": str(out)}), encoding="utf-8"
    )
    monkeypatch.setenv("PAREM_CONFIG", str(config_path))
    assert main(["analyze"]) == 0
    assert (out / "reports" / "report.json").exists()


def test_provenance_records_flags(corpus, tmp_path):
    root, ground_truth = corpus
    out = tmp_path / "out"
    assert main(analyze_args(root, out, ground_truth) + ["--granularity", "sentence"]) == 0
    report = json.loads((out / "reports" / "report.json").read_text())
    config = report["provenance"]["config"]
    assert config["granularity"] == "sentence"
    assert config["output_rules"]["version"] == "output-families/1"
    # every setting is named, not only those with a flag of their own
    assert config["gap_bin_minutes"] == 15
    assert config["heading_pattern"] == DEFAULT_HEADING_PATTERN
    assert config["window"] == {
        "start_date": ground_truth.window_start.isoformat(),
        "end_date": ground_truth.window_end.isoformat(),
    }
    # where the run read and wrote is not part of its configuration
    assert "root" not in config and "out_dir" not in config


def test_a_report_reruns_from_its_own_config(corpus, tmp_path):
    root, ground_truth = corpus
    first, second = tmp_path / "first", tmp_path / "second"
    flags = ["--caps", "15,45", "--granularity", "sentence", "--dedup-ledger"]
    assert main(analyze_args(root, first, ground_truth) + flags) == 0
    report = json.loads((first / "reports" / "report.json").read_text())
    config_path = tmp_path / "rerun.json"
    config_path.write_text(
        json.dumps({**report["provenance"]["config"], "root": str(root)}), encoding="utf-8"
    )
    assert main(["analyze", "--config", str(config_path), "--out", str(second)]) == 0
    assert hash_tree(first) == hash_tree(second)


def test_a_section_two_families_match_reruns_from_its_own_config(tmp_path):
    # the default families are not listed in name order; the report's config
    # holds them in name order, as every object it writes
    (tmp_path / "ws" / "memory").mkdir(parents=True)
    (tmp_path / "ws" / "memory" / "notes.md").write_text(
        "## 2024-01-02\nDrafted the manuscript. Verified the protocol checklist.\n",
        encoding="utf-8",
    )
    first, second = tmp_path / "first", tmp_path / "second"
    window = ["--window-start", "2024-01-01", "--window-end", "2024-01-03"]
    assert main(["analyze", "--root", str(tmp_path / "ws"), "--out", str(first), *window]) == 0
    report = json.loads((first / "reports" / "report.json").read_text())
    assert [p["family"] for p in report["output_proxies"]] == [
        "artifact",
        "authorship",
        "verification",
    ]
    config_path = tmp_path / "rerun.json"
    config_path.write_text(
        json.dumps({**report["provenance"]["config"], "root": str(tmp_path / "ws")}),
        encoding="utf-8",
    )
    assert main(["analyze", "--config", str(config_path), "--out", str(second)]) == 0
    assert hash_tree(first) == hash_tree(second)


def test_stage_commands_emit_json(corpus, capsys):
    root, ground_truth = corpus
    for command in ("dedup", "activetime", "tokens", "extract"):
        assert main([command, "--root", str(root)]) == 0
        json.loads(capsys.readouterr().out)


def test_stage_dedup_matches_ground_truth(corpus, capsys):
    root, ground_truth = corpus
    assert main(["dedup", "--root", str(root)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["retained_count"] == ground_truth.drc


def test_stage_extract_counts(corpus, capsys):
    root, ground_truth = corpus
    assert main(["extract", "--root", str(root)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["output_proxies"] == ground_truth.output_proxies
    assert data["governance_by_class"] == ground_truth.governance_by_class


WINDOWS = {
    "no-window": [],
    "2024-01-02..03": ["--window-start", "2024-01-02", "--window-end", "2024-01-03"],
}


@pytest.fixture(scope="module")
def report_of(corpus, tmp_path_factory):
    """The report.json that analyze writes for a window and a scope, run once each."""
    root, _ = corpus
    reports: dict[tuple[str, str], dict] = {}

    def report(window: str, scope: str) -> dict:
        if (window, scope) not in reports:
            out = tmp_path_factory.mktemp("report")
            args = ["analyze", "--root", str(root), "--out", str(out), "--scope", scope]
            assert main([*args, *WINDOWS[window]]) == 0
            path = out / "reports" / "report.json"
            reports[window, scope] = json.loads(path.read_text(encoding="utf-8"))
        return reports[window, scope]

    return report


def stage_view_of(command: str, report: dict) -> object:
    """What a stage command prints, as read from the report."""
    if command == "dedup":
        return report["dedup_stats"]
    if command == "activetime":
        return report["ate_sensitivity"]
    if command == "tokens":
        return {"totals": report["token_totals"], "routes": report["route_totals"]}
    governance_by_class: dict[str, int] = {}
    for proxy in report["governance_proxies"]:
        key = proxy["governance_class"] or "unclassified"
        governance_by_class[key] = governance_by_class.get(key, 0) + 1
    return {
        "dated_sections": report["dated_section_count"],
        "output_proxies": len(report["output_proxies"]),
        "governance_proxies": len(report["governance_proxies"]),
        "governance_by_class": governance_by_class,
        "warnings": [w for w in report["warnings"] if w.startswith("unreadable memory file")],
    }


@pytest.mark.parametrize("scope", ["main", "all-agent"])
@pytest.mark.parametrize("window", list(WINDOWS))
@pytest.mark.parametrize("command", ["dedup", "activetime", "tokens", "extract"])
def test_stage_command_matches_the_report(corpus, report_of, capsys, command, window, scope):
    root, _ = corpus
    assert main([command, "--root", str(root), "--scope", scope, *WINDOWS[window]]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == stage_view_of(command, report_of(window, scope))


def test_tokens_without_a_window_leave_out_untimed_completions(tmp_path, capsys):
    workspace = tmp_path / "ws"
    (workspace / "trajectories").mkdir(parents=True)
    lines = [
        {"role": "model_completed", "ts": "2024-01-01T10:00:00Z", "usage": {"input": 5}},
        {"role": "model_completed", "usage": {"input": 7}},
    ]
    (workspace / "trajectories" / "a.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    assert main(["tokens", "--root", str(workspace)]) == 0
    tokens = json.loads(capsys.readouterr().out)
    out = tmp_path / "out"
    assert main(["analyze", "--root", str(workspace), "--out", str(out)]) == 0
    report = json.loads((out / "reports" / "report.json").read_text(encoding="utf-8"))
    assert report["token_totals"]["input"] == 5
    assert tokens["totals"]["input"] == 5


def test_out_dir_inside_the_root_is_not_scanned(corpus, tmp_path, monkeypatch, capsys):
    root, ground_truth = corpus
    workspace = tmp_path / "ws"
    shutil.copytree(root, workspace)
    monkeypatch.chdir(workspace)
    assert main(["scan", "--root", ".", "--json"]) == 0
    before = json.loads(capsys.readouterr().out)

    reports = []
    for _ in range(2):
        assert main(["analyze", "--root", ".", "--out", "parem-out"]) == 0
        reports.append((workspace / "parem-out" / "reports" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    surfaces = json.loads(reports[1])["inventory"]["surfaces"]
    assert surfaces == before["surfaces"]

    capsys.readouterr()
    assert main(["scan", "--root", ".", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == before


def test_all_agent_scope_sees_more_records(corpus, capsys):
    root, ground_truth = corpus
    assert main(["dedup", "--root", str(root), "--scope", "all-agent"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["retained_count"] > ground_truth.drc


def activetime_by_cap(args, capsys):
    assert main(["activetime", *args]) == 0
    return {e["cap_minutes"]: e for e in json.loads(capsys.readouterr().out)}


def test_activetime_honours_the_window(corpus, tmp_path, capsys):
    root, ground_truth = corpus
    start = ground_truth.window_start
    window = [
        "--window-start",
        start.isoformat(),
        "--window-end",
        (start + timedelta(days=4)).isoformat(),
    ]
    in_window = activetime_by_cap(["--root", str(root), *window], capsys)
    whole_span = activetime_by_cap(["--root", str(root)], capsys)
    assert in_window[30]["hours"] < whole_span[30]["hours"]

    out = tmp_path / "out"
    assert main(["analyze", "--root", str(root), "--out", str(out), *window]) == 0
    report = json.loads((out / "reports" / "report.json").read_text(encoding="utf-8"))
    assert in_window[30]["hours"] == report["metrics"]["values"]["ATE"]["value"]


@pytest.mark.parametrize(
    "lines",
    [
        [{"role": "user", "content": "no time"}],
        [{"role": "user", "content": "no time"}, {"role": "user", "ts": "2024-03-01T10:00:00Z"}],
    ],
)
def test_activetime_with_no_timed_record_in_the_window(tmp_path, capsys, lines):
    workspace = tmp_path / "ws"
    (workspace / "sessions").mkdir(parents=True)
    (workspace / "sessions" / "a.jsonl").write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )
    window = ["--window-start", "2024-01-01", "--window-end", "2024-01-02"]
    estimates = activetime_by_cap(["--root", str(workspace), *window], capsys)
    assert sorted(estimates) == [15, 30, 45, 60, 90]
    assert all(e["hours"] == 0.0 for e in estimates.values())

    out = tmp_path / "out"
    assert main(["analyze", "--root", str(workspace), "--out", str(out), *window]) == 0
    report = json.loads((out / "reports" / "report.json").read_text(encoding="utf-8"))
    assert list(estimates.values()) == report["ate_sensitivity"]


@pytest.mark.parametrize("fifo", ["memory/pipe.md", "sessions/pipe.jsonl", "manuscripts/pipe.md"])
def test_a_fifo_in_the_workspace_is_skipped_with_a_warning(tmp_path, fifo):
    ground_truth = generate_corpus(CorpusSpec(seed=3, days=3), tmp_path / "corpus")
    root = tmp_path / "corpus" / "workspace"
    assert main(analyze_args(root, tmp_path / "plain", ground_truth)) == 0
    os.mkfifo(root / fifo)
    # in a child with a timeout, so a read that blocks on the FIFO fails the
    # test instead of hanging the suite
    paths = [str(Path(parem.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    subprocess.run(
        [sys.executable, "-m", "parem.cli", *analyze_args(root, tmp_path / "fifo", ground_truth)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
        capture_output=True,
        timeout=60,
        check=True,
    )
    metrics = [(tmp_path / out / "reports" / "metrics.csv").read_bytes() for out in ("plain", "fifo")]
    assert metrics[0] == metrics[1]
    plain, piped = (
        json.loads((tmp_path / out / "reports" / "report.json").read_text())
        for out in ("plain", "fifo")
    )
    added = [warning for warning in piped["warnings"] if warning not in plain["warnings"]]
    assert len(added) == 1 and fifo in added[0]
    # the FIFO is counted nowhere: the scan's inventory differs by its warning alone
    inventory = plain["inventory"]
    assert piped["inventory"] == {**inventory, "warnings": [*inventory["warnings"], *added]}
