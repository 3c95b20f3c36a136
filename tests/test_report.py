from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parem.jsonfmt import to_json
from parem.metrics import ObservationWindow
from parem.pipeline import Analysis, RunConfig
from parem.report import (
    DAILY_TOKENS_CSV,
    EVENTS_TOKENS_CSV,
    METRICS_CSV,
    PROXY_LEDGER_CSV,
    SENSITIVITY_CSV,
    SURFACE_COUNTS_CSV,
    ReportBundle,
    ReportError,
    _dumps_report,
    export_csvs,
    render_report,
)
from parem.synth import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpus_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    ground_truth = generate_corpus(CorpusSpec(seed=21, days=8), out)
    config = RunConfig(
        root=str(out / "workspace"),
        window=ObservationWindow(ground_truth.window_start, ground_truth.window_end),
    )
    return Analysis(config).bundle, ground_truth


@pytest.fixture()
def empty_bundle(tmp_path):
    (tmp_path / "ws").mkdir()
    return Analysis(RunConfig(root=str(tmp_path / "ws"))).bundle


# stands in for the digest of a written events CSV
EVENTS_SHA256 = "e" * 64


def test_render_deterministic(corpus_bundle):
    bundle, _ = corpus_bundle
    assert render_report(bundle, "text") == render_report(bundle, "text")
    assert render_report(bundle, "structured", EVENTS_SHA256) == render_report(
        bundle, "structured", EVENTS_SHA256
    )


def test_structured_parses_to_the_bundle(corpus_bundle, empty_bundle):
    for bundle in (corpus_bundle[0], empty_bundle):
        rendered = render_report(bundle, "structured", EVENTS_SHA256)
        expected = to_json(bundle)
        expected["token_events"] = {
            "path": EVENTS_TOKENS_CSV,
            "rows": len(bundle.token_events),
            "sha256": EVENTS_SHA256,
        }
        expected["format"] = "parem-report/3"
        assert json.loads(rendered) == expected


# text that looks like the newlines and separators of the layout, or that an
# encoder must escape: line and paragraph separators, lone surrogates
TRICKY_TEXT = ["\n", "}, {", "},\n    {", "\n  ]", "\u2028", "\u2029", "é", "日本", '"', "\\"]
texts = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.characters(blacklist_categories=()), max_size=8),  # lone surrogates
    st.sampled_from(["\ud800", "\udfff", "a\udc00b"]),
    st.lists(st.sampled_from(TRICKY_TEXT), max_size=4).map("".join),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # NaN is written, but never equals its parse
    texts,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3), st.dictionaries(texts, children, max_size=3)
    ),
    max_leaves=10,
)
records = st.dictionaries(texts, values, max_size=4)
# the report's top level: never empty, its lists hold records or text
reports = st.dictionaries(
    texts, st.one_of(st.lists(st.one_of(records, texts), max_size=4), values), min_size=1, max_size=5
)


@given(reports)
@settings(max_examples=100)
def test_report_writer_puts_each_list_item_on_one_line(data):
    text = _dumps_report(data)
    assert text.isascii()
    assert json.loads(text) == data
    lines = text.split("\n")
    for key, value in data.items():
        if isinstance(value, list) and value:
            start = lines.index(f"  {json.dumps(key)}: [") + 1
            items = lines[start : start + len(value)]
            assert [json.loads(line.strip().rstrip(",")) for line in items] == value
            assert lines[start + len(value)].rstrip(",") == "  ]"
    if not any(isinstance(value, list) and value for value in data.values()):
        assert text == json.dumps(data, indent=2, sort_keys=True)


def test_render_text_reflects_ground_truth(corpus_bundle):
    bundle, ground_truth = corpus_bundle
    text = render_report(bundle, "text")
    assert f"de-duplicated records: {ground_truth.drc}" in text
    assert f"active days: {ground_truth.active_days}" in text
    assert f"output proxies: {ground_truth.output_proxies}" in text


def test_empty_workspace_report_has_reason_codes(empty_bundle):
    text = render_report(empty_bundle, "text")
    assert "undefined (zero_denominator)" in text
    assert "de-duplicated records: 0" in text
    structured = json.loads(render_report(empty_bundle, "structured", EVENTS_SHA256))
    assert structured["metrics"]["values"]["OPR"]["value"] is None
    assert structured["metrics"]["values"]["OPR"]["reason"] == "zero_denominator"


def test_unknown_format_rejected(empty_bundle):
    with pytest.raises(ReportError):
        render_report(empty_bundle, "pdf")
    with pytest.raises(ReportError):
        render_report(empty_bundle, "structured")


def test_incomplete_bundle_error_lists_missing():
    with pytest.raises(TypeError) as excinfo:
        ReportBundle()
    message = str(excinfo.value)
    assert "provenance" in message
    assert "token_totals" in message


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestExportCsvs:
    def test_daily_header_exact(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / DAILY_TOKENS_CSV)
        assert rows[0] == [
            "date",
            "input_tokens",
            "output_tokens",
            "cache_read_tokens",
            "cache_write_tokens",
            "completions",
        ]

    def test_sensitivity_has_default_cap_rows(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / SENSITIVITY_CSV)
        assert rows[0] == ["cap_minutes", "hours", "cluster_count"]
        assert [row[0] for row in rows[1:]] == ["15", "30", "45", "60", "90"]

    def test_all_files_written(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        written = export_csvs(bundle, tmp_path)
        expected = {
            tmp_path / DAILY_TOKENS_CSV,
            tmp_path / EVENTS_TOKENS_CSV,
            tmp_path / SENSITIVITY_CSV,
            tmp_path / METRICS_CSV,
            tmp_path / PROXY_LEDGER_CSV,
            tmp_path / SURFACE_COUNTS_CSV,
        }
        assert set(written) == expected
        for path, digest in written.items():
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_surface_counts_csv(self, corpus_bundle, tmp_path):
        bundle, ground_truth = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / SURFACE_COUNTS_CSV)
        assert rows[0] == ["surface", "files"]
        counts = {row[0]: int(row[1]) for row in rows[1:]}
        assert counts == ground_truth.surface_counts

    def test_daily_csv_reimport_reproduces_table(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / DAILY_TOKENS_CSV)[1:]
        assert len(rows) == len(bundle.daily_tokens)
        for row, daily in zip(rows, bundle.daily_tokens):
            assert row[0] == daily.date.isoformat()
            assert [int(x) for x in row[1:]] == [
                daily.input,
                daily.output,
                daily.cache_read,
                daily.cache_write,
                daily.completions,
            ]

    def test_sensitivity_reimport_full_precision(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / SENSITIVITY_CSV)[1:]
        for row, estimate in zip(rows, bundle.ate_sensitivity):
            assert int(row[0]) == estimate.cap_minutes
            assert float(row[1]) == estimate.hours  # repr round-trips exactly
            assert int(row[2]) == estimate.cluster_count

    def test_metrics_csv_shape(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / METRICS_CSV)
        assert rows[0] == [
            "metric",
            "numerator",
            "denominator",
            "window_start",
            "window_end",
            "rule_id",
            "value",
        ]
        metrics = [row[0] for row in rows[1:]]
        assert metrics == ["ADF", "DRC", "ATE", "CDR", "OPR", "GER", "ASB", "ATE"]

    def test_proxy_ledger_shape(self, corpus_bundle, tmp_path):
        bundle, ground_truth = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / PROXY_LEDGER_CSV)
        assert rows[0] == ["date", "kind", "class", "terms", "source"]
        kinds = {row[1] for row in rows[1:]}
        assert kinds == {"output", "governance"}
        outputs = sum(1 for row in rows[1:] if row[1] == "output")
        assert outputs == ground_truth.output_proxies

    def test_events_csv_rows_match_strict_subset(self, corpus_bundle, tmp_path):
        bundle, ground_truth = corpus_bundle
        export_csvs(bundle, tmp_path)
        rows = read_csv(tmp_path / EVENTS_TOKENS_CSV)[1:]
        assert len(rows) == ground_truth.completions_strict
        assert sum(int(row[3]) for row in rows) == ground_truth.token_totals["input"]

    def test_export_determinism(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        export_csvs(bundle, tmp_path / "one")
        export_csvs(bundle, tmp_path / "two")
        for name in (DAILY_TOKENS_CSV, EVENTS_TOKENS_CSV, SENSITIVITY_CSV, METRICS_CSV):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()

    def test_partial_cleanup_on_failure(self, corpus_bundle, tmp_path):
        bundle, _ = corpus_bundle
        # force the later reports/ writes to fail after figures/ succeeded
        (tmp_path / "reports").write_text("a file in the way", encoding="utf-8")
        with pytest.raises(ReportError):
            export_csvs(bundle, tmp_path)
        figures = list((tmp_path / "figures").glob("*")) if (tmp_path / "figures").exists() else []
        assert figures == []
