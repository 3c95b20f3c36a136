"""The exact bytes of every report and CSV for one small synthetic corpus.

A change that alters an output on purpose updates the hashes here and says
which ones moved; any other change must leave them as they are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from parem.metrics import ObservationWindow
from parem.pipeline import REPORT_JSON, REPORT_TEXT, RunConfig, run_analysis
from parem.report import render_report
from parem.synth import CorpusSpec, generate_corpus

GOLDEN = {
    # the generator's window, every other setting at its default
    "default": {
        "figures/active-time-sensitivity.csv": "8cd869c446bcdb321bade049c7cd88e69ddea857a50ec6838d151b35936d533c",
        "figures/figure-1-token-telemetry-daily.csv": "732a15fc21fdd4a35a315a5ea06fef3e621c81de3021ea7121f7c85ce6e85c3c",
        "figures/figure-1-token-telemetry-events.csv": "ca4ebcda2082aeda9dfee63408f3a84348aff5940f001706ee3a00dba51c2cd1",
        "reports/metrics.csv": "592e7e7e757d5252cb2a12dad6d91392a438a64b1db792385e12110c7b1328b2",
        "reports/proxy-ledger.csv": "5f7a37e70ce2d230026d6e03b61fb7ee131f2d9bfbd49ebf099c49fc4bfbeb65",
        "reports/report.json": "7596eb77631470ee50f55fd6031ed6c89d672169fe7d06939d144f0022b9a343",
        "reports/report.txt": "e5c203411cf4785a68dfad644ca68f2a9d98384d45b86f11f53255b2ece8420f",
        "reports/surface-counts.csv": "51666d7c509c73e049f40808172ec15470833143654272f0926ed5a8f0e20d93",
    },
    # no window (derived from the events), all-agent scope, dedup ledger
    "all-agent": {
        "figures/active-time-sensitivity.csv": "8cd869c446bcdb321bade049c7cd88e69ddea857a50ec6838d151b35936d533c",
        "figures/figure-1-token-telemetry-daily.csv": "732a15fc21fdd4a35a315a5ea06fef3e621c81de3021ea7121f7c85ce6e85c3c",
        "figures/figure-1-token-telemetry-events.csv": "ca4ebcda2082aeda9dfee63408f3a84348aff5940f001706ee3a00dba51c2cd1",
        "reports/dedup-ledger.csv": "e858e55575a09c1eff7da534017f018366db3c05625fec2809fa1a977127a64b",
        "reports/metrics.csv": "75e84d8e56133946b9c2049db9e1e7396355098083079044f12f33967c2f6ca2",
        "reports/proxy-ledger.csv": "5f7a37e70ce2d230026d6e03b61fb7ee131f2d9bfbd49ebf099c49fc4bfbeb65",
        "reports/report.json": "7d38005699d8d06ad46927491fbfef488826b05fc7fc83a08d38954195744a07",
        "reports/report.txt": "f98100037bd9d19972fad390577b2306f42d45a88c739e9b52ff912b83e017d6",
        "reports/surface-counts.csv": "51666d7c509c73e049f40808172ec15470833143654272f0926ed5a8f0e20d93",
    },
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    ground_truth = generate_corpus(CorpusSpec(seed=7), out)
    return out / "workspace", ground_truth


def config_for(name: str, root: Path, out: Path, ground_truth) -> RunConfig:
    if name == "default":
        window = ObservationWindow(ground_truth.window_start, ground_truth.window_end)
        return RunConfig(root=str(root), out_dir=str(out), window=window)
    return RunConfig(root=str(root), out_dir=str(out), scope="all-agent", dedup_ledger=True)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_the_golden_hashes(corpus, tmp_path, name):
    root, ground_truth = corpus
    _, written = run_analysis(config_for(name, root, tmp_path, ground_truth))
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in written
    }
    assert digests == GOLDEN[name]
    # the text report is a view of the structured one
    document = json.loads((tmp_path / REPORT_JSON).read_bytes())
    assert render_report(document, "text").encode("utf-8") == (tmp_path / REPORT_TEXT).read_bytes()
