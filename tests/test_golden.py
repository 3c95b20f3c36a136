"""The exact bytes of every report and CSV for one small synthetic corpus.

A change that alters an output on purpose updates the hashes here and says
which ones moved; any other change must leave them as they are.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from parem.metrics import ObservationWindow
from parem.pipeline import RunConfig, run_analysis
from parem.synth import CorpusSpec, generate_corpus

GOLDEN = {
    # the generator's window, every other setting at its default
    "default": {
        "figures/active-time-sensitivity.csv": "8cd869c446bcdb321bade049c7cd88e69ddea857a50ec6838d151b35936d533c",
        "figures/figure-1-token-telemetry-daily.csv": "732a15fc21fdd4a35a315a5ea06fef3e621c81de3021ea7121f7c85ce6e85c3c",
        "figures/figure-1-token-telemetry-events.csv": "ca4ebcda2082aeda9dfee63408f3a84348aff5940f001706ee3a00dba51c2cd1",
        "reports/metrics.csv": "f14a1b4dc4375030dc7da9ebe3379f2f40da3391741dbe27f367c93a4a4c20de",
        "reports/proxy-ledger.csv": "31863732b5c99020df978865a6160b332b1d5c73f4f238ada31069ab6942885a",
        "reports/report.json": "ca4ff42653789827148d23431c1d4efba4d8895a34d2c8e449f5e8413b0c6412",
        "reports/report.txt": "9d8f2d660835d0a57f84a63e858bc0a6d8375e0fb52a0e665767128de056b6d8",
        "reports/surface-counts.csv": "51666d7c509c73e049f40808172ec15470833143654272f0926ed5a8f0e20d93",
    },
    # no window (derived from the events), all-agent scope, dedup ledger
    "all-agent": {
        "figures/active-time-sensitivity.csv": "8cd869c446bcdb321bade049c7cd88e69ddea857a50ec6838d151b35936d533c",
        "figures/figure-1-token-telemetry-daily.csv": "732a15fc21fdd4a35a315a5ea06fef3e621c81de3021ea7121f7c85ce6e85c3c",
        "figures/figure-1-token-telemetry-events.csv": "ca4ebcda2082aeda9dfee63408f3a84348aff5940f001706ee3a00dba51c2cd1",
        "reports/dedup-ledger.csv": "e858e55575a09c1eff7da534017f018366db3c05625fec2809fa1a977127a64b",
        "reports/metrics.csv": "1c31997f129dd578ca2e49b7099a498ab22a6431a9a02e59c701bf6a8c0325f6",
        "reports/proxy-ledger.csv": "31863732b5c99020df978865a6160b332b1d5c73f4f238ada31069ab6942885a",
        "reports/report.json": "3dfe05ac06284c04b46377ed23d6185022969c8a372a3a22f4c2aef269e530f3",
        "reports/report.txt": "f1bf2eff3dbfdffc2657f7b5246ff0421924119d6a1211ead31a263296d7558c",
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
