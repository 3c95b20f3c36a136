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
        "reports/report.json": "0481f29cd21faa60026f28fb2c7818101336bb3c051c6aa5c19f32588e577763",
        "reports/report.txt": "dab806b525acadcafb40dd2b999f43edf121b0b206507f46b366e755e5ca7436",
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
        "reports/report.json": "0ba48d279c407de3937beb4708c94594f7c58e3bf7349cb72c3a478222729c35",
        "reports/report.txt": "6540afcacd2867998c894243d88f95a1708dc2991c62977f8717eabecba70df9",
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
