"""The benchmark's traced run reaches every layer it reports on.

``perfbench/spans.py`` wraps functions by name and reports a per-layer
metric as null when its function is gone or no longer called through that
name, so a renamed or bypassed function shows up here, not only in a
benchmark run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import parem
from parem.synth import CorpusSpec, generate_corpus

REPO = Path(__file__).resolve().parents[1]
CHILD = REPO / "perfbench" / "child.py"


def test_a_traced_run_reports_every_layer(tmp_path):
    truth = generate_corpus(CorpusSpec(seed=3, days=3), tmp_path / "corpus")
    # the child imports parem from the tree under test
    paths = [str(Path(parem.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    completed = subprocess.run(
        [
            sys.executable,
            str(CHILD),
            str(tmp_path / "corpus" / "workspace"),
            str(tmp_path / "out"),
            truth.window_start.isoformat(),
            truth.window_end.isoformat(),
            "--trace",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["reasons"] == {}
    assert [name for name, value in result["layers"].items() if value is None] == []
