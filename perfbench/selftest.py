#!/usr/bin/env python3
"""Fast self-test of the benchmark on a 3-day corpus (about 20 s on 2 cores).

    python3 perfbench/selftest.py

Checks that an untraced and a traced run each emit every metric that
BENCHMARK.json names, with a value, and pass their correctness checks; that
a corpus that no longer matches its pin fails set-up; and that a layer whose
function has disappeared is reported as null with a reason.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

TINY = "selftest-3-day"


def _declared(kind: str) -> dict[str, str]:
    declared = json.loads((run.REPO / "BENCHMARK.json").read_text("utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[kind]}


def _check_result(result: dict, expected: dict[str, str]) -> None:
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, sorted(set(got) ^ set(expected))
    empty = [name for name, metric in result["metrics"].items() if metric["value"] is None]
    assert not empty, empty


def check_pin_mismatch_fails_setup() -> None:
    original = run.load_pin
    run.load_pin = lambda workload: {"sha256": "0" * 64, "files": 0, "lines": 0, "bytes": 0}
    try:
        run.bench(TINY, run.DEFAULT_SEED, 0, trace=False)
    except run.SetupError:
        return
    finally:
        run.load_pin = original
    raise AssertionError("a corpus that differs from its pin must fail set-up")


def check_missing_layer_is_null() -> None:
    from parem import pipeline
    from parem.metrics import ObservationWindow
    from parem.synth import CorpusSpec, generate_corpus
    from spans import Tracer, layer_metrics

    workdir = run.WORK / "selftest-missing-layer"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        truth = generate_corpus(
            CorpusSpec(seed=run.DEFAULT_SEED, **run.WORKLOADS[TINY]), workdir / "corpus"
        )
        gap_histogram = pipeline.gap_histogram
        del pipeline.gap_histogram
        tracer = Tracer()
        tracer.install()
        pipeline.gap_histogram = gap_histogram
        _, written = pipeline.run_analysis(
            pipeline.RunConfig(
                root=str(workdir / "corpus" / "workspace"),
                out_dir=str(workdir / "out"),
                window=ObservationWindow(truth.window_start, truth.window_end),
            )
        )
        values, reasons = layer_metrics(tracer, len(written), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert values["activetime.gap_histogram_s"] is None, values
    assert "no longer exists" in reasons["activetime.gap_histogram_s"], reasons
    assert values["pipeline.glue_s"] is None, values
    assert values["ingest.parse_s"] is not None and values["dedup.deduplicate_s"] is not None
    assert set(reasons) == {"activetime.gap_histogram_s", "pipeline.glue_s"}, reasons


def main() -> int:
    if not (run.SRC / "parem" / "__init__.py").is_file():
        print(f"no parem sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.WORKLOADS[TINY] = dict(
        run.WORKLOADS["session-heavy"], days=3, events_per_day=(40, 60), session_files_per_day=2
    )

    end_to_end = run.bench(TINY, run.DEFAULT_SEED, 0, trace=False)
    _check_result(end_to_end, _declared("end_to_end"))
    traced = run.bench(TINY, run.DEFAULT_SEED, 0, trace=True)
    _check_result(traced, _declared("per_layer"))
    check_pin_mismatch_fails_setup()
    check_missing_layer_is_null()
    print("selftest passed: every declared metric emitted, checks and failure paths hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
