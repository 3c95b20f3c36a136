"""Run one parem analysis in a fresh process and print its timing as JSON.

The benchmark starts this script once per analysis, so every timed run pays
for a fresh interpreter and fresh imports, as a user's ``parem analyze``
does. Only ``run_analysis`` (build and write) is inside the timed region.
Around it the process times ``reference_loop``, a fixed piece of
interpreter work, so the benchmark can tell a slower program from a slower
CPU. With ``--trace`` the layers are wrapped first (see spans.py) and the
per-layer figures come back beside the time.

Usage:
    PYTHONPATH=src python3 perfbench/child.py ROOT OUT_DIR WINDOW_START WINDOW_END [--trace]
"""

from __future__ import annotations

import json
import sys
import time
from datetime import date
from pathlib import Path

REFERENCE_LOOP_ITERATIONS = 300_000


def reference_loop() -> tuple[float, float]:
    """Wall and CPU seconds of fixed dict-and-string work in this process.

    The table stays small so that the loop does not raise the process's
    peak RSS, which the benchmark reports.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    table = {}
    for i in range(REFERENCE_LOOP_ITERATIONS):
        table[str(i & 4095)] = i * 2
    sum(table.values())
    return time.perf_counter() - wall, time.process_time() - cpu


def main(argv: list[str]) -> int:
    root, out_dir, window_start, window_end, *flags = argv
    from parem import pipeline
    from parem.metrics import ObservationWindow

    tracer = None
    if flags == ["--trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    elif flags:
        raise SystemExit(f"unknown arguments: {flags}")

    config = pipeline.RunConfig(
        root=root,
        out_dir=out_dir,
        window=ObservationWindow(
            date.fromisoformat(window_start), date.fromisoformat(window_end)
        ),
    )
    before = reference_loop()
    started = time.perf_counter()
    written = pipeline.run_analysis(config)[1]
    wall_s = time.perf_counter() - started
    after = reference_loop()
    result: dict = {
        "wall_s": wall_s,
        "reference_s": (before[0] + after[0]) / 2,
        # the loops' own CPU time, which the benchmark takes out of the
        # process's total
        "reference_cpu_s": before[1] + after[1],
    }

    if tracer is not None:
        from spans import layer_metrics

        values, reasons = layer_metrics(
            tracer, len(written), sum(Path(p).stat().st_size for p in written)
        )
        result["layers"] = values
        result["reasons"] = reasons
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
