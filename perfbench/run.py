#!/usr/bin/env python3
"""The parem benchmark: end-to-end times per workload, or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload session-heavy --seed 4242 --seconds 30 --trace 0

It generates the workload's corpus with ``parem.synth.generate_corpus``,
then, for ``--seconds``, runs ``parem.pipeline.run_analysis`` in a fresh
process per analysis, one at a time (a closed loop with one client). Every
output tree is checked against the generator's ground truth and must be
byte-identical to the workload's first cold tree. With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced runs
(see spans.py). README.md in this directory lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"
WORK = REPO / ".perfbench-work"
PINS = BENCH / "pins.json"

DEFAULT_SEED = 4242
# set-up is repeated and its median reported, so one disturbed repeat does
# not read as a change in set-up cost
SETUP_REPEATS = 3

# Shared by all workloads: the noise rates and daily completions of the
# corpus that acceptance test 9 analyzes.
_COMMON = dict(
    duplication_rate=0.05,
    junk_rate=0.05,
    untimed_rate=0.05,
    skip_day_rate=0.0,
    completions_per_day=(3, 8),
    planted_output_sentences=60,
)

# Each workload loads a different layer. The sizes are a third of those the
# layer breakdown was first measured on, so that one analysis takes about a
# second on 2 cores and a run holds several of them.
WORKLOADS: dict[str, dict] = {
    # parse, dedup, active time and the metric assembly: the read path
    "session-heavy": dict(
        _COMMON, days=34, events_per_day=(1000, 1000), session_files_per_day=10
    ),
    # many strict completions: the trajectory dedup tier, token accounting,
    # pipeline glue and the write path (token-events CSV, report.json)
    "trajectory-heavy": dict(
        _COMMON,
        days=68,
        events_per_day=(20, 40),
        session_files_per_day=2,
        completions_per_day=(200, 300),
    ),
    # many memory sections and artifact files: extraction, discovery and
    # classification, with little to parse or de-duplicate
    "memory-heavy": dict(
        _COMMON,
        days=122,
        events_per_day=(20, 40),
        session_files_per_day=2,
        planted_output_sentences=3300,
        planted_governance={
            "verification": 660,
            "correction": 500,
            "protocol": 500,
            "safety": 330,
            "failure": 330,
        },
        surface_tree={
            "manuscripts": 660,
            "teaching-artifacts": 660,
            "scripts": 660,
            "ops": 660,
            "content": 660,
        },
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_s": "s",
    "rerun_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
}

# Times are reported at a reference CPU speed, the one at which
# child.reference_loop takes this long. The host's CPU speed drifts by up to
# 60 % in phases of seconds to minutes, and raw times drift with it; each
# time is scaled by REFERENCE_S over the loop's time measured around it.
REFERENCE_S = 0.06


class SetupError(Exception):
    """The workload could not be prepared; no timing is meaningful."""


def digest_tree(root: Path) -> dict:
    """SHA-256 over every file's relative path and bytes, plus totals."""
    digest = hashlib.sha256()
    files = lines = size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
        files += 1
        lines += data.count(b"\n")
        size += len(data)
    return {"sha256": digest.hexdigest(), "files": files, "lines": lines, "bytes": size}


def session_lines(workspace: Path) -> int:
    """Non-empty lines of session and trajectory files, main and per agent."""
    patterns = ("sessions/*", "trajectories/*", "agents/*/sessions/*", "agents/*/trajectories/*")
    total = 0
    for pattern in patterns:
        for path in workspace.glob(pattern):
            if path.is_file():
                with open(path, "rb") as handle:
                    total += sum(1 for line in handle if line.strip())
    return total


def _counts_by(items: list[dict], key: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for item in items:
        counts[item[key]] = counts.get(item[key], 0) + 1
    return counts


def check_report(report: dict, truth) -> list[str]:
    """Differences between report.json and the generator's ground truth."""
    inventory = report["inventory"]
    metrics = report["metrics"]
    got = {
        "drc": metrics["values"]["DRC"]["numerator"],
        "retained": report["dedup_stats"]["retained_count"],
        "active_days": metrics["active_day_count"],
        "role_counts": metrics["role_counts"],
        "dated_sections": report["dated_section_count"],
        "ate_caps": sorted(e["cap_minutes"] for e in report["ate_sensitivity"]),
        "token_totals": {k: report["token_totals"][k] for k in truth.token_totals},
        "route_totals": {
            r["provider_route"]: {
                **{k: r["totals"][k] for k in ("input", "output", "cache_read", "cache_write")},
                "completions": r["completions"],
            }
            for r in report["route_totals"]
        },
        "output_proxies": len(report["output_proxies"]),
        "governance_by_class": _counts_by(report["governance_proxies"], "governance_class"),
        "surface_counts": {
            k: v for k, v in inventory["surfaces"]["counts"].items() if k != "unclassified"
        },
    }
    want = {
        "drc": truth.drc,
        "retained": truth.drc,
        "active_days": truth.active_days,
        "role_counts": truth.role_counts,
        "dated_sections": truth.dated_sections,
        "ate_caps": sorted(truth.ate_hours_by_cap),
        "token_totals": truth.token_totals,
        "route_totals": truth.route_totals,
        "output_proxies": truth.output_proxies,
        "governance_by_class": truth.governance_by_class,
        "surface_counts": truth.surface_counts,
    }
    for field in (
        "memory_files",
        "agent_dirs",
        "skill_files",
        "session_files_main",
        "recoverable_main",
        "session_files_all",
        "recoverable_all",
    ):
        got[f"inventory.{field}"] = inventory[field]
        want[f"inventory.{field}"] = getattr(truth, field)
    problems = [f"{k}: got {got[k]!r}, want {want[k]!r}" for k in want if got[k] != want[k]]
    for estimate in report["ate_sensitivity"]:
        expected = truth.ate_hours_by_cap.get(estimate["cap_minutes"])
        if expected is not None and abs(estimate["hours"] - expected) > 1e-9:
            problems.append(
                f"ATE at cap {estimate['cap_minutes']}: got {estimate['hours']}, want {expected}"
            )
    return problems


def run_child(workspace: Path, out_dir: Path, truth, trace: bool = False) -> dict:
    """One analysis in a fresh process: its result, CPU time and peak RSS.

    ``scale`` turns the child's seconds into seconds at the reference speed.
    Raises RuntimeError when the analysis fails.
    """
    command = [
        sys.executable,
        str(BENCH / "child.py"),
        str(workspace),
        str(out_dir),
        truth.window_start.isoformat(),
        truth.window_end.isoformat(),
    ] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, cwd=REPO
    )
    try:
        output = proc.stdout.read().decode("utf-8", errors="replace")
        # wait4 gives this child's own rusage, which Popen.wait would discard
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = output.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(lines[-5:])
        raise RuntimeError(f"analysis exited with {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["cpu_s"] = usage.ru_utime + usage.ru_stime - result["reference_cpu_s"]
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # KiB on Linux
    result["scale"] = REFERENCE_S / result["reference_s"]
    return result


class Verifier:
    """Counts analyses and failures against the ground truth and the first cold tree."""

    def __init__(self, truth) -> None:
        self.truth = truth
        self.attempted = 0
        self.failures: list[str] = []
        self.first_tree: str | None = None
        self.first_tree_problems: list[str] = []

    def run(self, label: str, workspace: Path, out_dir: Path, trace: bool = False) -> dict | None:
        self.attempted += 1
        try:
            result = run_child(workspace, out_dir, self.truth, trace)
        except (RuntimeError, ValueError) as exc:
            self.failures.append(f"{label}: {exc}")
            return None
        tree = digest_tree(out_dir)["sha256"]
        if self.first_tree is None:
            # every later tree must equal this one byte for byte, so checking
            # it against the ground truth checks them all
            self.first_tree = tree
            try:
                report = json.loads((out_dir / "reports" / "report.json").read_text("utf-8"))
                self.first_tree_problems = check_report(report, self.truth)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                self.first_tree_problems = [f"unreadable report.json: {exc!r}"]
        if tree != self.first_tree:
            self.failures.append(f"{label}: output tree differs from the first cold tree")
            return None
        if self.first_tree_problems:
            self.failures.append(f"{label}: " + "; ".join(self.first_tree_problems))
            return None
        return result


def load_pin(workload: str) -> dict | None:
    return json.loads(PINS.read_text("utf-8")).get(workload)


def set_up(workload: str, seed: int, workdir: Path):
    """Generate the corpus and warm up, several times; keep the last corpus.

    Set-up times are at the reference speed: corpus generation by reference
    loops this process runs around it, the warm-up by the child's own.
    """
    from child import reference_loop
    from parem.synth import CorpusSpec, generate_corpus

    spec = CorpusSpec(seed=seed, **WORKLOADS[workload])
    times: list[float] = []
    digests: list[dict] = []
    truth = corpus = None
    for attempt in range(SETUP_REPEATS):
        if corpus is not None:
            shutil.rmtree(corpus)
        corpus = workdir / f"corpus-{attempt}"
        warm = workdir / f"warm-{attempt}"
        reference_before = reference_loop()[0]
        started = time.perf_counter()
        truth = generate_corpus(spec, corpus)
        generate_s = time.perf_counter() - started
        generate_scale = REFERENCE_S * 2 / (reference_before + reference_loop()[0])
        started = time.perf_counter()
        try:
            result = run_child(corpus / "workspace", warm, truth)
        except (RuntimeError, ValueError) as exc:
            raise SetupError(f"warm-up analysis failed: {exc}") from exc
        # the child's two reference loops are not part of set-up
        warm_s = time.perf_counter() - started - 2 * result["reference_s"]
        times.append(generate_s * generate_scale + warm_s * result["scale"])
        shutil.rmtree(warm)
        digests.append(digest_tree(corpus / "workspace"))
    if any(d != digests[0] for d in digests):
        raise SetupError(f"seed {seed} generated different corpora: {digests}")
    pin = load_pin(workload) if seed == DEFAULT_SEED else None
    if pin is not None and pin != digests[0]:
        raise SetupError(
            f"{workload} corpus changed at the pinned seed {seed}: "
            f"got {digests[0]}, pinned {pin}"
        )
    return corpus / "workspace", truth, times, digests[0]


def measure_end_to_end(verifier: Verifier, workspace: Path, workdir: Path, seconds: float):
    """Cold run then rerun in the same out dir, repeated for ``seconds``."""
    names = ("analyze_s", "rerun_s", "cpu_s", "peak_rss_mb", "wall_s")
    samples: dict[str, list[float]] = {name: [] for name in names}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        out_dir = workdir / f"out-{index}"
        cold = verifier.run(f"cold run {index}", workspace, out_dir)
        if cold is not None:
            samples["analyze_s"].append(cold["wall_s"] * cold["scale"])
            samples["cpu_s"].append(cold["cpu_s"] * cold["scale"])
            samples["peak_rss_mb"].append(cold["peak_rss_mb"])
            samples["wall_s"].append(cold["wall_s"])
        rerun = verifier.run(f"rerun {index}", workspace, out_dir)
        if rerun is not None:
            samples["rerun_s"].append(rerun["wall_s"] * rerun["scale"])
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1
        if time.perf_counter() >= deadline:
            return samples


def measure_traced(verifier: Verifier, workspace: Path, workdir: Path, seconds: float):
    """Untraced and traced cold runs, alternating, repeated for ``seconds``."""
    untraced: list[float] = []
    traced: list[dict] = []
    reasons: dict[str, str] = {}
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        out_dir = workdir / f"out-{index}"
        plain = verifier.run(f"untraced run {index}", workspace, out_dir)
        if plain is not None:
            untraced.append(plain["wall_s"] * plain["scale"])
        shutil.rmtree(out_dir, ignore_errors=True)
        result = verifier.run(f"traced run {index}", workspace, out_dir, trace=True)
        if result is not None:
            traced.append(at_reference_speed(result["layers"], result["scale"]))
            reasons.update(result["reasons"])
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1
        if time.perf_counter() >= deadline:
            return untraced, traced, reasons


def environment() -> dict:
    commit = "unknown: not a git checkout"
    if (REPO / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = done.stdout.strip() or f"unknown: {done.stderr.strip()}"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "parem_commit": commit,
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and verify one workload; returns the result object."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workspace, truth, setup_times, pin = set_up(workload, seed, workdir)
        print(f"corpus: {workload} seed {seed} {json.dumps(pin, sort_keys=True)}")
        verifier = Verifier(truth)
        if trace:
            metrics = _traced_metrics(
                *measure_traced(verifier, workspace, workdir, seconds)
            )
        else:
            samples = measure_end_to_end(verifier, workspace, workdir, seconds)
            metrics = _end_to_end_metrics(samples, setup_times, session_lines(workspace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in verifier.failures:
        print(f"FAILED {failure}")
    print(f"environment: {json.dumps(environment(), sort_keys=True)}")
    return {
        "correct": not verifier.failures,
        "attempted": verifier.attempted,
        "failed": len(verifier.failures),
        "metrics": metrics,
    }


def _end_to_end_metrics(samples: dict, setup_times: list[float], lines: int) -> dict:
    samples = dict(samples, setup_s=setup_times)
    samples["events_per_s"] = [lines / t for t in samples["analyze_s"]]
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = samples[name]
        value = median(values) if values else None
        metrics[name] = {"value": value, "unit": unit}
        shown = ", ".join(f"{v:.4g}" for v in values)
        print(f"{name}: {value} {unit} (median of {len(values)}: {shown})")
    raw = samples["wall_s"]
    print(f"cold-run wall time as measured: {median(raw) if raw else None} s (median)")
    print(f"events: {lines} non-empty session and trajectory lines")
    return metrics


def at_reference_speed(layers: dict, scale: float) -> dict:
    """One traced run's figures with times and rates at the reference speed."""
    from spans import unit_of

    factor = {"s": scale, "1/s": 1 / scale}
    return {
        name: value if value is None else value * factor.get(unit_of(name), 1)
        for name, value in layers.items()
    }


def _traced_metrics(untraced: list[float], traced: list[dict], reasons: dict) -> dict:
    from spans import TRACE_OVERHEAD, medians, unit_of

    values = medians(traced) if traced else {}
    total = values.get("pipeline.traced_total_s")
    values[TRACE_OVERHEAD] = total - median(untraced) if total is not None and untraced else None
    print(f"medians of {len(traced)} traced and {len(untraced)} untraced runs")
    metrics = {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": unit_of(name)}
        note = f"  (null: {reasons[name]})" if name in reasons else ""
        print(f"{name}: {value} {unit_of(name)}{note}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "parem" / "__init__.py").is_file():
        print(f"no parem sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
