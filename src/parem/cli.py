"""Subcommand front end: scan, analyze, synth, plus per-stage debug commands.

Each debug command prints one stage of the graph ``analyze`` runs
(``pipeline.Analysis``: read -> deduped -> timestamps -> window ->
{active_time, strict -> tokens, extraction} -> metrics -> bundle) and runs the
graph only as far as that stage, so its figures are the report's figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .ingest import WorkspaceError
from .jsonfmt import from_json, to_json
from .pipeline import Analysis, RunConfig, load_config_file, run_analysis
from .report import ReportError, governance_by_class, inventory_lines
from .synth import CorpusSpec, generate_corpus

CONFIG_ENV_VAR = "PAREM_CONFIG"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", help="workspace root to analyze")
    parser.add_argument(
        "--config",
        help=f"JSON run-config file (default: ${CONFIG_ENV_VAR} when set)",
    )
    parser.add_argument("--scope", choices=["main", "all-agent"])
    parser.add_argument("--window-start", help="observation window start (YYYY-MM-DD)")
    parser.add_argument("--window-end", help="observation window end (YYYY-MM-DD)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parem",
        description=(
            "Measurement suite for persistent-agent workspaces: parses session "
            "telemetry, de-duplicates events, estimates active time, extracts "
            "output/governance proxies, accounts tokens, and writes reproducible "
            "reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="inventory a workspace")
    _add_common(scan)
    scan.add_argument("--json", action="store_true", help="print the inventory as JSON")

    analyze = sub.add_parser("analyze", help="run the full pipeline and write reports")
    _add_common(analyze)
    analyze.add_argument("--out", help="output directory")
    analyze.add_argument("--caps", help="comma-separated cap minutes, e.g. 15,30,45,60,90")
    analyze.add_argument("--granularity", choices=["section", "sentence"])
    analyze.add_argument(
        "--exclude-generated",
        action="store_true",
        default=None,
        help="drop build outputs and lock files before surface counting",
    )
    analyze.add_argument(
        "--log1p",
        action="store_true",
        default=None,
        help="use ln(1+x) for the cache/output association instead of excluding zeros",
    )
    analyze.add_argument(
        "--dedup-ledger",
        action="store_true",
        default=None,
        help="also export the (key, source, line) audit ledger",
    )

    synth = sub.add_parser("synth", help="generate a synthetic workspace with ground truth")
    synth.add_argument("--spec", help="JSON corpus spec file (defaults apply when omitted)")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--seed", type=int, help="override the spec seed")

    for name, help_text in (
        ("dedup", "print de-duplication stats for a workspace"),
        ("activetime", "print capped-gap estimates for a workspace"),
        ("tokens", "print strict-subset token totals for a workspace"),
        ("extract", "print proxy extraction counts for a workspace"),
    ):
        stage = sub.add_parser(name, help=help_text)
        _add_common(stage)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        data = load_config_file(config_path)

    if args.root is not None:
        data["root"] = args.root
    if "root" not in data:
        raise ValueError("no workspace root: pass --root or set it in the config file")
    if getattr(args, "out", None) is not None:
        data["out_dir"] = args.out
    if args.scope is not None:
        data["scope"] = args.scope
    window = data.get("window") or {}
    # a window that is not an object is left for from_json to reject
    if (args.window_start or args.window_end) and isinstance(window, dict):
        window = dict(window)
        if args.window_start:
            window["start_date"] = args.window_start
        if args.window_end:
            window["end_date"] = args.window_end
        data["window"] = window
    if getattr(args, "caps", None):
        data["caps"] = [int(c) for c in args.caps.split(",")]
    if getattr(args, "granularity", None) is not None:
        data["granularity"] = args.granularity
    for flag in ("exclude_generated", "log1p", "dedup_ledger"):
        value = getattr(args, flag, None)
        if value is not None:
            data[flag] = value
    return from_json(RunConfig, data)


def _print_json(data: object) -> None:
    print(json.dumps(to_json(data), indent=2, sort_keys=True))


def cmd_scan(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    inventory = Analysis(config).read[0]
    if args.json:
        _print_json(inventory)
        return 0
    for line in inventory_lines(inventory):
        print(line)
    print(f"artifact-surface breadth: {inventory.surfaces.asb}")
    for warning in inventory.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, written = run_analysis(config)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = from_json(CorpusSpec, json.load(handle))
    else:
        spec = CorpusSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    ground_truth = generate_corpus(spec, args.out)
    print(f"wrote {Path(args.out) / 'workspace'}")
    print(f"wrote {Path(args.out) / 'ground_truth.json'}")
    print(
        f"events: {ground_truth.drc} unique, {ground_truth.active_days} active days, "
        f"{ground_truth.completions_strict} strict completions"
    )
    return 0


def cmd_dedup(args: argparse.Namespace) -> int:
    _print_json(Analysis(_config_from_args(args)).deduped[1])
    return 0


def cmd_activetime(args: argparse.Namespace) -> int:
    _print_json(Analysis(_config_from_args(args)).active_time[1])
    return 0


def cmd_tokens(args: argparse.Namespace) -> int:
    totals, routes, *_ = Analysis(_config_from_args(args)).tokens
    _print_json({"totals": totals, "routes": routes})
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    sections, outputs, governance, warnings = Analysis(_config_from_args(args)).extraction
    _print_json(
        {
            "dated_sections": len(sections),
            "output_proxies": len(outputs),
            "governance_proxies": len(governance),
            "governance_by_class": governance_by_class(governance),
            "warnings": warnings,
        }
    )
    return 0


_COMMANDS = {
    "scan": cmd_scan,
    "analyze": cmd_analyze,
    "synth": cmd_synth,
    "dedup": cmd_dedup,
    "activetime": cmd_activetime,
    "tokens": cmd_tokens,
    "extract": cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WorkspaceError, ReportError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
