"""The per-file parse cache: a warm run equals a cold one, and a damaged,
foreign or missing cache costs re-parses, never a changed output."""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hash_tree
from parem import ingest
from parem.cli import main
from parem.ingest import FieldAliases, WorkspaceConventions, parse_session_file, scan_and_parse
from parem.jsonfmt import to_json
from parem.pipeline import PARSE_CACHE, Analysis, RunConfig, run_analysis
from parem.synth import CorpusSpec, generate_corpus


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    roots = {}
    for seed in (7, 4242):
        out = tmp_path_factory.mktemp(f"cache-corpus-{seed}")
        generate_corpus(CorpusSpec(seed=seed), out)
        roots[seed] = out / "workspace"
    return roots


@pytest.fixture
def parses(monkeypatch):
    """The relative paths parse_session_file is called for, in call order."""
    calls: list[str] = []
    original = ingest.parse_session_file

    def counting(data, source_path, *args, **kwargs):
        calls.append(source_path)
        return original(data, source_path, *args, **kwargs)

    monkeypatch.setattr(ingest, "parse_session_file", counting)
    return calls


def cold_tree(config: RunConfig, out: Path) -> str:
    run_analysis(replace(config, out_dir=str(out)))
    return hash_tree(out)


@pytest.mark.parametrize("seed", [7, 4242])
@pytest.mark.parametrize("options", [{}, {"scope": "all-agent", "dedup_ledger": True}])
def test_warm_rerun_equals_cold_run(corpora, tmp_path, parses, seed, options):
    config = RunConfig(root=str(corpora[seed]), out_dir=str(tmp_path / "out"), **options)
    _, written = run_analysis(config)
    cold = hash_tree(tmp_path / "out")
    assert parses, "the cold run parses every session file"
    assert (tmp_path / "out" / PARSE_CACHE).is_file()
    assert tmp_path / "out" / PARSE_CACHE not in written

    parses.clear()
    run_analysis(config)
    assert parses == []
    assert hash_tree(tmp_path / "out") == cold


def test_a_rerun_parses_only_new_or_changed_files(corpora, tmp_path, parses):
    workspace = tmp_path / "ws"
    shutil.copytree(corpora[7], workspace)
    config = RunConfig(root=str(workspace), out_dir=str(tmp_path / "out"))
    run_analysis(config)
    first, second, *_ = sorted(p.name for p in (workspace / "sessions").iterdir())
    (workspace / "sessions" / first).unlink()
    with open(workspace / "sessions" / second, "a", encoding="utf-8") as handle:
        handle.write('{"role": "user", "ts": 1704067200000, "content": "appended"}\n')
    (workspace / "trajectories" / "zz-new.jsonl").write_text('{"role": "user"}\n')

    parses.clear()
    run_analysis(config)
    assert parses == [f"sessions/{second}", "trajectories/zz-new.jsonl"]
    assert hash_tree(tmp_path / "out") == cold_tree(config, tmp_path / "cold")


def test_two_cold_runs_write_identical_caches(corpora, tmp_path):
    for name in ("a", "b"):
        run_analysis(RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / name)))
    first = (tmp_path / "a" / PARSE_CACHE).read_bytes()
    assert first == (tmp_path / "b" / PARSE_CACHE).read_bytes()
    header, *lines = first.decode("ascii").splitlines()
    assert json.loads(header)["format"] == ingest.PARSE_CACHE_FORMAT
    paths = [json.loads(line)[0] for line in lines]
    assert paths == sorted(paths) and len(paths) == len(set(paths))
    assert not list((tmp_path / "a" / "cache").glob("*.tmp"))


def test_in_memory_build_and_stage_commands_write_no_cache(corpora, tmp_path, monkeypatch):
    Analysis(RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / "out"))).bundle
    assert not (tmp_path / "out").exists()
    monkeypatch.chdir(tmp_path)
    for command in ("scan", "dedup", "activetime", "tokens", "extract"):
        assert main([command, "--root", str(corpora[7])]) == 0
    assert list(tmp_path.iterdir()) == []


def _damage_line(text: str) -> str:
    header, _, *rest = text.splitlines(keepends=True)
    return header + "not a cache line\n" + "".join(rest)


def _change_a_digit(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    cut = max(i for i, char in enumerate(first) if char.isdigit())
    changed = first[:cut] + str((int(first[cut]) + 1) % 10) + first[cut + 1 :]
    return header + changed + "".join(rest)


DAMAGE = {
    "corrupt line": _damage_line,
    "changed value": _change_a_digit,
    "truncated file": lambda text: text[: len(text) // 2],
    "wrong header": lambda text: text.replace(ingest.PARSE_CACHE_FORMAT, "parem-parse-cache/0", 1),
    "lines out of order": lambda text: text.splitlines(True)[0]
    + "".join(reversed(text.splitlines(True)[1:])),
    "empty file": lambda text: "",
    "not text": lambda text: "\udcff\x00\n[\"sessions/\n",
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_cache_gives_the_cold_outputs(corpora, tmp_path, damage):
    config = RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / "warm"))
    run_analysis(config)
    cache = tmp_path / "warm" / PARSE_CACHE
    text = cache.read_text(encoding="ascii")
    cache.write_bytes(DAMAGE[damage](text).encode("utf-8", "surrogateescape"))

    run_analysis(config)
    assert hash_tree(tmp_path / "warm") == cold_tree(config, tmp_path / "cold")


def test_a_damaged_line_reparses_only_its_file(corpora, tmp_path, parses):
    config = RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / "out"))
    run_analysis(config)
    cache = tmp_path / "out" / PARSE_CACHE
    cache.write_text(_change_a_digit(cache.read_text(encoding="ascii")), encoding="ascii")
    parses.clear()
    run_analysis(config)
    assert len(parses) == 1


def test_changed_aliases_discard_the_cache(corpora, tmp_path):
    report = tmp_path / "warm" / "reports" / "report.json"
    run_analysis(RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / "warm")))
    before = report.read_bytes()
    # without "body" a third of the synth records lose their content
    aliases = FieldAliases(content=("content", "text"))
    config = RunConfig(root=str(corpora[7]), out_dir=str(tmp_path / "warm"), aliases=aliases)
    run_analysis(config)
    assert report.read_bytes() != before
    assert hash_tree(tmp_path / "warm") == cold_tree(config, tmp_path / "cold")
    header = (tmp_path / "warm" / PARSE_CACHE).read_text(encoding="ascii").splitlines()[0]
    assert json.loads(header)["aliases"] == to_json(aliases)


def test_unreadable_files_are_not_cached(tmp_path):
    workspace = tmp_path / "ws"
    (workspace / "sessions").mkdir(parents=True)
    (workspace / "sessions" / "a.jsonl").write_text('{"role": "user", "ts": 1}\n')
    os.symlink(tmp_path / "missing", workspace / "sessions" / "b.jsonl")
    config = RunConfig(root=str(workspace), out_dir=str(tmp_path / "out"))
    for _ in range(2):
        bundle, _ = run_analysis(config)
        assert "unreadable or truncated session file: sessions/b.jsonl" in bundle.warnings
        assert bundle.inventory.recoverable_main == 1
    lines = (tmp_path / "out" / PARSE_CACHE).read_text(encoding="ascii").splitlines()
    assert [json.loads(line)[0] for line in lines[1:]] == ["sessions/a.jsonl"]


# Session files of a small workspace, and the edits made to it between runs.
PATHS = (
    "sessions/a.jsonl",
    "sessions/b.jsonl",
    "trajectories/a.jsonl",
    "trajectories/c.jsonl",
    "agents/x/sessions/a.jsonl",
    "agents/x/trajectories/b.jsonl",
)
DAY_MS = 86_400_000
records = st.fixed_dictionaries(
    {"role": st.sampled_from(["user", "assistant", "tool_call", "model_completed", "human"])},
    optional={
        "ts": st.integers(1_704_067_200_000, 1_704_067_200_000 + 4 * DAY_MS),
        "id": st.sampled_from(["e1", "e2", "e3"]),
        "content": st.text(max_size=12),
        "usage": st.fixed_dictionaries({"input": st.integers(0, 9), "output": st.integers(0, 9)}),
    },
).map(json.dumps)
lines = st.one_of(
    records,
    st.sampled_from(["", "not json", "{}", "[1]", '{"role": "user"', '\ufeff{"role": "user"}']),
)
contents = st.one_of(
    st.tuples(st.lists(lines, max_size=6), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda parts: parts[1].join(parts[0]).encode("utf-8")
    ),
    st.binary(max_size=40),
)
edits = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(PATHS), contents),
    st.tuples(st.just("append"), st.sampled_from(PATHS), contents),
    st.tuples(st.just("delete"), st.sampled_from(PATHS)),
    st.tuples(st.just("rename"), st.sampled_from(PATHS), st.sampled_from(PATHS)),
    st.tuples(st.just("flip"), st.sampled_from(PATHS), st.integers(0, 400)),
)


def _apply(files: dict[str, bytes], edit: tuple) -> None:
    kind, path, *args = edit
    if kind == "write":
        files[path] = args[0]
    elif kind == "append":
        files[path] = files.get(path, b"") + args[0]
    elif kind == "delete":
        files.pop(path, None)
    elif kind == "rename" and path in files:
        files[args[0]] = files.pop(path)
    elif kind == "flip" and files.get(path):
        data = bytearray(files[path])
        data[args[0] % len(data)] ^= 0x21
        files[path] = bytes(data)


def _materialize(root: Path, files: dict[str, bytes]) -> None:
    root.mkdir(exist_ok=True)
    for path in PATHS:
        (root / path).unlink(missing_ok=True)
    for path, data in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(data)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.dictionaries(st.sampled_from(PATHS), contents, max_size=5),
    rounds=st.lists(st.lists(edits, min_size=1, max_size=4), min_size=1, max_size=2),
)
def test_edited_workspace_matches_a_cold_run(initial, rounds):
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch)
        files = dict(initial)
        _materialize(base / "ws", files)
        config = RunConfig(
            root=str(base / "ws"), out_dir=str(base / "warm"), scope="all-agent"
        )
        run_analysis(config)
        for index, round_edits in enumerate(rounds):
            for edit in round_edits:
                _apply(files, edit)
            _materialize(base / "ws", files)
            run_analysis(config)
            assert hash_tree(base / "warm") == cold_tree(config, base / f"cold-{index}")


@settings(max_examples=60, deadline=None)
@given(files=st.dictionaries(
    st.sampled_from([
        "sessions/b.jsonl",
        "sessions/z.jsonl",
        "subagents/m/sessions/a.jsonl",
        "subagents/a/trajectories/a.jsonl",
        "trajectories/a.jsonl",
    ]),
    st.lists(lines, max_size=5).map(lambda ls: "\n".join(ls).encode("utf-8")),
    max_size=5,
))
def test_events_come_back_in_path_then_line_order(files):
    # "subagents" sorts between "sessions" and "trajectories", so main and
    # agent files interleave in the canonical order
    conventions = WorkspaceConventions(agent_root="subagents")
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        for path, data in files.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_bytes(data)
        _, events = scan_and_parse(root, conventions=conventions)
        expected = []
        for path in sorted(files):
            scope = "other_agent" if path.startswith("subagents/") else "main"
            expected.extend(parse_session_file(files[path], path, None, scope)[0])
    assert events == sorted(events, key=lambda e: (e.source_path, e.line_number))
    assert events == expected


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(
        st.one_of(lines, st.binary(max_size=8).map(lambda b: b.decode("latin-1"))),
        max_size=8,
    ),
    separators=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\n\n"]), min_size=1),
    invalid=st.booleans(),
)
def test_bytes_split_into_lines_as_open_does(parts, separators, invalid):
    text = "".join(part + separators[i % len(separators)] for i, part in enumerate(parts))
    data = text.encode("utf-8") + (b"\xff\xfe{" if invalid else b"")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "s.jsonl"
        path.write_bytes(data)
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            reference = {n: line.strip() for n, line in enumerate(handle, 1) if line.strip()}
    events, stats = parse_session_file(data, "s.jsonl")
    assert stats.total_lines == len(reference)
    for event in events:
        assert isinstance(json.loads(reference[event.line_number]), dict)
