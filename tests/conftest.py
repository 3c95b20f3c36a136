from __future__ import annotations

import errno
import hashlib
from pathlib import Path

import pytest
from hypothesis import strategies as st

from parem import extraction, ingest, pipeline
from parem.activetime import Timeline
from parem.ingest import Event, TokenUsage
from parem.metrics import ObservationWindow
from parem.pipeline import Analysis, RunConfig
from parem.tokens import TokenEventRow


@pytest.fixture(scope="session", autouse=True)
def unicode_table():
    """Build Hypothesis's Unicode character table before the first test.

    The first text strategy a process validates builds it, which takes
    seconds when no .hypothesis/ directory holds it yet; built here, that
    one-off cost stays out of the too_slow health check of whichever test
    draws text first.
    """
    st.text().validate()


def make_event(
    role: str = "user",
    source: str = "sessions/a.jsonl",
    line: int = 1,
    **kwargs,
) -> Event:
    return Event(role=role, source_path=source, line_number=line, **kwargs)


def make_completion(
    ts: int | None,
    route: str | None = "route-a",
    model: str | None = "model-a",
    tokens: tuple[int, int, int, int] = (10, 5, 100, 2),
    source: str = "trajectories/a.jsonl",
    line: int = 1,
) -> Event:
    return Event(
        role="model_completed",
        source_path=source,
        line_number=line,
        timestamp_ms=ts,
        provider_route=route,
        model=model,
        tokens=TokenUsage(*tokens),
    )


def analysis_of(events: list[Event], window: ObservationWindow) -> Analysis:
    """A run over ``window`` whose de-duplicated records are ``events``."""
    analysis = Analysis(RunConfig(root=".", window=window))
    analysis.deduped = list(events), None
    return analysis


def strict_stage(events: list[Event], window: ObservationWindow) -> list[TokenEventRow]:
    """The strict stage of a run over ``window`` whose de-duplicated records
    are ``events``: the events-CSV rows of its completions."""
    return analysis_of(events, window).strict


def window_timeline(events: list[Event], window: ObservationWindow) -> Timeline:
    """The timeline of ``events`` that a run over ``window`` measures active time on."""
    return analysis_of(events, window).active_time[0]


def deny_reading(monkeypatch, *names: str) -> None:
    """Make every read of a file with one of these names fail as a read that
    is not permitted; root ignores file modes, so the error has to be injected."""
    read_file = ingest.read_file

    def reading(path):
        if Path(path).name in names:
            raise PermissionError(errno.EACCES, "Permission denied", str(path))
        return read_file(path)

    for module in (ingest, extraction, pipeline):
        monkeypatch.setattr(module, "read_file", reading)


def hash_tree(root: Path) -> str:
    """Digest of every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()
