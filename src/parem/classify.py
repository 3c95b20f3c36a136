"""Map workspace files onto artifact surfaces via ordered path-prefix rules."""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

UNCLASSIFIED = "unclassified"

_LEADING_DOT_SLASHES = re.compile(r"^(?:\./|/)+")

# Stable workspace roots -> surface names. Order is re-derived at load time
# (longest prefix first), so nested roots beat their parents.
DEFAULT_SURFACE_RULES: tuple[tuple[str, str], ...] = (
    ("manuscripts/", "manuscripts"),
    ("teaching-artifacts/", "teaching"),
    ("linkedin/", "content"),
    ("content/", "content"),
    ("revenue-tools/", "revenue-tools"),
    ("scripts/", "scripts"),
    ("ops/", "ops"),
    ("aqrab-website/src/", "aqrab-website"),
    ("aqrab-calibration-study/research/", "calibration-research"),
    ("aqrab-calibration-study/panel-app/", "panel-app"),
    ("target-trial-emulation-benchmark/", "target-trial-benchmark"),
)

# Build noise that can be dropped before counting. Off by default so raw
# counts stay raw; ``RunConfig.exclude_generated`` turns the exclusion on.
DEFAULT_GENERATED_PATTERNS: tuple[str, ...] = (
    "node_modules/",
    "dist/",
    "build/",
    ".git/",
    "__pycache__/",
    ".next/",
    "target/",
    "package-lock.json",
    "yarn.lock",
    "poetry.lock",
    "Cargo.lock",
    "uv.lock",
)


@dataclass(frozen=True)
class ClassificationRules:
    """Ordered (path prefix, surface) rules with an explicit fallback.

    Rules are stored longest-prefix-first so the most specific root wins; a
    path matching no rule falls back to the ``unclassified`` surface.
    """

    rules: tuple[tuple[str, str], ...] = DEFAULT_SURFACE_RULES
    fallback: str = UNCLASSIFIED
    generated_patterns: tuple[str, ...] = DEFAULT_GENERATED_PATTERNS
    version: str = "surface-roots/1"

    def __post_init__(self) -> None:
        normalized = []
        for prefix, surface in self.rules:
            prefix = prefix.replace("\\", "/")
            if not prefix.endswith("/"):
                prefix += "/"
            normalized.append((prefix, surface))
        normalized.sort(key=lambda item: (-len(item[0]), item[0]))
        object.__setattr__(self, "rules", tuple(normalized))

    def is_generated(self, path: str) -> bool:
        path = _normalize(path)
        name = path.rsplit("/", 1)[-1]
        for pattern in self.generated_patterns:
            if pattern.endswith("/"):
                if path.startswith(pattern) or f"/{pattern}" in f"/{path}":
                    return True
            elif name == pattern:
                return True
        return False


@dataclass(frozen=True)
class SurfaceCounts:
    """Per-surface file counts plus the breadth over non-fallback surfaces."""

    counts: Mapping[str, int] = field(default_factory=dict)
    fallback: str = UNCLASSIFIED

    @property
    def asb(self) -> int:
        return sum(
            1 for surface, n in self.counts.items() if n > 0 and surface != self.fallback
        )


def _normalize(path: str) -> str:
    """Forward slashes, without leading ``./`` and ``/``; a dot-directory
    such as ``.git/`` keeps its dot."""
    return _LEADING_DOT_SLASHES.sub("", path.replace("\\", "/"))


def surface_counts(paths: Iterable[str], rules: ClassificationRules) -> SurfaceCounts:
    """Count files per surface. A path's surface is that of the first rule
    (the longest prefix) that it starts with or whose directory it names,
    else the fallback; order of ``paths`` never affects the result.

    A prefix rule ends in ``/``, so a path's directory alone decides which
    prefixes it starts with, and each directory is classified once. Only the
    equality case, a path naming a rule's directory itself, reads the name.
    """
    named: dict[str, tuple[int, str]] = {}  # a prefix without its "/" -> its first rule
    for index, (prefix, surface) in enumerate(rules.rules):
        named.setdefault(prefix[:-1], (index, surface))
    directories: dict[str, tuple[str, int, str]] = {}
    counter: Counter[str] = Counter()
    for path in paths:
        head, slash, name = path.replace("\\", "/").rpartition("/")
        found = directories.get(head + slash)
        if found is None:
            directory = _normalize(head + slash)
            found = (directory, len(rules.rules), rules.fallback)
            for index, (prefix, surface) in enumerate(rules.rules):
                if directory.startswith(prefix):
                    found = (directory, index, surface)
                    break
            directories[head + slash] = found
        directory, index, surface = found
        exact = named.get(directory + name)
        counter[exact[1] if exact is not None and exact[0] < index else surface] += 1
    return SurfaceCounts(counts=dict(counter), fallback=rules.fallback)
