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


def classify_file(path: str, rules: ClassificationRules) -> str:
    """Return the surface for ``path``: first matching prefix rule, else fallback."""
    normalized = _normalize(path)
    for prefix, surface in rules.rules:
        if normalized.startswith(prefix) or normalized == prefix[:-1]:
            return surface
    return rules.fallback


def surface_counts(paths: Iterable[str], rules: ClassificationRules) -> SurfaceCounts:
    """Count files per surface; order of ``paths`` never affects the result."""
    counter: Counter[str] = Counter()
    for path in paths:
        counter[classify_file(path, rules)] += 1
    return SurfaceCounts(counts=dict(counter), fallback=rules.fallback)
