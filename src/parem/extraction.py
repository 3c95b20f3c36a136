"""Dated memory sections and keyword-rule extraction of proxy events.

Output proxies mark completion or delivery of a substantive artifact;
governance proxies mark verification, correction, protocol, safety, or
failure activity. Both come from the same dated memory sections via
word-boundary keyword families with exclusion predicates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property, partial
from operator import attrgetter
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence

ProxyKind = Literal["output", "governance"]
Granularity = Literal["section", "sentence"]

GOVERNANCE_CLASSES: tuple[str, ...] = (
    "verification",
    "correction",
    "protocol",
    "safety",
    "failure",
)

# A dated heading is a markdown heading carrying an ISO date; group 1 must
# capture the date.
DEFAULT_HEADING_PATTERN = r"^#{1,6}\s.*?(\d{4}-\d{2}-\d{2})"


def compile_heading_pattern(pattern: str) -> re.Pattern:
    """The dated-heading pattern, compiled; ValueError unless it compiles
    and has the capture group that holds the date."""
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise ValueError(f"heading pattern {pattern!r} does not compile: {exc}") from None
    if compiled.groups < 1:
        raise ValueError(
            f"heading pattern {pattern!r} has no capture group; group 1 must capture the date"
        )
    return compiled


_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
_BULLET_PREFIX = re.compile(r"^[\s>*+-]+")
_ARTIFACT_TOKEN = re.compile(r"`([^`]+)`|\b([\w./-]+\.(?:md|py|ts|js|pdf|csv|html|tex|ipynb|docx|pptx|svg))\b")

REPEAT_BYPASS_TERMS: tuple[str, ...] = (
    "new version",
    "v2",
    "v3",
    "revised",
    "rewrote",
    "reworked",
    "major update",
)


# New-version signals. An alternation of escaped literals backtracks through
# every alternative, so it hits a text iff some ``\bterm\b`` does.
_REPEAT_BYPASS = re.compile(
    rf"\b(?:{'|'.join(map(re.escape, REPEAT_BYPASS_TERMS))})\b", re.IGNORECASE
)
_WORD_RUN = re.compile(r"\w+")
# With each ASCII non-word character made a space, split() gives an ASCII
# text's _WORD_RUN.findall runs exactly, at about a quarter of the cost.
_ASCII_NON_WORD = bytes(c for c in range(128) if not _WORD_RUN.fullmatch(chr(c)))
_NON_WORD_TO_SPACE = bytes.maketrans(_ASCII_NON_WORD, b" " * len(_ASCII_NON_WORD))
# The non-ASCII characters that IGNORECASE equates with an ASCII letter:
# İ ı ſ K. lower() does not map every one of them to that letter.
_FOLD_HAZARDS = frozenset("\u0130\u0131\u017f\u212a")


def _normalize_term(term: str) -> str:
    return " ".join(term.split())


class DatedSection(NamedTuple):
    date: date
    heading: str
    body: str
    source_path: str


class ProxyEvent(NamedTuple):
    date: date
    kind: ProxyKind
    matched_terms: tuple[str, ...]
    section_ref: tuple[str, str]  # (source_path, heading)
    governance_class: str | None = None
    family: str | None = None


class MatchedSection(NamedTuple):
    """A dated section reduced to what the extractors read, small enough to
    cache: per family with a hit, the (sentence index, matched terms) that
    ``KeywordMatcher.matches`` found under the output and the governance
    rules, and the output hits' sentences by index, which the repeat
    suppression reads. When none of them may name an artifact, the
    suppression reads none, and none are kept."""

    date: date
    source_path: str
    heading: str
    output: dict[str, list]
    governance: dict[str, list]
    sentences: dict[int, str]


# build a record from a tuple of all its fields, skipping the keyword-argument
# handling of the named tuple's constructor
_new_proxy = partial(tuple.__new__, ProxyEvent)
_new_matched = partial(tuple.__new__, MatchedSection)


@dataclass(frozen=True)
class KeywordRuleSet:
    """Named keyword families, optional per-family classes, and exclusions.

    Matching is word-boundary over whitespace-normalized sentences,
    case-insensitive unless configured otherwise. A sentence hit by any
    exclusion pattern contributes no matches at all. Families are stored in
    name order, the order they take in a config written with sorted keys, so
    the proxies of a section come out the same for a set read back from one.
    """

    families: Mapping[str, tuple[str, ...]]
    family_classes: Mapping[str, str] = field(default_factory=dict)
    exclusions: tuple[str, ...] = ()
    class_priority: tuple[str, ...] = GOVERNANCE_CLASSES
    case_sensitive: bool = False
    version: str = "ruleset/1"

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", dict(sorted(self.families.items())))
        for name, terms in self.families.items():
            if not terms:
                raise ValueError(f"keyword family {name!r} is empty")
            for term in terms:
                if not _normalize_term(term):
                    raise ValueError(f"keyword family {name!r} has a blank term: {term!r}")
        for family, name in self.family_classes.items():
            if family not in self.families:
                raise ValueError(f"family_classes names no keyword family: {family!r}")
            if name not in self.class_priority:
                raise ValueError(f"class {name!r} of family {family!r} is not in class_priority")
        flags = 0 if self.case_sensitive else re.IGNORECASE
        for pattern in self.exclusions:
            try:
                re.compile(pattern, flags)
            except re.error as exc:
                raise ValueError(f"exclusion {pattern!r} does not compile: {exc}") from None

    @cached_property
    def matcher(self) -> "KeywordMatcher":
        """The rule set compiled once; every extraction call reuses it."""
        flags = 0 if self.case_sensitive else re.IGNORECASE
        terms, words, others = [], {}, []
        for family, family_terms in self.families.items():
            for term in family_terms:
                text = _normalize_term(term)
                key = text if self.case_sensitive else text.lower()
                exact = self.case_sensitive or text.isascii()
                if exact and _WORD_RUN.fullmatch(text):
                    words.setdefault(key, []).append(len(terms))
                else:
                    # "" occurs in every sentence: under IGNORECASE a non-ASCII
                    # term can match text that lower() folds to something else
                    others.append((len(terms), key if exact else ""))
                terms.append((family, term, re.compile(rf"\b{re.escape(text)}\b", flags)))
        return KeywordMatcher(
            families=tuple(self.families),
            terms=tuple(terms),
            words={key: tuple(positions) for key, positions in words.items()},
            others=tuple(others),
            exclusions=tuple(re.compile(pattern, flags) for pattern in self.exclusions),
            fold=not self.case_sensitive,
        )


@dataclass(frozen=True)
class KeywordMatcher:
    """A compiled rule set: a word lookup, the per-term patterns and the exclusions.

    A term of ``\\w`` characters matches ``\\bterm\\b`` exactly when it
    equals a maximal ``\\w+`` run, so each sentence's word runs, folded with
    ``lower()`` unless the set is case-sensitive, are looked up (an ASCII
    sentence's runs come from a byte translation, not a regex). Another
    term's pattern runs only when its folded text occurs in the folded
    sentence; a case-insensitive sentence holding a fold hazard searches
    every term. Exclusions run only on sentences that hold a term, each on
    its own and in order until one hits, so a user's groups and inline flags
    never meet another pattern. Each sentence takes one pass of a plain loop:
    lookup, searches, exclusions, then its hits grouped by family.
    """

    families: tuple[str, ...]
    # every term in family order: (family, term, \bterm\b pattern)
    terms: tuple[tuple[str, str, re.Pattern], ...]
    # folded single-word term -> its positions in ``terms``
    words: Mapping[str, tuple[int, ...]]
    # (position in ``terms``, folded text that must occur for it to run)
    others: tuple[tuple[int, str], ...]
    exclusions: tuple[re.Pattern, ...]
    fold: bool

    def matches(self, sentences: Sequence[str]) -> dict[str, list[tuple[int, list[str]]]]:
        """Per family with a hit, in family order: (sentence index, matched
        terms) for non-excluded sentences."""
        matches: dict[str, list[tuple[int, list[str]]]] = {}
        terms, words, others, fold = self.terms, self.words, self.others, self.fold
        for index, sentence in enumerate(sentences):
            hits: list[int] = []
            if fold and not sentence.isascii() and not _FOLD_HAZARDS.isdisjoint(sentence):
                for position, (_, _, pattern) in enumerate(terms):
                    if pattern.search(sentence):
                        hits.append(position)
            else:
                folded = sentence.lower() if fold else sentence
                runs = (
                    folded.encode().translate(_NON_WORD_TO_SPACE).decode().split()
                    if folded.isascii()
                    else _WORD_RUN.findall(folded)
                )
                for word in words.keys() & runs:
                    hits += words[word]
                for position, text in others:
                    if text in folded and terms[position][2].search(sentence):
                        hits.append(position)
                hits.sort()
            if not hits:
                continue
            for pattern in self.exclusions:
                if pattern.search(sentence):
                    break
            else:
                family = None
                for position in hits:
                    name, term, _ = terms[position]
                    if name == family:
                        found.append(term)
                    else:
                        family, found = name, [term]
                        if name in matches:
                            matches[name].append((index, found))
                        else:
                            matches[name] = [(index, found)]
        if len(matches) > 1:  # a later sentence may have hit an earlier family
            return {name: matches[name] for name in self.families if name in matches}
        return matches


DEFAULT_OUTPUT_RULES = KeywordRuleSet(
    families={
        "authorship": ("created", "drafted", "wrote", "generated", "rendered"),
        "engineering": ("implemented", "fixed", "patched", "deployed", "pushed", "merged"),
        "verification": ("verified", "validated", "smoke test", "build passed"),
        "release": ("submitted", "published", "sent", "posted"),
        "artifact": ("artifact", "manuscript", "slides", "guide", "script", "dashboard", "app"),
    },
    exclusions=(
        r"auto-?generated",
        r"\bbuild (?:artifact|output|product)s?\b",
        r"\b(?:plan|plans|planned|planning) to\b",
        r"\bonly discussed\b",
        r"\bdiscussion only\b",
        r"\bno (?:new )?artifact\b",
        r"\bnothing (?:was )?delivered\b",
    ),
    version="output-families/1",
)

DEFAULT_GOVERNANCE_RULES = KeywordRuleSet(
    families={
        "verification": (
            "verified",
            "verification",
            "validated",
            "checked",
            "double-checked",
            "smoke test",
            "build passed",
            "tests passed",
            "doi check",
        ),
        "correction": (
            "corrected",
            "correction",
            "bug fix",
            "bugfix",
            "fixed wrong",
            "fixed incorrect",
            "citation fix",
        ),
        "protocol": ("protocol", "rule", "checklist", "policy", "lesson"),
        "safety": (
            "credential",
            "credentials",
            "secret",
            "api key",
            "unsafe",
            "safety",
            "redacted",
        ),
        "failure": (
            "failed",
            "failure",
            "broke",
            "broken",
            "duplicate send",
            "wrong result",
            "bad doi",
            "mistake",
        ),
    },
    family_classes={
        "verification": "verification",
        "correction": "correction",
        "protocol": "protocol",
        "safety": "safety",
        "failure": "failure",
    },
    exclusions=(
        r"auto-?generated",
        r"\bbuild (?:artifact|output|product)s?\b",
    ),
    version="governance-families/1",
)


def parse_memory_sections(
    files: Mapping[str, bytes], heading_pattern: str = DEFAULT_HEADING_PATTERN
) -> tuple[list[DatedSection], list[str]]:
    """Split memory files, each file's label mapped to its bytes, into dated sections.

    Undated text attaches to the preceding dated section; text before the
    first dated heading is skipped. Returns (sections, warnings). The
    warnings are always empty, since the bytes are read already; the pair
    stays because ``perfbench/spans.py`` counts the sections in it.
    """
    pattern = compile_heading_pattern(heading_pattern)
    sections: list[DatedSection] = []
    for label, data in files.items():
        lines = data.decode("utf-8", errors="replace").splitlines()
        starts: list[tuple[int, date]] = []  # (line number, date) of each dated heading
        for number, line in enumerate(lines):
            match = pattern.match(line)
            if match:
                try:
                    starts.append((number, date.fromisoformat(match.group(1))))
                except (TypeError, ValueError):  # group 1 unset, or not a real date
                    pass
        for (number, day), (end, _) in zip(starts, [*starts[1:], (len(lines), None)]):
            body = "\n".join(lines[number + 1 : end])
            sections.append(DatedSection(day, lines[number].strip(), body, label))
    return sections, []


def split_sentences(body: str) -> list[str]:
    """Whitespace-normalized sentences; each line is split on terminal punctuation.

    The bullet-prefix regex runs only on a line that starts with whitespace
    (re's ``\\s`` is exactly ``str.isspace``) or ``>*+-``, and the boundary
    split only on a stripped line with ``.``, ``!`` or ``?`` before its end.
    """
    sentences: list[str] = []
    for line in body.splitlines():
        if not line:
            continue
        if line[0] in ">*+-" or line[0].isspace():
            line = _BULLET_PREFIX.sub("", line)
        line = line.strip()
        if not line:
            continue
        head = line[:-1]
        pieces = (
            _SENTENCE_BOUNDARY.split(line)
            if "." in head or "!" in head or "?" in head
            else (line,)
        )
        for piece in pieces:
            piece = " ".join(piece.split())
            if piece:
                sentences.append(piece)
    return sentences


def _clusters(
    hits: Sequence[tuple[int, list[str]]], granularity: Granularity
) -> list[tuple[tuple[int, ...], tuple[str, ...]]]:
    """Collapse hits to (member sentence indices, matched terms) clusters.

    Section granularity merges runs of consecutive matched sentences;
    sentence granularity keeps one cluster per matched sentence.
    """
    if len(hits) == 1:
        index, terms = hits[0]
        return [((index,), tuple(dict.fromkeys(terms)))]
    clusters: list[tuple[list[int], list[str]]] = []
    for index, terms in hits:
        if granularity == "section" and clusters and index == clusters[-1][0][-1] + 1:
            clusters[-1][0].append(index)
            clusters[-1][1].extend(terms)
        else:
            clusters.append(([index], list(terms)))
    return [(tuple(members), tuple(dict.fromkeys(terms))) for members, terms in clusters]


def _may_name_artifact(sentence: str) -> bool:
    """False when the sentence has no backtick and no ``.`` before its last
    two characters (every extension has two or more), so no artifact token."""
    return "`" in sentence or "." in sentence[:-2]


def _artifact_tokens(sentences: Sequence[str], indices: Iterable[int]) -> set[str]:
    """Lower-cased backticked names and filename-like tokens of the sentences;
    a sentence that ``_may_name_artifact`` rules out is not searched."""
    tokens: set[str] = set()
    for index in indices:
        sentence = sentences[index]
        if _may_name_artifact(sentence):
            for match in _ARTIFACT_TOKEN.finditer(sentence):
                tokens.add((match.group(1) or match.group(2)).lower())
    return tokens


_section_order = attrgetter("date", "source_path", "heading")


def match_sections(
    sections: Iterable[DatedSection],
    output_rules: KeywordRuleSet = DEFAULT_OUTPUT_RULES,
    governance_rules: KeywordRuleSet = DEFAULT_GOVERNANCE_RULES,
) -> list[MatchedSection]:
    """Each section matched against both rule sets, in the order given: the
    one place a body is split into sentences and the rules are matched."""
    output, governance = output_rules.matcher.matches, governance_rules.matcher.matches
    matched = []
    for day, heading, body, path in sections:
        sentences = split_sentences(body)
        hits = output(sentences)
        said = {index: sentences[index] for found in hits.values() for index, _ in found}
        if said and not any(map(_may_name_artifact, said.values())):
            said = {}  # the repeat suppression reads none of them
        matched.append(_new_matched((day, path, heading, hits, governance(sentences), said)))
    return matched


def encode_matched(matched: Sequence[MatchedSection]) -> list:
    """One file's matched sections as JSON data: ``[[<section>, ...]]``, each
    section ``[<date>, <heading>, <output hits>, <governance hits>,
    [[<index>, <sentence>], ...]]``; the file's path is the cache line's."""
    return [
        [
            [s.date.isoformat(), s.heading, s.output, s.governance, list(s.sentences.items())]
            for s in matched
        ]
    ]


def decode_matched(payload: list, source_path: str) -> list[MatchedSection]:
    """The inverse of ``encode_matched`` for the file at ``source_path``."""
    (rows,) = payload
    return [
        _new_matched(
            (date.fromisoformat(day), source_path, heading, output, governance, dict(sentences))
        )
        for day, heading, output, governance, sentences in rows
    ]


def extract_output_proxies(
    sections: Sequence[MatchedSection],
    *,
    granularity: Granularity = "section",
    repeat_horizon_days: int = 7,
) -> list[ProxyEvent]:
    """Output-proxy events, one per keyword-family cluster of output hits.

    Repeated logs of a named artifact within the horizon are suppressed
    unless the sentence signals a materially new version. Artifacts are
    recognized by backticked names or filename-like tokens; this is an
    approximation of the repeat exclusion and is configurable off with
    ``repeat_horizon_days=0``.
    """
    last_logged: dict[tuple[str, str], date] = {}
    proxies: list[ProxyEvent] = []

    for section in sorted(sections, key=_section_order):
        found, sentences = section.output, section.sentences
        day = section.date
        ref = (section.source_path, section.heading)
        for family, hits in found.items():
            for members, terms in _clusters(hits, granularity):
                if (
                    repeat_horizon_days > 0
                    and sentences
                    and (tokens := _artifact_tokens(sentences, members))
                ):
                    # suppressed when every token was logged within the
                    # horizon and the cluster names no new version
                    recent = True
                    for token in tokens:
                        last = last_logged.get((family, token))
                        if last is None or (day - last).days > repeat_horizon_days:
                            recent = False
                        last_logged[family, token] = day
                    if recent and not _REPEAT_BYPASS.search(
                        " ".join(sentences[i] for i in members)
                    ):
                        continue
                proxies.append(_new_proxy((day, "output", terms, ref, None, family)))
    return proxies


def extract_governance_events(
    sections: Sequence[MatchedSection],
    rules: KeywordRuleSet = DEFAULT_GOVERNANCE_RULES,
    granularity: Granularity = "section",
) -> list[ProxyEvent]:
    """Governance events, one per cluster of governance hits across families.

    ``rules`` is the set that found the hits. A cluster matched by several
    class families takes the highest-priority class; matches from families
    without a class mapping leave the class absent.
    """
    proxies: list[ProxyEvent] = []

    for section in sorted(sections, key=_section_order):
        found = section.governance
        if not found:
            continue
        ref = (section.source_path, section.heading)
        if len(found) == 1:
            ((family, hits),) = found.items()
            if len(hits) == 1:  # one matched sentence: one cluster of one family
                terms = tuple(dict.fromkeys(hits[0][1]))
                governance_class = rules.family_classes.get(family)
                proxies.append(
                    _new_proxy((section.date, "governance", terms, ref, governance_class, None))
                )
                continue
        # per matched sentence: its terms and its families, in family order
        terms_at: dict[int, list[str]] = {}
        families_at: dict[int, list[str]] = {}
        for family, hits in found.items():
            for index, terms in hits:
                if index in terms_at:
                    terms_at[index] = terms_at[index] + terms
                    families_at[index].append(family)
                else:
                    terms_at[index] = terms
                    families_at[index] = [family]
        for members, terms in _clusters(sorted(terms_at.items()), granularity):
            families = [family for index in members for family in families_at[index]]
            governance_class = _priority_class(families, rules)
            proxies.append(
                _new_proxy((section.date, "governance", terms, ref, governance_class, None))
            )
    return proxies


def _priority_class(families: Sequence[str], rules: KeywordRuleSet) -> str | None:
    classes = {rules.family_classes.get(family) for family in families}
    for name in rules.class_priority:
        if name in classes:
            return name
    return None
