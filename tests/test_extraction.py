from __future__ import annotations

import dataclasses
import json
import re
import sys
from datetime import date, timedelta
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_event, window_timeline
from parem import extraction
from parem.extraction import (
    DEFAULT_GOVERNANCE_RULES,
    DEFAULT_OUTPUT_RULES,
    REPEAT_BYPASS_TERMS,
    DatedSection,
    KeywordRuleSet,
    ProxyEvent,
    _artifact_tokens,
    decode_matched,
    encode_matched,
    extract_governance_events,
    extract_output_proxies,
    match_sections,
    parse_memory_sections,
    split_sentences,
)
from parem.ingest import TokenUsage, WorkspaceInventory
from parem.jsonfmt import from_json, to_json
from parem.metrics import ObservationWindow, compute_pare_m

DAY_MS = 86_400_000
FEB1_MS = 1_769_904_000_000  # 2026-02-01T00:00:00Z


def section(body: str, day: str = "2026-02-03", heading: str | None = None) -> DatedSection:
    return DatedSection(
        date=date.fromisoformat(day),
        heading=heading or f"## {day}",
        body=body,
        source_path="memory/notes.md",
    )


def outputs_of(sections, rules=DEFAULT_OUTPUT_RULES, **options) -> list[ProxyEvent]:
    """The output proxies of the sections, matched against ``rules``."""
    return extract_output_proxies(match_sections(sections, output_rules=rules), **options)


def governance_of(sections, rules=DEFAULT_GOVERNANCE_RULES, **options) -> list[ProxyEvent]:
    """The governance events of the sections, matched against ``rules``."""
    matched = match_sections(sections, governance_rules=rules)
    return extract_governance_events(matched, rules, **options)


def memory(text: str) -> dict[str, bytes]:
    """One memory file, as parse_memory_sections takes it: label to bytes."""
    return {"m.md": text.encode("utf-8")}


class TestParseMemorySections:
    def test_three_dated_headings(self):
        text = "## 2026-02-01\nfirst body\n## 2026-02-02\nsecond\n## 2026-02-03\nthird\n"
        sections, warnings = parse_memory_sections(memory(text))
        assert len(sections) == 3
        assert warnings == []
        assert sections[0].date == date(2026, 2, 1)
        assert sections[0].body.strip() == "first body"

    def test_no_dated_headings(self):
        sections, _ = parse_memory_sections(memory("# index\njust notes, no dates\n"))
        assert sections == []

    def test_undated_text_attaches_to_preceding(self):
        text = "intro skipped\n## 2026-02-01\nline a\n### subheading\nline b\n"
        sections, _ = parse_memory_sections(memory(text))
        assert len(sections) == 1
        assert "line a" in sections[0].body
        assert "line b" in sections[0].body
        assert "intro skipped" not in sections[0].body

    def test_invalid_date_in_heading_is_body(self):
        text = "## 2026-02-01\nok\n## 2026-13-45 impossible\nstill body\n"
        sections, _ = parse_memory_sections(memory(text))
        assert len(sections) == 1
        assert "impossible" in sections[0].body

    def test_generator_known_count(self):
        lines = []
        expected = 0
        for day in range(1, 10):
            for k in range(day % 3 + 1):
                lines.append(f"## 2026-03-{day:02d} entry {k}")
                lines.append(f"body {day}-{k}")
                expected += 1
        sections, _ = parse_memory_sections(memory("\n".join(lines) + "\n"))
        assert len(sections) == expected

    def test_heading_whose_optional_date_group_is_unset_is_body(self):
        sections, _ = parse_memory_sections(
            memory("## 2026-02-01\nok\n## notes\nmore\n"),
            heading_pattern=r"^#+\s(\d{4}-\d{2}-\d{2})?",
        )
        assert [(s.date, s.body) for s in sections] == [(date(2026, 2, 1), "ok\n## notes\nmore")]

    def test_same_date_twice_yields_two_sections(self):
        sections, _ = parse_memory_sections(memory("## 2026-02-01 a\nx\n## 2026-02-01 b\ny\n"))
        assert len(sections) == 2


MEMORY_PIECES = [b"\n", b"\r", b"\r\n", "\u2028".encode(), b"\xef\xbb\xbf", b"\xff", b"\xe2\x80"]
MEMORY_PIECES += [b"## 2026-02-01", b"## 2026-02-02 b", b"shipped the draft", b" "]


@given(st.lists(st.one_of(st.sampled_from(MEMORY_PIECES), st.binary(max_size=6)), max_size=40))
@settings(max_examples=100)
@example([b"\xef\xbb\xbf## 2026-02-01\r\nx\xff\r## 2026-02-02 b", "\u2028y".encode()])
def test_memory_files_read_as_read_text_reads_them(tmp_path_factory, pieces):
    path = tmp_path_factory.mktemp("memory") / "m.md"
    path.write_bytes(b"".join(pieces))
    # the reference run gets, in place of the file's bytes, an object whose
    # decode gives the text read_text reads
    text = mock.Mock(decode=lambda *args, **kwargs: path.read_text("utf-8", errors="replace"))
    expected = parse_memory_sections({"m.md": text})
    assert parse_memory_sections({"m.md": path.read_bytes()}) == expected


ALL_OUTPUT_TERMS = [
    term for terms in DEFAULT_OUTPUT_RULES.families.values() for term in terms
]


class TestOutputProxies:
    def test_drafted_methods_section(self):
        proxies = outputs_of([section("drafted the methods section")])
        assert len(proxies) == 1
        assert proxies[0].matched_terms == ("drafted",)
        assert proxies[0].kind == "output"

    def test_section_without_family_terms(self):
        proxies = outputs_of([section("quiet day, regular meetings")])
        assert proxies == []

    @pytest.mark.parametrize("term", ALL_OUTPUT_TERMS)
    def test_each_family_member_in_isolation(self, term):
        proxies = outputs_of([section(f"Logged {term} for the records.")])
        assert len(proxies) == 1
        assert proxies[0].matched_terms == (term,)

    def test_exclusion_only_section_yields_zero(self):
        proxies = outputs_of(
            [section("Auto-generated build artifacts were refreshed.")]
        )
        assert proxies == []

    def test_planning_language_excluded(self):
        proxies = outputs_of([section("Planned to deploy the app tomorrow.")])
        assert proxies == []

    def test_exclusion_is_per_sentence(self):
        body = "Planned to deploy the app.\n\nDrafted the summary."
        proxies = outputs_of([section(body)])
        assert len(proxies) == 1
        assert proxies[0].matched_terms == ("drafted",)

    def test_consecutive_matches_collapse_at_section_granularity(self):
        body = "Drafted the intro. Drafted the outro."
        proxies = outputs_of([section(body)], granularity="section")
        assert len(proxies) == 1
        sentence_level = outputs_of([section(body)], granularity="sentence")
        assert len(sentence_level) == 2

    def test_nonconsecutive_matches_form_two_clusters(self):
        body = "Drafted the intro.\nNothing else happened here.\nDrafted the outro."
        proxies = outputs_of([section(body)], granularity="section")
        assert len(proxies) == 2

    def test_two_families_two_events(self):
        proxies = outputs_of([section("Drafted and merged the changes.")])
        families = sorted(p.family for p in proxies)
        assert families == ["authorship", "engineering"]

    @pytest.mark.parametrize("defaults", [DEFAULT_OUTPUT_RULES, DEFAULT_GOVERNANCE_RULES])
    def test_family_order_is_name_order_whatever_the_set_lists(self, defaults):
        # a config file written with sorted keys must give back the same rules
        backwards = dict(reversed(list(defaults.families.items())))
        rules = dataclasses.replace(defaults, families=backwards)
        assert list(rules.families) == sorted(backwards) == list(defaults.families)
        body = "Drafted the manuscript and verified the protocol checklist."
        assert outputs_of([section(body)], rules) == outputs_of(
            [section(body)], defaults
        )
        assert governance_of([section(body)], rules) == governance_of(
            [section(body)], defaults
        )
        proxies = outputs_of([section(body)])
        assert [p.family for p in proxies] == ["artifact", "authorship", "verification"]
        (event,) = governance_of([section(body)])
        assert event.matched_terms == ("protocol", "checklist", "verified")

    def test_repeat_same_artifact_suppressed_within_horizon(self):
        sections = [
            section("Drafted `report.md` today.", day="2026-02-03"),
            section("Drafted `report.md` again.", day="2026-02-05"),
        ]
        proxies = outputs_of(sections, repeat_horizon_days=7)
        assert len(proxies) == 1

    def test_repeat_beyond_horizon_kept(self):
        sections = [
            section("Drafted `report.md` today.", day="2026-02-03"),
            section("Drafted `report.md` again.", day="2026-03-20"),
        ]
        proxies = outputs_of(sections, repeat_horizon_days=7)
        assert len(proxies) == 2

    def test_repeat_with_new_version_kept(self):
        sections = [
            section("Drafted `report.md` today.", day="2026-02-03"),
            section("Drafted `report.md` v2 with major rework.", day="2026-02-04"),
        ]
        proxies = outputs_of(sections, repeat_horizon_days=7)
        assert len(proxies) == 2

    def test_repeat_filter_off(self):
        sections = [
            section("Drafted `report.md` today.", day="2026-02-03"),
            section("Drafted `report.md` again.", day="2026-02-04"),
        ]
        proxies = outputs_of(sections, repeat_horizon_days=0)
        assert len(proxies) == 2

    def test_determinism(self):
        sections = [
            section("Drafted the plan. Verified the build."),
            section("Published the notes.", day="2026-02-04"),
        ]
        assert outputs_of(sections) == outputs_of(sections)

    def test_traceability(self):
        sections = [section("Drafted the plan.")]
        for proxy in outputs_of(sections):
            assert proxy.matched_terms
            assert proxy.section_ref == ("memory/notes.md", "## 2026-02-03")


class TestGovernanceEvents:
    def test_smoke_test_rule_takes_verification_priority(self):
        proxies = governance_of(
            [section("added deployment smoke test rule")]
        )
        assert len(proxies) == 1
        assert proxies[0].governance_class == "verification"
        assert "smoke test" in proxies[0].matched_terms
        assert "rule" in proxies[0].matched_terms

    def test_clean_section(self):
        proxies = governance_of([section("routine sync, nothing else")])
        assert proxies == []

    def test_each_class_recovered(self):
        bodies = {
            "verification": "Checked the citation list for entry 1.",
            "correction": "Corrected the default threshold in entry 2.",
            "protocol": "Added a new review checklist for case 3.",
            "safety": "Rotated the leaked credential for service 4.",
            "failure": "The nightly export failed with a duplicate send for job 5.",
        }
        sections = [
            section(body, heading=f"## 2026-02-03 {name}")
            for name, body in bodies.items()
        ]
        proxies = governance_of(sections)
        classes = sorted(p.governance_class for p in proxies)
        assert classes == sorted(bodies)

    def test_unmapped_family_leaves_class_absent(self):
        rules = KeywordRuleSet(
            families={"generic": ("governance note",)},
            family_classes={},
            version="test/1",
        )
        proxies = governance_of([section("governance note recorded")], rules)
        assert len(proxies) == 1
        assert proxies[0].governance_class is None

    def test_one_event_per_cluster_across_families(self):
        body = "Corrected the score and added a rule."
        proxies = governance_of([section(body)])
        assert len(proxies) == 1
        assert proxies[0].governance_class == "correction"  # beats protocol


class TestProxyRates:
    """OPR and GER as ``compute_pare_m`` reports them: proxies per active day."""

    @staticmethod
    def rates(proxies, active_day_count):
        window = ObservationWindow(date(2026, 2, 1), date(2026, 2, 28))
        events = [
            make_event(timestamp_ms=FEB1_MS + day * DAY_MS, line=day)
            for day in range(active_day_count)
        ]
        report = compute_pare_m(
            events,
            proxies,
            WorkspaceInventory(),
            window,
            TokenUsage(),
            window_timeline(events, window),
        )
        return report.values["OPR"], report.values["GER"]

    def test_reference_rates(self):
        outputs = [section("x")] * 0  # rates are pure arithmetic on counts
        opr, ger = 482 / 96, 889 / 96
        assert round(opr, 2) == 5.02
        assert round(ger, 2) == 9.26

    def test_rates_from_proxies(self):
        out = outputs_of([section("Drafted the plan.")])
        gov = governance_of([section("Checked the build.")])
        opr, ger = self.rates(out + gov, 2)
        assert (opr.numerator, opr.denominator, opr.value) == (1, 2, 0.5)
        assert (ger.numerator, ger.denominator, ger.value) == (1, 2, 0.5)

    def test_zero_proxies(self):
        opr, ger = self.rates([], 10)
        assert (opr.value, opr.reason) == (0.0, None)
        assert (ger.value, ger.reason) == (0.0, None)

    def test_zero_days_undefined(self):
        gov = governance_of([section("Checked the build.")])
        opr, ger = self.rates(gov, 0)
        assert (opr.value, opr.reason) == (None, "zero_denominator")
        assert (ger.numerator, ger.value, ger.reason) == (1, None, "zero_denominator")


def test_split_sentences():
    body = "- Drafted the intro. Sent it off!\n\nQuiet   afternoon?"
    assert split_sentences(body) == [
        "Drafted the intro.",
        "Sent it off!",
        "Quiet afternoon?",
    ]


def test_ruleset_validation():
    with pytest.raises(ValueError):
        KeywordRuleSet(families={"empty": ()})
    with pytest.raises(ValueError):
        KeywordRuleSet(families={"a": ("x", "  ")})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"exclusions": ["("]}, "exclusion '(' does not compile"),
        ({"exclusions": ["draft", "(?i"]}, "exclusion '(?i' does not compile"),
        ({"family_classes": {"w": "failure"}}, "family_classes names no keyword family: 'w'"),
        (
            {"family_classes": {"x": "verifcation"}},
            "class 'verifcation' of family 'x' is not in class_priority",
        ),
        (
            {"family_classes": {"x": "failure"}, "class_priority": ["safety"]},
            "class 'failure' of family 'x' is not in class_priority",
        ),
    ],
    ids=["open-group", "unclosed-flag", "unknown-family", "misspelt-class", "class-not-ranked"],
)
def test_a_bad_exclusion_or_family_class_is_rejected_when_the_set_is_built(data, message):
    # the way a config file is read: before any stage runs
    with pytest.raises(ValueError, match=re.escape(f"KeywordRuleSet: {message}")):
        from_json(KeywordRuleSet, {"families": {"x": ["wrote"]}, **data})


def test_ruleset_round_trip():
    again = from_json(KeywordRuleSet, to_json(DEFAULT_GOVERNANCE_RULES))
    assert again == DEFAULT_GOVERNANCE_RULES


def test_case_insensitive_by_default():
    proxies = outputs_of([section("DRAFTED THE SUMMARY.")])
    assert len(proxies) == 1


def test_multiword_phrase_whitespace_normalized():
    proxies = outputs_of([section("ran the smoke   test suite")])
    assert len(proxies) == 1
    assert proxies[0].matched_terms == ("smoke test",)


def test_word_boundary_not_substring():
    # "artifacts" must not match the term "artifact"
    proxies = outputs_of([section("artifacts piled up")])
    assert proxies == []


safe_words = st.sampled_from(["calendar", "meeting", "notes", "coffee", "reading"])
planted = st.sampled_from(["drafted", "merged", "published"])


@given(
    st.lists(
        st.tuples(st.booleans(), safe_words, planted),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60)
def test_adding_keyword_never_decreases_matches(rows):
    # sentence granularity: every matched sentence per family is one event
    sections = []
    for i, (use_planted, safe, term) in enumerate(rows):
        text = f"{term} the {safe}." if use_planted else f"routine {safe}."
        sections.append(section(text, heading=f"## 2026-02-03 s{i}"))
    base_rules = KeywordRuleSet(
        families={"authorship": ("drafted",)}, version="test/1"
    )
    wider_rules = KeywordRuleSet(
        families={"authorship": ("drafted", "merged", "published")}, version="test/2"
    )
    base = outputs_of(sections, base_rules, granularity="sentence")
    wider = outputs_of(sections, wider_rules, granularity="sentence")
    assert len(wider) >= len(base)


@given(st.lists(st.sampled_from(["2026-02-01", "2026-02-02", "2026-02-03"]), max_size=8))
@settings(max_examples=40)
def test_output_sorted_by_date_source_heading(days):
    sections = [
        section("Drafted the plan.", day=d, heading=f"## {d} h{i}")
        for i, d in enumerate(days)
    ]
    proxies = outputs_of(sections, repeat_horizon_days=0)
    keys = [(p.date, p.section_ref[0], p.section_ref[1]) for p in proxies]
    assert keys == sorted(keys)


def test_blank_term_rejected():
    # "\\b\\b" would match every sentence that holds a word
    for blank in ("", "   ", "\t\n"):
        with pytest.raises(ValueError, match="blank term"):
            KeywordRuleSet(families={"x": ("wrote", blank)})
    with pytest.raises(ValueError, match="blank term"):
        from_json(KeywordRuleSet, {"families": {"x": ["   "]}})


def test_from_mapping_rejects_bare_strings():
    # a string is not split into one-letter terms or exclusions
    with pytest.raises(ValueError, match=re.escape("KeywordRuleSet.families['x']")):
        from_json(KeywordRuleSet, {"families": {"x": "wrote"}})
    with pytest.raises(ValueError, match="exclusions"):
        from_json(KeywordRuleSet, {"families": {"x": ["wrote"]}, "exclusions": "draft"})
    with pytest.raises(ValueError, match="class_priority"):
        from_json(KeywordRuleSet, {"families": {"x": ["wrote"]}, "class_priority": "failure"})
    with pytest.raises(ValueError, match=re.escape("KeywordRuleSet.families['x'][1]")):
        from_json(KeywordRuleSet, {"families": {"x": ["wrote", 5]}})
    with pytest.raises(ValueError, match=re.escape("KeywordRuleSet.families['x']")):
        from_json(KeywordRuleSet, {"families": {"x": 5}})


def test_heading_pattern_without_a_group_is_rejected():
    files = memory("## 2026-02-01\nbody\n")
    with pytest.raises(ValueError, match="no capture group"):
        parse_memory_sections(files, heading_pattern=r"^#+\s.*\d{4}-\d{2}-\d{2}")
    with pytest.raises(ValueError, match="does not compile"):
        parse_memory_sections(files, heading_pattern=r"^#+\s(\d{4}")


# --- the compiled matcher against the per-term scan it replaces ---------------

def normalized(term: str) -> str:
    return re.sub(r"\s+", " ", term.strip())


# Reference copies of the sentence, cluster, artifact and class helpers, each
# running its regex on every input, so the extractors are not checked against
# the code they share with them.

def reference_split_sentences(body: str) -> list[str]:
    sentences = []
    for line in body.splitlines():
        line = re.sub(r"^[\s>*+-]+", "", line).strip()
        if not line:
            continue
        for piece in re.split(r"(?<=[.!?])\s+", line):
            piece = " ".join(piece.split())
            if piece:
                sentences.append(piece)
    return sentences


def reference_clusters(hits, granularity):
    clusters: list[tuple[list[int], list[str]]] = []
    previous_index = None
    for index, terms in hits:
        if granularity == "section" and previous_index is not None and index == previous_index + 1:
            clusters[-1][0].append(index)
            clusters[-1][1].extend(terms)
        else:
            clusters.append(([index], list(terms)))
        previous_index = index
    return [(tuple(members), tuple(dict.fromkeys(terms))) for members, terms in clusters]


ARTIFACT_TOKEN = (
    r"`([^`]+)`|\b([\w./-]+\.(?:md|py|ts|js|pdf|csv|html|tex|ipynb|docx|pptx|svg))\b"
)


def reference_artifact_tokens(sentences, indices) -> set[str]:
    tokens = set()
    for index in indices:
        for match in re.finditer(ARTIFACT_TOKEN, sentences[index]):
            tokens.add((match.group(1) or match.group(2)).lower())
    return tokens


def reference_priority_class(families, rules: KeywordRuleSet):
    classes = {rules.family_classes[f] for f in families if f in rules.family_classes}
    for name in rules.class_priority:
        if name in classes:
            return name
    return None


def reference_matches(
    rules: KeywordRuleSet, sentences
) -> dict[str, list[tuple[int, list[str]]]]:
    """One \\bterm\\b search per term of every family, after every exclusion."""
    flags = 0 if rules.case_sensitive else re.IGNORECASE
    families = {
        name: [(term, re.compile(rf"\b{re.escape(normalized(term))}\b", flags)) for term in terms]
        for name, terms in rules.families.items()
    }
    exclusions = [re.compile(pattern, flags) for pattern in rules.exclusions]
    matches: dict[str, list[tuple[int, list[str]]]] = {name: [] for name in families}
    for index, sentence in enumerate(sentences):
        if any(pattern.search(sentence) for pattern in exclusions):
            continue
        for name, patterns in families.items():
            terms = [term for term, pattern in patterns if pattern.search(sentence)]
            if terms:
                matches[name].append((index, terms))
    return matches


def reference_output_proxies(sections, rules, granularity, repeat_horizon_days):
    last_logged: dict[tuple[str, str], date] = {}
    proxies = []
    for sec in sorted(sections, key=lambda s: (s.date, s.source_path, s.heading)):
        sentences = reference_split_sentences(sec.body)
        matches = reference_matches(rules, sentences)
        for family in rules.families:
            for members, terms in reference_clusters(matches[family], granularity):
                tokens = reference_artifact_tokens(sentences, members)
                suppressed = False
                if tokens and repeat_horizon_days > 0:
                    text = " ".join(sentences[i] for i in members)
                    is_new_version = any(
                        re.search(rf"\b{re.escape(t)}\b", text, re.IGNORECASE)
                        for t in REPEAT_BYPASS_TERMS
                    )
                    recent = [
                        token
                        for token in tokens
                        if (family, token) in last_logged
                        and (sec.date - last_logged[(family, token)]).days <= repeat_horizon_days
                    ]
                    suppressed = len(recent) == len(tokens) and not is_new_version
                    for token in tokens:
                        last_logged[(family, token)] = sec.date
                if not suppressed:
                    proxies.append(
                        ProxyEvent(
                            sec.date, "output", terms, (sec.source_path, sec.heading), family=family
                        )
                    )
    return proxies


def reference_governance_events(sections, rules, granularity):
    proxies = []
    for sec in sorted(sections, key=lambda s: (s.date, s.source_path, s.heading)):
        matches = reference_matches(rules, reference_split_sentences(sec.body))
        per_sentence: dict[int, tuple[list[str], list[str]]] = {}
        for family, hits in matches.items():
            for index, terms in hits:
                families, all_terms = per_sentence.setdefault(index, ([], []))
                families.append(family)
                all_terms.extend(terms)
        rows = [(index, per_sentence[index][1]) for index in sorted(per_sentence)]
        for members, terms in reference_clusters(rows, granularity):
            families = [f for index in members for f in per_sentence[index][0]]
            proxies.append(
                ProxyEvent(
                    sec.date,
                    "governance",
                    terms,
                    (sec.source_path, sec.heading),
                    governance_class=reference_priority_class(families, rules),
                )
            )
    return proxies


DEFAULT_TERMS = sorted(
    {
        term
        for rules in (DEFAULT_OUTPUT_RULES, DEFAULT_GOVERNANCE_RULES)
        for terms in rules.families.values()
        for term in terms
    }
)
# terms that are prefixes, suffixes or extensions of one another, or end in
# non-ASCII letters, where a missing or misplaced word boundary shows
OVERLAPPING_TERMS = [
    "fix", "fixed", "fixed wrong", "credential", "credentials", "test",
    "smoke test", "pre", "prefix", "app", "apps", "café", "naïve", "straße",
    "été", "v2", "c++", ".net",
]
EXCLUSIONS = [
    r"auto-?generated",
    r"\b(?:plan|plans|planned|planning) to\b",
    r"\bno (?:new )?artifact\b",
    r"(\w+) \1",  # a numbered group and its back-reference
    r"(?i:DRAFTED) twice",  # a scoped inline flag
    r"ß$",
]
EXCLUSION_HITS = ["auto-generated", "planned to", "no new artifact", "fix fix", "drafted twice"]
FILLER = ["the", "team", "artifacts", "prefixed", "éfix", "fixé", "credentialsx", "`report.md`"]
# the non-ASCII characters IGNORECASE equates with an ASCII letter
FOLD_HAZARDS = "\u0130\u0131\u017f\u212a"  # İ ı ſ K
EDGES = [
    "", " ", "\u00a0", "  ", ".", ", ", "-", "é", "ß", "_", "1", "! ", "`", "\t", "/", "\u2014",
    *FOLD_HAZARDS,
]
# spell a word with İ, ı, ſ and K in place of the ASCII letters they equal
TO_HAZARDS = str.maketrans({"I": "\u0130", "i": "\u0131", "s": "\u017f", "k": "\u212a"})
CASES = [str, str.upper, str.title, str.swapcase, lambda word: word.translate(TO_HAZARDS)]

random_terms = st.text(
    alphabet="abeéßXY -.+\u2014\u00a0" + FOLD_HAZARDS, min_size=1, max_size=6
).filter(str.strip)
vocabulary = st.one_of(st.sampled_from(DEFAULT_TERMS + OVERLAPPING_TERMS), random_terms)


@st.composite
def rule_sets(draw) -> KeywordRuleSet:
    if draw(st.booleans()):
        rules = draw(st.sampled_from([DEFAULT_OUTPUT_RULES, DEFAULT_GOVERNANCE_RULES]))
        return dataclasses.replace(rules, case_sensitive=draw(st.booleans()))
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    return KeywordRuleSet(
        families={n: tuple(draw(st.lists(vocabulary, min_size=1, max_size=5))) for n in names},
        family_classes={n: draw(st.sampled_from(extraction.GOVERNANCE_CLASSES)) for n in names[1:]},
        exclusions=tuple(draw(st.lists(st.sampled_from(EXCLUSIONS), max_size=3, unique=True))),
        case_sensitive=draw(st.booleans()),
        version="test/1",
    )


def sentences_for(rules: KeywordRuleSet) -> st.SearchStrategy[str]:
    own_terms = [term for terms in rules.families.values() for term in terms]
    token = st.one_of(
        st.sampled_from(own_terms),
        vocabulary,
        st.sampled_from(EXCLUSION_HITS + FILLER),
    )
    return st.lists(
        st.tuples(token, st.sampled_from(CASES), st.sampled_from(EDGES)), max_size=6
    ).map(lambda parts: "".join(case(word) + edge for word, case, edge in parts))


def test_fold_hazards_are_every_character_ignorecase_adds():
    # recomputed over every code point: the non-ASCII characters that
    # IGNORECASE equates with an ASCII letter ...
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    ascii_letter = re.compile("[a-z]", re.IGNORECASE)
    hazards = {c for c in ascii_letter.findall(chars) if not c.isascii()}
    assert hazards == set(FOLD_HAZARDS) == extraction._FOLD_HAZARDS
    # ... and outside them, lower() maps each character to one character that
    # is a word character exactly when the original is
    rest = chars.translate(dict.fromkeys(map(ord, FOLD_HAZARDS)))
    folded = rest.lower()
    assert len(folded) == len(rest)

    def word_mask(text: str) -> str:
        return re.sub(r"\W", "0", re.sub(r"\w", "1", text))

    assert word_mask(folded) == word_mask(rest)


def test_the_ascii_word_split_is_findall():
    # the translation acts per character: each ASCII character between two
    # letters, doubled, and at both ends
    text = "".join(f"{chr(c)}a{chr(c)}b{chr(c)}{chr(c)}" for c in range(128))
    split = text.encode().translate(extraction._NON_WORD_TO_SPACE).decode().split()
    assert split == re.findall(r"\w+", text)


# --- each regex gate against the ungated helper --------------------------------

ALL_CHARS = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = re.findall(r"\s", ALL_CHARS)


def test_re_whitespace_is_str_isspace():
    # split_sentences tests line[0].isspace() for the bullet prefix's \s
    assert len(WHITESPACE) == 29
    assert WHITESPACE == [c for c in ALL_CHARS if c.isspace()]


LINE_PIECES = [
    *WHITESPACE, ">", "*", "+", "-", ".", "!", "?", "\r\n", "\u2028", "\n\n", "a", "Drafted", "b.c",
]


@given(st.lists(st.sampled_from(LINE_PIECES), max_size=24).map("".join))
@settings(max_examples=300)
def test_split_sentences_equals_the_ungated_split(body):
    assert split_sentences(body) == reference_split_sentences(body)


ARTIFACT_PIECES = [
    "`", "x.md", ".md", "a.", "report.md.", "`report.md`", "notes.pdf", "x.p", ".", "..", "md",
    "py", "a", "é", " ", "/", "-", "_",
]


@given(
    st.lists(
        st.lists(st.sampled_from(ARTIFACT_PIECES), max_size=8).map("".join), min_size=1, max_size=4
    )
)
@settings(max_examples=300)
def test_artifact_tokens_equal_the_ungated_search(sentences):
    indices = range(len(sentences))
    assert _artifact_tokens(sentences, indices) == reference_artifact_tokens(sentences, indices)


class _Spy:
    """Stands in for a compiled pattern and records each search."""

    def __init__(self, pattern: re.Pattern, log: list, tag=None) -> None:
        self.pattern, self.log, self.tag = pattern, log, tag

    def search(self, text: str):
        self.log.append((self.tag, text))
        return self.pattern.search(text)


def expected_term_searches(rules: KeywordRuleSet, sentences) -> list[tuple[int, str]]:
    """(term position, sentence) for each \\bterm\\b search the matcher runs.

    A single-word ASCII term (any single-word term when case-sensitive) is
    looked up, never searched; another term is searched when its folded text
    occurs in the folded sentence, a non-ASCII one always under IGNORECASE.
    A case-insensitive sentence holding a fold hazard searches every term.
    """
    fold = not rules.case_sensitive
    texts = [normalized(term) for terms in rules.families.values() for term in terms]
    searches = []
    for sentence in sentences:
        hazard = fold and any(c in FOLD_HAZARDS for c in sentence)
        folded = sentence.lower() if fold else sentence
        for position, text in enumerate(texts):
            exact = not fold or text.isascii()
            if hazard or not exact:
                searched = True
            elif re.fullmatch(r"\w+", text):
                searched = False
            else:
                searched = (text.lower() if fold else text) in folded
            if searched:
                searches.append((position, sentence))
    return searches


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_the_word_lookup_decides_which_searches_run(data):
    rules = data.draw(rule_sets())
    sentences = data.draw(st.lists(sentences_for(rules), min_size=1, max_size=6))
    matcher = rules.matcher
    exclusion_log: list = []
    term_log: list = []
    spied = dataclasses.replace(
        matcher,
        exclusions=tuple(_Spy(p, exclusion_log) for p in matcher.exclusions),
        terms=tuple(
            (family, term, _Spy(p, term_log, position))
            for position, (family, term, p) in enumerate(matcher.terms)
        ),
    )
    expected = {family: hits for family, hits in reference_matches(rules, sentences).items() if hits}
    assert spied.matches(sentences) == expected
    # exclusions run on exactly the sentences that hold some term
    unexcluded = reference_matches(dataclasses.replace(rules, exclusions=()), sentences)
    with_terms = {sentences[i] for hits in unexcluded.values() for i, _ in hits}
    assert {text for _, text in exclusion_log} == (with_terms if rules.exclusions else set())
    # a term pattern runs only where the word lookup cannot decide
    assert term_log == expected_term_searches(rules, sentences)


def test_one_matcher_per_rule_set_and_one_split_per_section(monkeypatch):
    assert DEFAULT_OUTPUT_RULES.matcher is DEFAULT_OUTPUT_RULES.matcher
    calls = []
    original = extraction.split_sentences
    monkeypatch.setattr(
        extraction, "split_sentences", lambda body: calls.append(body) or original(body)
    )
    sections = [section("Drafted the plan. Checked it."), section("Fixed wrong dates.")]
    matched = match_sections(sections)
    extract_output_proxies(matched)
    extract_governance_events(matched)
    assert len(calls) == len(sections)


BODY_TOKENS = DEFAULT_TERMS + OVERLAPPING_TERMS + EXCLUSION_HITS + FILLER + [
    "`report.md`", "`slides.md`", "notes.pdf", "v2", "revised", "new version",
]


@st.composite
def section_lists(draw) -> list[DatedSection]:
    sentence = st.lists(
        st.tuples(st.sampled_from(BODY_TOKENS), st.sampled_from(CASES)), min_size=1, max_size=5
    ).map(lambda words: " ".join(case(w) for w, case in words))
    body = st.lists(
        st.tuples(sentence, st.sampled_from([". ", ".\n", "!\n- ", "\n\n", "? "])),
        max_size=6,
    ).map(lambda parts: "".join(text + end for text, end in parts))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.sampled_from(["m/a.md", "m/b.md"]), body),
            max_size=8,
        )
    )
    return [
        DatedSection(date(2026, 2, 1) + timedelta(days=day), f"## h{i}", text, path)
        for i, (day, path, text) in enumerate(rows)
    ]


@given(
    section_lists(),
    rule_sets(),
    rule_sets(),
    st.sampled_from(["section", "sentence"]),
    st.sampled_from([0, 7]),
)
@settings(max_examples=200, deadline=None)
def test_extractors_equal_the_reference(sections, rules, governance_rules, granularity, horizon):
    output = reference_output_proxies(sections, rules, granularity, horizon)
    governance = reference_governance_events(sections, governance_rules, granularity)
    # the sections' matches, and the matches read back from the JSON a memory
    # cache line holds, one file at a time; two rule sets, so that replaying
    # one set's hits as the other's shows
    matched = match_sections(sections, rules, governance_rules)
    cached = [
        record
        for path in ("m/a.md", "m/b.md")
        for record in decode_matched(
            json.loads(json.dumps(encode_matched([m for m in matched if m.source_path == path]))),
            path,
        )
    ]
    for given_sections in (matched, cached):
        assert extract_output_proxies(
            given_sections, granularity=granularity, repeat_horizon_days=horizon
        ) == output
        assert extract_governance_events(
            given_sections, governance_rules, granularity=granularity
        ) == governance
