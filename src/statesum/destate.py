"""Summary-to-state extraction: pattern matching that inverts the renderer.

Parsing never raises on malformed text; it returns a best-effort state plus a
list of diagnostics. Pattern tables are read off the slot templates once, by the
extractor kept on (and freed with) its ontology; a summary costs one pass plus a
probe per slot of the matched domains. The export guard, ``reserved_collisions``,
is this parser run on a label: it is kept only if it parses back to its state.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .ontology import (
    DONTCARE, DialogueState, DomainSpec, Ontology, SlotSpec, TemplateConfig, clean_value,
    differing_slots,
)
from .summarize import CONJUNCTION, DONTCARE_MARKER, PLAIN_SUBJECT, SUBJECTS, UNNATURAL_PREFIX


@dataclass
class ParseResult:
    """Best-effort extracted state plus whatever looked wrong on the way."""

    state: DialogueState = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class _SlotRule:
    """How one slot's value is found in its domain's sentence."""

    slot_name: str
    prefix: str = ""  # literal text directly before the value
    ends: tuple[str, ...] = ()  # template text after the value, singular then plural unit
    article: bool = False  # prefix ends at an a/an article; skip "n " or " " after it
    counted: re.Pattern | None = None  # count slot: the integer before its unit word
    boolean: tuple[str, ...] = ()  # negative probe, then positive probe


def _slot_rule(spec: SlotSpec) -> _SlotRule:
    """Invert one slot's phrase template from the pieces the loader split."""
    if spec.is_boolean:
        return _SlotRule(spec.slot_name, boolean=(" " + spec.phrase_no, " " + spec.phrase_yes))
    prefix = " " + spec.head + ("a" if spec.article else "")
    if spec.value_kind == "count":
        prefix += " " if spec.article else ""  # digits always take "a ", never "an "
        shared = os.path.commonprefix(spec.ends)  # match only what both unit forms' ends share
        counted = re.compile(re.escape(prefix) + r"(\d+)" + re.escape(shared))
        return _SlotRule(spec.slot_name, prefix, spec.ends, counted=counted)
    return _SlotRule(spec.slot_name, prefix, spec.ends, article=spec.article)


class StateExtractor:
    """Parser for one ontology, with parse/probe counters.

    Every rule is read off the pieces the loader split each slot template into,
    the same ones the renderer joins: a slot's value follows its ``head``, and ends
    at the first ``head`` or ``ends`` text of any slot, or at one of the renderer's
    joiners (``", which "``, ``" and "``, the conjunction). The sentence frame
    comes from ``summarize``'s constants, which the renderer writes.
    One grammar reads all four natural variants: every subject, and dontcare in
    the domain's sentence or in one of its own. The parser keeps one record per
    domain: its noun phrase without the leading "a " or "an ", which marks the
    domain's sentence; its slot rules; and its dontcare nouns, each to its slot.
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self.parses = 0
        self.pattern_applications = 0
        self._domains = {
            name: (
                re.sub("^an? ", "", domain.noun_phrase),
                tuple(_slot_rule(spec) for spec in domain.slots),
                {spec.dontcare_noun: spec.slot_name for spec in domain.slots},
            )
            for name, domain in ontology.domains.items()
        }
        cuts = (p for d in self._domains.values() for r in d[1] for p in (r.prefix, *r.ends))
        terminators = dict.fromkeys((" which ", " and ", f" {CONJUNCTION} ", *filter(None, cuts)))
        self._terminators = re.compile("|".join(map(re.escape, terminators)))
        boundaries = {*SUBJECTS, PLAIN_SUBJECT}
        # Model output may capitalize a continuation subject.
        boundaries.update(p[0].upper() + p[1:] for p in tuple(boundaries))
        # Longest first for the regex; ties by text, so the order is fixed.
        boundaries = sorted(boundaries, key=lambda p: (-len(p), p))
        self._splitter = re.compile("|".join(map(re.escape, boundaries)))

    # -- splitting ---------------------------------------------------------

    def split_by_domain(self, summary: str) -> tuple[dict[str, str], list[str]]:
        """Assign each sentence fragment to the domain whose phrase it contains.

        Unassigned fragments are dropped and reported; a fragment claimed by
        more than one domain is parsed by each and reported.
        """
        fragments = [f for f in self._splitter.split(summary) if f.strip()]
        assigned: dict[str, str] = {}
        diagnostics: list[str] = []
        claims: dict[int, list[str]] = {}
        for name, (phrase, _, _) in self._domains.items():
            for i, fragment in enumerate(fragments):
                if phrase in fragment:
                    assigned[name] = fragment
                    claims.setdefault(i, []).append(name)
                    break
        for i, fragment in enumerate(fragments):
            owners = claims.get(i, [])
            if not owners:
                if any(phrase in fragment for phrase, _, _ in self._domains.values()):
                    diagnostics.append(f"repeated domain fragment ignored: {fragment.strip()!r}")
                else:
                    diagnostics.append(f"no domain phrase matched: {fragment.strip()!r}")
            elif len(owners) > 1:
                diagnostics.append(
                    f"fragment claimed by multiple domains ({', '.join(owners)}): "
                    f"{fragment.strip()!r}"
                )
        return assigned, diagnostics

    # -- single-domain parsing ---------------------------------------------

    def parse_domain_sentence(
        self, fragment: str, domain: DomainSpec, diagnostics: list[str] | None = None
    ) -> DialogueState:
        """Extract this domain's slots: slot phrases from the fragment's first sentence
        (no phrase or value holds a '.'), dontcare nouns from either sentence."""
        diags = diagnostics if diagnostics is not None else []
        main = fragment.split(".", 1)[0]
        state: DialogueState = {}
        _, rules, nouns = self._domains[domain.domain_name]
        for rule in rules:
            if rule.boolean:
                self.pattern_applications += 2
                negative, positive = rule.boolean
                if negative in main:
                    state[rule.slot_name] = "no"
                elif positive in main:
                    state[rule.slot_name] = "yes"
                continue
            self.pattern_applications += 1
            if rule.counted:
                m = rule.counted.search(main)
                if m:
                    state[rule.slot_name] = m.group(1)
                continue
            idx = main.find(rule.prefix)
            if idx < 0:
                continue
            tail = main[idx + len(rule.prefix):]
            if rule.article:
                tail = tail[2:] if tail.startswith("n") else tail[1:]
            m = self._terminators.search(tail)
            value = clean_value(tail[: m.start()] if m else tail)
            if not value:
                diags.append(
                    f"{domain.domain_name}: empty value after {rule.prefix!r}"
                )
                continue
            state[rule.slot_name] = value

        idx = fragment.find(DONTCARE_MARKER)
        if idx >= 0:
            self.pattern_applications += 1
            tail = fragment[idx + len(DONTCARE_MARKER):].split(".", 1)[0]
            for noun in tail.split(" and "):
                noun = clean_value(noun)
                if not noun:
                    continue
                slot_name = nouns.get(noun)
                if slot_name is None:
                    diags.append(
                        f"{domain.domain_name}: unrecognized dontcare noun {noun!r}"
                    )
                    continue
                state[slot_name] = DONTCARE
        return state

    # -- whole-summary parsing ---------------------------------------------

    def _parse_unnatural(self, summary: str) -> ParseResult:
        result = ParseResult()
        text = summary.strip()
        if text.startswith(UNNATURAL_PREFIX):
            text = text[len(UNNATURAL_PREFIX):]
        elif text:
            result.diagnostics.append("missing flat-format prefix")
        text = text.rstrip(".")
        for part in filter(None, (p.strip() for p in text.split(", "))):
            left, sep, domain_name = part.rpartition(" of ")
            value, sep2, bare = left.rpartition(" as ")
            if not sep or not sep2 or not value:
                result.diagnostics.append(f"unparseable entry {part!r}")
                continue
            slot_name = f"{domain_name}-{bare}"
            if not self.ontology.has_slot(slot_name):
                result.diagnostics.append(f"unknown slot {slot_name!r}")
                continue
            result.state[slot_name] = clean_value(value)
        return result

    def parse(self, summary: str, cfg: TemplateConfig = TemplateConfig()) -> ParseResult:
        """One-pass extraction of the full state from a summary. Of ``cfg`` only
        ``naturalness`` is read, to pick the natural or the flat grammar."""
        self.parses += 1
        if not cfg.naturalness:
            return self._parse_unnatural(summary)
        assigned, diagnostics = self.split_by_domain(summary)
        result = ParseResult(diagnostics=diagnostics)
        for domain_name, fragment in assigned.items():
            partial = self.parse_domain_sentence(
                fragment, self.ontology.domains[domain_name], result.diagnostics
            )
            result.state.update(partial)  # domains are disjoint
        return result


def extractor_for(ontology: Ontology) -> StateExtractor:
    """The ontology's shared extractor, built on first use and kept on the instance."""
    try:
        return ontology._extractor
    except AttributeError:
        ontology._extractor = StateExtractor(ontology)
    return ontology._extractor


def parse_summary(
    summary: str,
    ontology: Ontology,
    cfg: TemplateConfig = TemplateConfig(),
) -> ParseResult:
    return extractor_for(ontology).parse(summary, cfg)


def reserved_collisions(
    state: DialogueState,
    ontology: Ontology,
    cfg: TemplateConfig,
    summary: str,
) -> list[str]:
    """Why ``summary``, read under ``cfg``, does not parse back to exactly
    ``state`` with no diagnostics; empty when it does.

    Names each slot that reads back differently, and a value terminator found
    inside its expected value, then lists the parser's diagnostics.
    """
    extractor = extractor_for(ontology)
    result = extractor.parse(summary, cfg)
    if result.state == state and not result.diagnostics:
        return []
    issues = []
    for slot_name in differing_slots(state, result.state):
        expected, got = state.get(slot_name), result.state.get(slot_name)
        issue = f"{slot_name}: {expected!r} reads back as {got!r}"
        cut = expected and extractor._terminators.search(f" {expected} ")
        if cut:
            issue += f" (cut at {cut.group().strip()!r})"
        issues.append(issue)
    return issues + result.diagnostics
