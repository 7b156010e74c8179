"""State-to-summary rendering: turns slot-value maps into template summaries.

The renderer is a pure function of the state, the schema, and the template
configuration; all randomness (shuffled domain order) comes in through an
explicit seeded generator.
"""

from __future__ import annotations

import random
import zlib

from .errors import StateValidationError
from .ontology import (
    DONTCARE,
    DialogueState,
    DomainSpec,
    Ontology,
    SlotSpec,
    TemplateConfig,
    article_for,
    validate_state,
)


# The sentence frame; the parser builds its patterns from these same strings.
# The first sentence opens with SUBJECTS[0]; later ones alternate between the
# other two with paraphrasing on, and repeat PLAIN_SUBJECT with it off.
SUBJECTS = ("The user is looking for", "he is searching for", "he looks for")
PLAIN_SUBJECT = "the user is looking for"
CONJUNCTION = "Also,"
DONTCARE_MARKER = "does not care about"
UNNATURAL_PREFIX = "The user wants "


def _subject(position: int, paraphrasing: bool) -> str:
    if position == 0:
        return SUBJECTS[0]
    if not paraphrasing:
        return PLAIN_SUBJECT
    return SUBJECTS[1 + (position - 1) % 2]


def render_slot_phrase(spec: SlotSpec, value: str) -> str:
    """Render one slot-value pair into its sentence phrase.

    Joins the loader's template pieces around the value, with its a/an and unit word,
    or takes a boolean's yes/no phrase. Dontcare is a sentence suffix, so it is rejected.
    """
    if value is None or value == DONTCARE:
        raise ValueError(f"{spec.slot_name}: dontcare/none has no slot phrase")
    if spec.is_boolean:
        if value == "yes":
            return spec.phrase_yes
        if value == "no":
            return spec.phrase_no
        raise ValueError(f"{spec.slot_name}: boolean slot takes yes/no, got {value!r}")
    article = f"{article_for(value)} " if spec.article else ""
    return f"{spec.head}{article}{value}{spec.ends[value != '1']}"


def render_domain_sentence(
    domain: DomainSpec,
    partial: DialogueState,
    cfg: TemplateConfig = TemplateConfig(),
    position: int = 0,
) -> str:
    """Render one domain's slice of the state into a full sentence."""
    if not partial:
        raise ValueError("cannot render an empty domain state")
    # domain.slots is in canonical order, so one walk yields every phrase list sorted.
    specs = [spec for spec in domain.slots if spec.slot_name in partial]
    if len(specs) != len(partial):
        known = {spec.slot_name for spec in specs}
        name = next(name for name in partial if name not in known)
        raise ValueError(f"slot {name!r} does not belong to domain {domain.domain_name!r}")

    dontcare_nouns, clauses, fronted, main = [], [], [], []
    for spec in specs:
        value = partial[spec.slot_name]
        if value == DONTCARE:
            dontcare_nouns.append(spec.dontcare_noun)
        elif spec.clause:
            clauses.append(render_slot_phrase(spec, value))
        # A fronted phrase ("which is an entertainment") jumps ahead of the
        # rest of the sentence when its value takes "an".
        elif spec.front_when_an and article_for(value) == "an":
            fronted.append(render_slot_phrase(spec, value))
        else:
            main.append(render_slot_phrase(spec, value))
    main = fronted + main

    body = domain.noun_phrase
    if main:
        body += " " + " ".join(main)
    if clauses:
        body += ", which " + " and ".join(clauses)

    subject = _subject(position, cfg.paraphrasing)
    if not dontcare_nouns:
        return f"{subject} {body}."

    pronoun = "he" if cfg.paraphrasing else "the user"
    tail = f"{DONTCARE_MARKER} " + " and ".join(dontcare_nouns)
    if cfg.dontcare_concat:
        return f"{subject} {body}, and {pronoun} {tail}."
    first = pronoun[0].upper() + pronoun[1:]
    return f"{subject} {body}. {first} {tail}."


def split_state_by_domain(state: DialogueState, ontology: Ontology) -> dict[str, DialogueState]:
    """Group a state into per-domain slices, in first-appearance order."""
    groups: dict[str, DialogueState] = {}
    for slot_name, value in state.items():
        groups.setdefault(ontology.domain_of(slot_name), {})[slot_name] = value
    return groups


def _domain_sequence(
    groups: dict[str, DialogueState], ontology: Ontology, cfg, rng
) -> list[str]:
    """Canonical order is the schema's; a shuffle permutes first-appearance order."""
    if cfg.domain_order == "canonical":
        return [name for name in ontology.domains if name in groups]
    names = list(groups)
    if len(names) > 1:
        (rng or random.Random(0)).shuffle(names)
    return names


def _unnatural_summary(groups: dict[str, DialogueState], order: list[str]) -> str:
    parts = []
    for domain_name in order:
        for slot_name, value in groups[domain_name].items():
            bare = slot_name.split("-", 1)[1]
            parts.append(f"{value} as {bare} of {domain_name}")
    return UNNATURAL_PREFIX + ", ".join(parts) + "."


def state_to_summary(
    state: DialogueState,
    ontology: Ontology,
    cfg: TemplateConfig = TemplateConfig(),
    rng: random.Random | None = None,
) -> str:
    """Render a full state into a summary; the empty state renders as ""."""
    violations = validate_state(ontology, state)
    if violations:
        raise StateValidationError(violations)
    if not state:
        return ""

    groups = split_state_by_domain(state, ontology)
    order = _domain_sequence(groups, ontology, cfg, rng)
    if not cfg.naturalness:
        return _unnatural_summary(groups, order)

    sentences = [
        render_domain_sentence(ontology.domains[name], groups[name], cfg, position)
        for position, name in enumerate(order)
    ]
    return f" {CONJUNCTION} ".join(sentences)


def _spans_domains(state: DialogueState, ontology: Ontology) -> bool:
    """Whether ``state`` is a mapping whose known slots span two or more domains."""
    if not isinstance(state, dict):
        return False
    return len({ontology.domain_of(slot) for slot in state if ontology.has_slot(slot)}) > 1


def _turn_rng(seed: int, dialogue_id: str, turn_index: int) -> random.Random:
    # Stable across processes, unlike hash().
    key = zlib.crc32(f"{seed}:{dialogue_id}:{turn_index}".encode("utf-8"))
    return random.Random(key)


def synthesize_labels(
    dialogue,
    ontology: Ontology,
    cfg: TemplateConfig = TemplateConfig(),
    seed: int = 0,
) -> list[str]:
    """Gold summary of each of a dialogue's states, deterministic for a given seed."""
    labels = []
    for index, state in enumerate(dialogue.states):
        rng = None
        # A single domain has no order to shuffle, and seeding a generator costs microseconds.
        if cfg.domain_order == "shuffled" and _spans_domains(state, ontology):
            rng = _turn_rng(seed, dialogue.dialogue_id, index)
        labels.append(state_to_summary(state, ontology, cfg, rng))
    return labels
