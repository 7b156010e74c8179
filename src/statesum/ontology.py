"""Schema for the five travel-booking domains: slots, phrase templates, state values.

A dialogue state is a plain ``dict`` mapping slot names ("hotel-area") to string
values. The special value :data:`DONTCARE` marks a slot the user accepts any
value for; an unmentioned slot is simply absent from the dict.
"""

from __future__ import annotations

import random
from collections.abc import Hashable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path

import yaml

from .errors import GenerationError, SchemaError

DONTCARE = "dontcare"

DOMAIN_NAMES = ("attraction", "hotel", "restaurant", "taxi", "train")

VALUE_KINDS = (
    "free_text",
    "time_hhmm",
    "count",
    "day_of_week",
    "boolean_yes_no",
)

_SLOT_KEYS = ("kind", "template", "unit", "phrase_yes", "phrase_no", "clause", "front_when_an",
              "dontcare_noun")

#: A dialogue state: slot name -> literal value or DONTCARE.
DialogueState = dict[str, str]

_DEFAULT_SCHEMA = "multiwoz_en.yaml"


def differing_slots(a: DialogueState, b: DialogueState) -> list[str]:
    """Slots whose value differs between two states, absence included: those
    of ``a`` in its key order, then those only in ``b`` in its key order."""
    if a == b:
        return []
    return [s for s in a if s not in b or a[s] != b[s]] + [s for s in b if s not in a]


def clean_value(text: str) -> str:
    """The stored form of a value: no ',' or '.', and single spaces between words."""
    return " ".join(text.replace(",", "").replace(".", "").split())


def article_for(value: str) -> str:
    """Indefinite article for a value: "an" before a vowel, else "a"."""
    return "an" if value[:1].lower() in "aeiou" else "a"


@dataclass(frozen=True)
class TemplateConfig:
    """Converter variant flags.

    ``naturalness=False`` selects the flat "{value} as {slot} of {domain}"
    format, which has no paraphrasing or dontcare-concat options; both flags
    are forced off in that case.
    """

    naturalness: bool = True
    paraphrasing: bool = True
    dontcare_concat: bool = True
    domain_order: str = "canonical"  # "canonical" or "shuffled"

    def __post_init__(self):
        if self.domain_order not in ("canonical", "shuffled"):
            raise ValueError(f"unknown domain_order {self.domain_order!r}")
        if not self.naturalness:
            object.__setattr__(self, "paraphrasing", False)
            object.__setattr__(self, "dontcare_concat", False)


@dataclass(frozen=True)
class SlotSpec:
    """One slot: its template split once at ``{v}`` into the pieces both the renderer
    and the parser read, its value kind, and its dontcare noun."""

    slot_name: str
    domain: str
    dontcare_noun: str
    value_kind: str
    clause: bool = False
    front_when_an: bool = False
    head: str = ""  # template text before {v}, without a final "{a} "
    article: bool = False  # the template had "{a} " directly before {v}
    ends: tuple[str, str] = ("", "")  # text after {v} with the singular, then plural unit
    phrase_yes: str = ""
    phrase_no: str = ""

    @property
    def bare_name(self) -> str:
        """Slot name without the domain prefix, e.g. "book people"."""
        return self.slot_name.split("-", 1)[1]

    @property
    def is_boolean(self) -> bool:
        return self.value_kind == "boolean_yes_no"


@dataclass(frozen=True)
class DomainSpec:
    """One domain: its sentence noun phrase (found by the parser without its a/an) and slots."""

    domain_name: str
    noun_phrase: str
    slots: tuple[SlotSpec, ...]


@dataclass(eq=False)
class Ontology:
    """Immutable bundle of domain specs plus default generator vocabularies."""

    domains: dict[str, DomainSpec]
    value_pools: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        self._slots = {
            spec.slot_name: spec
            for domain in self.domains.values()
            for spec in domain.slots
        }
        self._rank = {slot_name: i for i, slot_name in enumerate(self._slots)}

    def slot(self, slot_name: str) -> SlotSpec:
        return self._slots[slot_name]

    def has_slot(self, slot_name: str) -> bool:
        return slot_name in self._slots

    def slot_rank(self, slot_name: str) -> int:
        """Place in domain-then-slot order; an off-schema slot ranks after all schema slots."""
        return self._rank.get(slot_name, len(self._rank))

    def domain_of(self, slot_name: str) -> str:
        return self._slots[slot_name].domain

    def all_slots(self) -> tuple[SlotSpec, ...]:
        return tuple(self._slots.values())


def _parse_slot(domain_name: str, slot_name: str, raw: dict) -> SlotSpec:
    if not isinstance(raw, dict):
        raise SchemaError(f"slot {slot_name!r}: expected a mapping")
    if unknown := [str(key) for key in raw if key not in _SLOT_KEYS]:  # a misspelt key fails
        raise SchemaError(f"slot {slot_name!r}: unknown key(s) {', '.join(unknown)}")
    if not slot_name.startswith(domain_name + "-") or len(slot_name) <= len(domain_name) + 1:
        raise SchemaError(
            f"slot {slot_name!r}: name must have the form '{domain_name}-<slot>'"
        )
    # The flat format splits at ", " and an entry at its last " as ".
    if "," in slot_name or " as " in f" {slot_name[len(domain_name) + 1:]} ":
        raise SchemaError(f"slot {slot_name!r}: name must not hold ',' or the word 'as'")
    kind = raw.get("kind", "free_text")
    if kind not in VALUE_KINDS:
        raise SchemaError(f"slot {slot_name!r}: unknown kind {kind!r}")
    for key in ("clause", "front_when_an"):
        if type(raw.get(key, False)) is not bool:
            raise SchemaError(f"slot {slot_name!r}: {key} must be true or false")
    for key in ("template", "phrase_yes", "phrase_no", "dontcare_noun"):
        if type(raw.get(key, "")) is not str:  # a blank, list or yes would be stored as text
            raise SchemaError(f"slot {slot_name!r}: {key} must be a string")
    unit = raw.get("unit", ("", ""))
    if "unit" in raw and not (type(unit) is list and len(unit) == 2
                              and all(type(u) is str and u for u in unit)):
        raise SchemaError(f"slot {slot_name!r}: unit must be a list of two non-empty strings")

    template = raw.get("template", "")
    head, _, after = template.partition("{v}")
    head, article = head.removesuffix("{a} "), head.endswith("{a} ")
    if kind == "boolean_yes_no":
        if not raw.get("phrase_yes") or not raw.get("phrase_no"):
            raise SchemaError(f"slot {slot_name!r}: boolean slot needs phrase_yes/phrase_no")
        if f" {raw['phrase_no']}" in f" {raw['phrase_yes']}":  # the parser probes "no" first
            raise SchemaError(f"slot {slot_name!r}: phrase_no must not occur in phrase_yes")
    else:
        try:  # the renderer fills these holes only; a stray brace fails too
            template.format(v="", a="", unit="")
        except (AttributeError, IndexError, KeyError, ValueError):
            raise SchemaError(
                f"slot {slot_name!r}: template holes must be {{v}}, {{a}} or {{unit}}"
            ) from None
        if template.count("{v}") != 1:
            raise SchemaError(f"slot {slot_name!r}: template must contain exactly one {{v}} hole")
        if not head.strip() or "{" in head or "}" in head:  # the parser finds a value by it
            raise SchemaError(
                f"slot {slot_name!r}: template needs literal text before {{v}}, "
                "optionally ending in '{a} '"
            )
        if set("{}") & set(after.replace("{unit}", "")):  # no {a}, nor "{{" that renders as "{"
            raise SchemaError(f"slot {slot_name!r}: text after {{v}} holds no brace but {{unit}}")
    if "{unit}" in template and "unit" not in raw:
        raise SchemaError(f"slot {slot_name!r}: {{unit}} hole needs unit [singular, plural]")

    spec = SlotSpec(
        slot_name=slot_name,
        domain=domain_name,
        dontcare_noun=raw.get("dontcare_noun", ""),
        value_kind=kind,
        clause=raw.get("clause", False),
        front_when_an=raw.get("front_when_an", False),
        head=head,
        article=article,
        ends=tuple(after.replace("{unit}", u) for u in unit),
        phrase_yes=raw.get("phrase_yes", ""),
        phrase_no=raw.get("phrase_no", ""),
    )
    # The parser reads slot phrases up to the first '.', where the renderer ends a sentence.
    for phrase in (template, *unit, spec.phrase_yes, spec.phrase_no, spec.dontcare_noun):
        if "." in phrase:
            raise SchemaError(f"slot {slot_name!r}: phrase {phrase!r} contains '.'")
    if " and " in f" {spec.dontcare_noun} ":  # the parser splits a dontcare list at " and "
        raise SchemaError(f"slot {slot_name!r}: dontcare_noun must not hold the word 'and'")
    return spec


def _parse_domain(domain_name: str, raw: dict) -> DomainSpec:
    if domain_name not in DOMAIN_NAMES:
        raise SchemaError(f"unknown domain {domain_name!r}")
    if not isinstance(raw, dict) or not raw.get("slots"):
        raise SchemaError(f"domain {domain_name!r}: missing slots")
    if unknown := [str(key) for key in raw if key not in ("noun_phrase", "slots")]:
        raise SchemaError(f"domain {domain_name!r}: unknown key(s) {', '.join(unknown)}")
    if not isinstance(raw["slots"], dict):
        raise SchemaError(f"domain {domain_name!r}: slots must be a mapping")
    if type(raw.get("noun_phrase")) is not str or not raw["noun_phrase"]:
        raise SchemaError(f"domain {domain_name!r}: noun_phrase must be a nonempty string")
    if "." in raw["noun_phrase"]:  # the parser reads a sentence up to its first '.'
        raise SchemaError(f"domain {domain_name!r}: noun_phrase contains '.'")

    slots = [_parse_slot(domain_name, str(name), entry) for name, entry in raw["slots"].items()]
    nouns = [s.dontcare_noun for s in slots]
    if "" in nouns or len(set(nouns)) != len(nouns):
        raise SchemaError(f"domain {domain_name!r}: dontcare nouns must be unique and nonempty")

    return DomainSpec(
        domain_name=domain_name,
        noun_phrase=raw["noun_phrase"],
        slots=tuple(slots),
    )


def _build_ontology(doc: dict) -> Ontology:
    if not isinstance(doc, dict):
        raise SchemaError("schema root must be a mapping")
    if unknown := [str(key) for key in doc if key not in ("domains", "value_pools")]:
        raise SchemaError(f"schema: unknown key(s) {', '.join(unknown)}")
    raw_domains = doc.get("domains")
    if not raw_domains:
        raise SchemaError("schema has no domains")
    if not isinstance(raw_domains, dict):
        raise SchemaError("domains must be a mapping")

    domains = {str(name): _parse_domain(str(name), raw) for name, raw in raw_domains.items()}

    raw_pools = doc.get("value_pools") or {}
    if not isinstance(raw_pools, dict) or not all(isinstance(vs, list) for vs in raw_pools.values()):
        raise SchemaError("value_pools must map slot names to lists")
    pools = {str(k): vs for k, vs in raw_pools.items()}
    ontology = Ontology(domains=domains, value_pools=pools)
    for slot_name, values in pools.items():
        if not ontology.has_slot(slot_name):
            raise SchemaError(f"value pool for unknown slot {slot_name!r}")
        if not all(type(v) is str for v in values):  # a blank, list or yes would be drawn as text
            raise SchemaError(f"value pool for slot {slot_name!r}: entries must be strings")
    return ontology


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader that rejects duplicate mapping keys instead of merging them.

    It uses libyaml's parser when PyYAML was built with it, else the pure-Python one.
    """


def _construct_unique_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if not isinstance(key, Hashable):  # not printed: with deep=False it is still empty
            raise SchemaError(f"unhashable key at line {key_node.start_mark.line + 1} in schema")
        if key in mapping:
            raise SchemaError(f"duplicate key {key!r} in schema")
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _construct_unique_mapping
)


def load_ontology(path: str | Path | None = None) -> Ontology:
    """Load and validate a schema file; ``None`` loads the built-in default."""
    if path is None:
        text = resources.files("statesum.data").joinpath(_DEFAULT_SCHEMA).read_text("utf-8")
    else:
        text = Path(path).read_text("utf-8")
    try:
        doc = yaml.load(text, _StrictLoader)
    except yaml.YAMLError as exc:
        raise SchemaError(f"schema is not valid YAML: {exc}") from exc
    return _build_ontology(doc)


@lru_cache(maxsize=1)
def default_ontology() -> Ontology:
    """The built-in 5-domain, 30-slot schema (shared instance)."""
    return load_ontology(None)


def validate_state(ontology: Ontology, state) -> list[str]:
    """Check a state against the schema; returns violations (empty = ok)."""
    if not isinstance(state, dict):
        return ["state must be a mapping of slot name to value"]
    violations = []
    for slot_name, value in state.items():
        if not isinstance(slot_name, str) or not ontology.has_slot(slot_name):
            violations.append(f"unknown slot {slot_name!r}")
            continue
        if value is None:
            violations.append(f"{slot_name}: none values must be expressed by absence")
            continue
        if not isinstance(value, str):
            violations.append(f"{slot_name}: value must be a string")
            continue
        if value == DONTCARE:
            continue
        if not value.strip():
            violations.append(f"{slot_name}: empty value")
            continue
        if "," in value or "." in value:
            violations.append(f"{slot_name}: value {value!r} contains ',' or '.'")
        if value != " ".join(value.split()):
            violations.append(f"{slot_name}: value {value!r} is not single-space normalized")
        spec = ontology.slot(slot_name)
        if spec.is_boolean and value not in ("yes", "no"):
            violations.append(f"{slot_name}: boolean slot takes yes/no/{DONTCARE}, got {value!r}")
    return violations


def random_state(
    ontology: Ontology,
    seed: int,
    max_domains: int | None = None,
) -> DialogueState:
    """Deterministically generate a valid state for fuzzing round trips.

    Up to ``max_domains`` domains (default: all of the schema's) are chosen.
    Each selected slot gets DONTCARE with probability 0.1, otherwise a value
    drawn from the schema's value pools.
    """
    if max_domains is None:
        max_domains = len(ontology.domains)
    if not 1 <= max_domains <= len(ontology.domains):
        raise GenerationError(f"max_domains must be in 1..{len(ontology.domains)}")
    pools = ontology.value_pools
    rng = random.Random(seed)

    names = list(ontology.domains)
    chosen = rng.sample(names, rng.randint(1, max_domains))
    state: DialogueState = {}
    for domain_name in chosen:
        domain = ontology.domains[domain_name]
        picked = [s for s in domain.slots if rng.random() < 0.5]
        if not picked:
            picked = [domain.slots[rng.randrange(len(domain.slots))]]
        for spec in picked:
            if rng.random() < 0.1:
                state[spec.slot_name] = DONTCARE
                continue
            if spec.is_boolean and spec.slot_name not in pools:
                state[spec.slot_name] = rng.choice(["yes", "no"])
                continue
            pool = pools.get(spec.slot_name)
            if not pool:
                raise GenerationError(f"no values available for slot {spec.slot_name!r}")
            state[spec.slot_name] = rng.choice(pool)
    return state
