import re
from importlib import resources

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from statesum import (
    DONTCARE,
    GenerationError,
    Ontology,
    SchemaError,
    TemplateConfig,
    load_ontology,
    parse_summary,
    random_state,
    render_slot_phrase,
    state_to_summary,
    validate_state,
)

from statesum.ontology import _build_ontology, _parse_slot, article_for, differing_slots

from conftest import collisions_of

GRAMMAR = "literal text, an optional '{a} ', '{v}', then text whose only hole is '{unit}'"

MINIMAL_SCHEMA = """
domains:
  attraction:
    noun_phrase: an attraction
    slots:
      attraction-name:
        template: "called {v}"
        dontcare_noun: the name
"""


def test_default_schema_shape(ont):
    assert len(ont.all_slots()) == 30
    assert set(ont.domains) == {"attraction", "hotel", "restaurant", "taxi", "train"}
    assert len(ont.domains["hotel"].slots) == 10
    assert ont.domains["attraction"].noun_phrase == "an attraction"


def test_default_schema_lists_slots_in_sentence_order(ont):
    assert [spec.slot_name for spec in ont.all_slots()] == [
        "attraction-name", "attraction-type", "attraction-area",
        "hotel-type", "hotel-name", "hotel-stars", "hotel-pricerange", "hotel-area",
        "hotel-book people", "hotel-book day", "hotel-book stay", "hotel-parking",
        "hotel-internet",
        "restaurant-name", "restaurant-area", "restaurant-pricerange", "restaurant-book people",
        "restaurant-book day", "restaurant-book time", "restaurant-food",
        "taxi-departure", "taxi-destination", "taxi-leaveat", "taxi-arriveby",
        "train-book people", "train-departure", "train-destination", "train-day",
        "train-leaveat", "train-arriveby",
    ]


def test_slot_lookup(ont):
    spec = ont.slot("train-book people")
    assert spec.domain == "train"
    assert spec.bare_name == "book people"
    assert ont.domain_of("hotel-internet") == "hotel"
    with pytest.raises(KeyError):
        ont.slot("hotel-swimming")


def test_load_custom_schema(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(MINIMAL_SCHEMA)
    ont = load_ontology(path)
    assert len(ont.all_slots()) == 1


# New phrasings and no extraction rules: the parser reads everything off the templates.
CUSTOM_SCHEMA = """
domains:
  attraction:
    noun_phrase: a sight
    slots:
      attraction-type: {template: "that is {a} {v}", dontcare_noun: the kind}
      attraction-name: {template: "named {v}", dontcare_noun: the name}
      attraction-area: {template: "near the {v}", dontcare_noun: the area}
  restaurant:
    noun_phrase: somewhere to eat
    slots:
      restaurant-book people:
        kind: count
        template: "seating {v} {unit} in all"
        unit: [guest, guests]
        dontcare_noun: the party size
      restaurant-food: {template: "cooking {v} dishes", dontcare_noun: the cuisine}
      restaurant-terrace:
        kind: boolean_yes_no
        clause: true
        phrase_yes: has a terrace
        phrase_no: has no terrace
        dontcare_noun: the terrace
value_pools:
  attraction-type: [museum, arcade, old church]
  attraction-name: [kambar, old schools, called home]
  attraction-area: [centre, north bank]
  restaurant-book people: ["1", "2", "12"]
  restaurant-food: [thai, modern european]
"""


def test_custom_schema_round_trips(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(CUSTOM_SCHEMA)
    ont = load_ontology(path)
    configs = [
        TemplateConfig(paraphrasing=p, dontcare_concat=c) for p in (True, False) for c in (True, False)
    ] + [TemplateConfig(naturalness=False)]
    for seed in range(300):
        state = random_state(ont, seed=seed)  # max_domains defaults to the schema's two
        assert collisions_of(state, ont) == []
        for cfg in configs:
            summary = state_to_summary(state, ont, cfg)
            assert parse_summary(summary, ont, cfg).state == state, (seed, cfg)
    issues = collisions_of({"attraction-name": "house near the river"}, ont)
    assert issues == [
        "attraction-name: 'house near the river' reads back as 'house' (cut at 'near the')",
        "attraction-area: None reads back as 'river'",
    ]


@pytest.mark.parametrize("text", [
    resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text(), CUSTOM_SCHEMA
], ids=["builtin", "custom"])
def test_template_pieces_reproduce_the_template(tmp_path, text):
    # The loader splits each template once; joining its pieces must give what the
    # template itself formats to, read from the YAML document rather than the spec.
    path = tmp_path / "schema.yaml"
    path.write_text(text)
    ont = load_ontology(path)
    for domain in yaml.safe_load(text)["domains"].values():
        for slot_name, raw in domain["slots"].items():
            if "template" not in raw:
                continue
            singular, plural = raw.get("unit", ("", ""))
            for value in (*ont.value_pools[slot_name], "1", "8", "orchard"):
                expected = raw["template"].format(
                    v=value, a=article_for(value), unit=singular if value == "1" else plural
                )
                assert render_slot_phrase(ont.slot(slot_name), value) == expected


_TEMPLATE_TOKENS = st.sampled_from(["x", "o", " ", ".", "{", "}", "{v}", "{a} ", "{unit}"])


@settings(max_examples=300, deadline=None)
@given(template=st.one_of(
    st.lists(_TEMPLATE_TOKENS, max_size=8).map("".join),
    st.tuples(st.lists(_TEMPLATE_TOKENS, max_size=3), st.sampled_from(["", "{a} "]),
              st.lists(_TEMPLATE_TOKENS, max_size=3))
    .map(lambda t: "in " + "".join(t[0]) + t[1] + "{v}" + "".join(t[2])),
), with_unit=st.booleans())
def test_template_pieces_reproduce_any_template(template, with_unit):
    # Whatever a schema writes, the loader either rejects the template or splits it into
    # pieces that join to what the template itself formats to.
    raw = {"template": template, "dontcare_noun": "the name"}
    if with_unit:
        raw["unit"] = ["pie", "pies"]
    try:
        spec = _parse_slot("hotel", "hotel-name", raw)
    except SchemaError:
        return
    for value in ("x", "apple", "1", "8"):
        unit = ("pie" if value == "1" else "pies") if with_unit else ""
        expected = template.format(v=value, a=article_for(value), unit=unit)
        assert render_slot_phrase(spec, value) == expected


@pytest.mark.parametrize(
    "type_position, name_position",
    [("1", "0"), ("abc", "1"), ("0.0", "1"), ("true", "1"), ("null", "1")],
    ids=["swapped", "text", "float", "bool", "null"],
)
def test_position_other_than_the_list_index_rejected(tmp_path, type_position, name_position):
    # The listing order is the slot order: a `position` key, of any value, fails and never
    # reorders.
    path = tmp_path / "schema.yaml"
    path.write_text(
        CUSTOM_SCHEMA.replace("type: {template:", f"type: {{position: {type_position}, template:")
        .replace("name: {template:", f"name: {{position: {name_position}, template:")
    )
    message = "slot 'attraction-type': unknown key(s) position"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


def test_categorical_kind_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(MINIMAL_SCHEMA.replace("template:", "kind: categorical\n        template:"))
    with pytest.raises(SchemaError, match="'attraction-name': unknown kind 'categorical'"):
        load_ontology(path)


def test_template_without_literal_head_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    for template in ("{v} hall", "in {a} big {v}"):
        path.write_text(MINIMAL_SCHEMA.replace("called {v}", template))
        message = f"slot 'attraction-name': template {template!r} is not {GRAMMAR}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_ontology(path)


def test_duplicate_slot_rejected(tmp_path):
    duplicated = MINIMAL_SCHEMA + """
      attraction-name:
        template: "named {v}"
        dontcare_noun: the title
"""
    path = tmp_path / "schema.yaml"
    path.write_text(duplicated)
    with pytest.raises(SchemaError, match="duplicate"):
        load_ontology(path)


def test_empty_domains_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text("domains: {}\n")
    with pytest.raises(SchemaError):
        load_ontology(path)


def test_invalid_yaml_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text("domains: [unclosed\n")
    with pytest.raises(SchemaError, match="YAML"):
        load_ontology(path)


@pytest.mark.parametrize("slot, template, message", [
    ("hotel-area", "located in the {v} {unit}",
     "slot 'hotel-area': unit and a {unit} hole need each other"),
    ("hotel-name", "called {v} as {a} guest",
     "slot 'hotel-name': template 'called {v} as {a} guest' is not " + GRAMMAR),
    ("hotel-name", "called {v} {{guest}}",
     "slot 'hotel-name': template 'called {v} {{guest}}' is not " + GRAMMAR),
    ("hotel-name", "called }} {v}",
     "slot 'hotel-name': template 'called }} {v}' is not " + GRAMMAR),
], ids=["unit-without-unit", "article-after-value", "escaped-brace-after", "escaped-brace-before"])
def test_template_hole_out_of_place_rejected(tmp_path, slot, template, message):
    # These loaded before: an empty unit word made the space after every value a
    # terminator, "{a}" after the value rendered "an" where the parser read "{a}",
    # and an escaped brace rendered as one brace where the parser looked for two.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"]["hotel"]["slots"][slot]["template"] = template
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


def test_bad_template_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(MINIMAL_SCHEMA.replace("called {v}", "called {v} or {v}"))
    message = "slot 'attraction-name': template 'called {v} or {v}' is not " + GRAMMAR
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize("domain, slot, key, phrase, message", [
    ("restaurant", "restaurant-book time", "template", "at {v} o.c.",
     "slot 'restaurant-book time': phrase 'at {v} o.c.' contains '.'"),
    ("hotel", "hotel-book stay", "unit", ["day", "days incl. tax"],
     "slot 'hotel-book stay': phrase 'days incl. tax' contains '.'"),
    ("hotel", "hotel-parking", "phrase_no", "has no parking (approx.)",
     "slot 'hotel-parking': phrase 'has no parking (approx.)' contains '.'"),
    ("hotel", "hotel-book people", "dontcare_noun", "the no. of people",
     "slot 'hotel-book people': phrase 'the no. of people' contains '.'"),
    ("train", None, "noun_phrase", "a train, e.g. a sleeper",
     "domain 'train': noun_phrase contains '.'"),
    ("hotel", "hotel-pricerange", "dontcare_noun", "the price and the range",
     "slot 'hotel-pricerange': dontcare_noun must not hold the word 'and'"),
], ids=["template", "unit", "phrase_no", "dontcare_noun", "noun_phrase", "dontcare_noun_and"])
def test_rendered_phrase_holding_a_period_rejected(tmp_path, domain, slot, key, phrase, message):
    # The parser reads a domain's slot phrases up to its sentence's first '.', and
    # splits a dontcare list at " and ", so a noun holding "and" reads back as two.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    entry = doc["domains"][domain]
    (entry["slots"][slot] if slot else entry)[key] = phrase
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize("phrase_yes, phrase_no", [
    ("with free parking", "parking"),
    ("has parking", "has parking"),
], ids=["inside", "equal"])
def test_boolean_no_phrase_inside_its_yes_phrase_rejected(tmp_path, phrase_yes, phrase_no):
    # The parser probes the "no" phrase first, so every "yes" would read back as "no".
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"]["hotel"]["slots"]["hotel-parking"].update(phrase_yes=phrase_yes,
                                                            phrase_no=phrase_no)
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    message = "slot 'hotel-parking': phrase_no must not occur in phrase_yes"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize("where, key, value, message", [
    (("domains", "hotel", "slots", "hotel-stars"), "position", 2,
     "slot 'hotel-stars': unknown key(s) position"),
    (("domains", "hotel", "slots", "hotel-stars"), "match", {"prefix": " ranked "},
     "slot 'hotel-stars': unknown key(s) match"),
    (("domains", "train"), "detect_phrase", "train", "domain 'train': unknown key(s) detect_phrase"),
    (("domains", "train"), "noun_phrse", "a train", "domain 'train': unknown key(s) noun_phrse"),
    ((), "value_pool", {}, "schema: unknown key(s) value_pool"),
    (("domains", "attraction", "slots", "attraction-area"), "dontcare_noun", None,
     "slot 'attraction-area': dontcare_noun must be a string"),
    (("domains", "attraction", "slots", "attraction-area"), "dontcare_noun", ["the", "area"],
     "slot 'attraction-area': dontcare_noun must be a string"),
    (("domains", "hotel", "slots", "hotel-parking"), "phrase_yes", True,
     "slot 'hotel-parking': phrase_yes must be a string"),
    (("domains", "train"), "noun_phrase", 7, "domain 'train': noun_phrase must be a nonempty string"),
    (("value_pools",), "attraction-name", [None, ["a", "b"], True],
     "value pool for slot 'attraction-name': entries must be strings"),
    (("domains", "hotel", "slots", "hotel-parking"), "template", "with parking {v}",
     "slot 'hotel-parking': unknown key(s) template for boolean_yes_no"),
    (("domains", "hotel", "slots", "hotel-parking"), "unit", ["space", "spaces"],
     "slot 'hotel-parking': unknown key(s) unit for boolean_yes_no"),
    (("domains", "hotel", "slots", "hotel-parking"), "front_when_an", True,
     "slot 'hotel-parking': unknown key(s) front_when_an for boolean_yes_no"),
    (("domains", "hotel", "slots", "hotel-area"), "phrase_yes", "is central",
     "slot 'hotel-area': unknown key(s) phrase_yes for free_text"),
    (("domains", "hotel", "slots", "hotel-book day"), "phrase_no", "is not booked",
     "slot 'hotel-book day': unknown key(s) phrase_no for day_of_week"),
    (("domains", "hotel", "slots", "hotel-area"), "unit", ["zone", "zones"],
     "slot 'hotel-area': unit and a {unit} hole need each other"),
    (("domains", "restaurant", "slots", "restaurant-food"), "front_when_an", True,
     "slot 'restaurant-food': front_when_an is never read beside clause: true"),
], ids=["position", "match", "detect_phrase", "noun_phrse", "value_pool", "blank-dontcare_noun",
        "list-dontcare_noun", "bool-phrase_yes", "int-noun_phrase", "non-string-value_pools",
        "boolean-template", "boolean-unit", "boolean-front_when_an", "value-phrase_yes",
        "value-phrase_no", "unit-without-hole", "clause-front_when_an"])
def test_removed_or_misspelt_key_rejected(tmp_path, where, key, value, message):
    # A key the loader does not read would be silently ignored, at every level: a
    # misspelt key, one its kind does not render, a unit with no {unit} hole, or a fronted
    # clause. A phrase or pool value that is not a string would be used as its str().
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    entry = doc
    for step in where:
        entry = entry[step]
    entry[key] = value
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize(
    "name", ["attraction-known as locally", "attraction-as known", "attraction-area, or zone"]
)
def test_slot_name_holding_a_comma_or_the_word_as_rejected(tmp_path, name):
    # The flat format splits at ", " and an entry "{value} as {name} of {domain}" at its
    # last " as ": "attraction-known as locally" read back as "attraction-locally".
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"]["attraction"]["slots"][name] = {"template": "known locally as {v}",
                                                   "dontcare_noun": "the local name"}
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    message = f"slot {name!r}: name must not hold ',' or the word 'as'"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize("noun_phrase", ["a ", "an ", "a  "])
def test_noun_phrase_of_only_an_article_rejected(tmp_path, noun_phrase):
    # The parser finds a domain by its noun phrase without its "a "/"an ", and an empty
    # phrase claimed every fragment: a hotel render read back with an extra taxi slot.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"]["taxi"]["noun_phrase"] = noun_phrase
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    message = "domain 'taxi': noun_phrase must be a nonempty string after its a/an"
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


@pytest.mark.parametrize("domain, noun_phrase, message", [
    ("train", "a taxi or train", "noun_phrase of domain 'train' holds that of domain 'taxi'"),
    ("taxi", "a stay", "noun_phrase of domain 'hotel' holds that of domain 'taxi'"),
    ("taxi", "an attraction", "noun_phrase of domain 'attraction' holds that of domain 'taxi'"),
], ids=["holds-another", "held-without-article", "equal"])
def test_noun_phrase_holding_another_domains_rejected(tmp_path, domain, noun_phrase, message):
    # The parser gives a sentence to every domain whose phrase it holds: a train render
    # "a taxi or train to ely" read back with an extra taxi-destination.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"][domain]["noun_phrase"] = noun_phrase
    path = tmp_path / "schema.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_ontology(path)


def _hotel(slots: dict) -> dict:
    return {"domains": {"hotel": {"noun_phrase": "a hotel", "slots": slots}}}


_AREA = {"template": "in the {v}", "dontcare_noun": "the area"}


@pytest.mark.parametrize("doc, message", [
    ([], "schema root must be a mapping"),
    ({"domains": {"hotel": {"noun_phrase": "a hotel"}}}, "domain 'hotel': missing slots"),
    (_hotel({"hotel-area": "in the {v}"}), "slot 'hotel-area': expected a mapping"),
    (_hotel({"taxi-area": _AREA}), "slot 'taxi-area': name must have the form 'hotel-<slot>'"),
    (_hotel({"hotel-": _AREA}), "slot 'hotel-': name must have the form 'hotel-<slot>'"),
    (_hotel({"hotel-parking": {"kind": "boolean_yes_no", "phrase_yes": "has parking"}}),
     "slot 'hotel-parking': boolean slot needs phrase_yes/phrase_no"),
    (_hotel({"hotel-area": _AREA, "hotel-name": {**_AREA, "template": "called {v}"}}),
     "domain 'hotel': dontcare nouns must be unique and nonempty"),
    (_hotel({"hotel-area": {"template": "in the {v}"}}),
     "domain 'hotel': dontcare nouns must be unique and nonempty"),
    ({**_hotel({"hotel-area": _AREA}), "value_pools": {"hotel-stars": ["4"]}},
     "value pool for unknown slot 'hotel-stars'"),
], ids=["root-list", "no-slots", "slot-string", "other-domain-slot", "empty-slot-name",
        "boolean-without-no", "repeated-dontcare_noun", "no-dontcare_noun", "pool-unknown-slot"])
def test_malformed_schema_rejected(doc, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        _build_ontology(doc)


def test_unknown_domain_rejected(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(MINIMAL_SCHEMA.replace("attraction", "spaceport"))
    with pytest.raises(SchemaError, match="unknown domain"):
        load_ontology(path)


def test_validate_state_accepts_plain_values(ont):
    assert validate_state(ont, {"attraction-area": "center"}) == []
    assert validate_state(ont, {"hotel-parking": DONTCARE}) == []


@pytest.mark.parametrize(
    "state, fragment",
    [
        ({"attraction-area": None}, "absence"),
        ({"foo-bar": "x"}, "unknown slot"),
        ({"hotel-area": "north, east"}, "','"),
        ({"hotel-parking": "maybe"}, "boolean"),
        ({"train-day": "  "}, "empty"),
        ({"train-day": "mon  day"}, "normalized"),
        ({"train-day": 3}, "must be a string"),
    ],
)
def test_validate_state_flags_violations(ont, state, fragment):
    violations = validate_state(ont, state)
    assert violations, state
    assert any(fragment in v for v in violations)


def test_validate_state_never_raises(ont):
    assert validate_state(ont, "not a state")
    assert validate_state(ont, {3: object()})


def test_random_state_deterministic(ont):
    first = random_state(ont, seed=0, max_domains=1)
    again = random_state(ont, seed=0, max_domains=1)
    assert first == again and first


def test_random_state_seeds_differ(ont):
    states = {str(sorted(random_state(ont, seed=s).items())) for s in range(20)}
    assert len(states) > 15


def test_random_state_empty_pool(ont):
    pools = {name: ["x"] for name in (s.slot_name for s in ont.all_slots())}
    pools["taxi-departure"] = []
    empty = Ontology(domains=ont.domains, value_pools=pools)
    with pytest.raises(GenerationError):
        for seed in range(200):
            random_state(empty, seed=seed)


def test_random_state_bad_max_domains(ont):
    with pytest.raises(GenerationError):
        random_state(ont, seed=0, max_domains=0)


def test_random_states_always_validate(ont):
    # The validator is the oracle for the generator: 10,000 seeds, all valid.
    for seed in range(10_000):
        assert not validate_state(ont, random_state(ont, seed=seed))


def test_template_wellformedness(ont):
    # Instantiating any templated phrase keeps the literal as a substring.
    # Boolean slots render fixed phrases instead and are exempt by design.
    for spec in ont.all_slots():
        if spec.is_boolean:
            continue
        for value in ont.value_pools[spec.slot_name]:
            assert value in render_slot_phrase(spec, value)


def test_value_pools_cover_all_templated_slots(ont):
    missing = [
        s.slot_name for s in ont.all_slots() if not s.is_boolean and s.slot_name not in ont.value_pools
    ]
    assert missing == []


def test_template_config_coerces_unnatural():
    cfg = TemplateConfig(naturalness=False, paraphrasing=True, dontcare_concat=True)
    assert not cfg.paraphrasing and not cfg.dontcare_concat


def test_template_config_rejects_bad_order():
    with pytest.raises(ValueError):
        TemplateConfig(domain_order="sideways")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_state_property(ont, seed):
    state = random_state(ont, seed=seed)
    assert state
    assert not validate_state(ont, state)
    assert random_state(ont, seed=seed) == state


def test_differing_slots_is_ordered_and_counts_absence():
    a = {"c": "1", "a": "1", "b": "1"}
    b = {"d": "1", "b": "2", "a": "1", "e": "1"}
    assert differing_slots(a, b) == ["c", "b", "d", "e"]
    assert differing_slots(b, a) == ["d", "b", "e", "c"]
    assert differing_slots(a, dict(reversed(a.items()))) == []
