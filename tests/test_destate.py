import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import statesum
from statesum import (
    DONTCARE,
    TemplateConfig,
    default_ontology,
    load_ontology,
    parse_summary,
    random_state,
    reserved_collisions,
    state_to_summary,
)
from statesum.destate import StateExtractor, extractor_for
from statesum.summarize import CONJUNCTION, DONTCARE_MARKER, SUBJECTS

import golden_data as gd
from conftest import collisions_of


def test_inverse_of_attraction_golden(ont):
    assert parse_summary(gd.ATTRACTION_SUMMARY, ont).state == gd.ATTRACTION_STATE


def test_inverse_of_all_goldens(ont):
    for _, state, summary in gd.SINGLE_DOMAIN_GOLDENS:
        assert parse_summary(summary, ont).state == state
    assert parse_summary(gd.MULTI_DOMAIN_SUMMARY, ont).state == gd.MULTI_DOMAIN_STATE
    assert parse_summary(gd.DONTCARE_SUMMARY, ont).state == gd.DONTCARE_STATE


def test_empty_summary(ont):
    result = parse_summary("", ont)
    assert result.state == {} and result.diagnostics == []


def test_split_multi_domain(ont):
    fragments, diagnostics = StateExtractor(ont).split_by_domain(gd.MULTI_DOMAIN_SUMMARY)
    assert set(fragments) == {"train", "restaurant", "hotel"}
    assert diagnostics == []


def test_split_single_domain(ont):
    fragments, _ = StateExtractor(ont).split_by_domain(
        "The user is looking for a taxi to cineworld."
    )
    assert list(fragments) == ["taxi"]


def test_split_unmatched_text(ont):
    fragments, diagnostics = StateExtractor(ont).split_by_domain("Hello world.")
    assert fragments == {}
    assert len(diagnostics) == 1


def test_parse_domain_sentence_table_variant(ont):
    fragment = (
        " a place to stay which is a guesthouse with a moderate price, "
        "which has internet, and he does not care about the location."
    )
    state = StateExtractor(ont).parse_domain_sentence(fragment, ont.domains["hotel"])
    assert state == {
        "hotel-type": "guesthouse",
        "hotel-pricerange": "moderate",
        "hotel-internet": "yes",
        "hotel-area": DONTCARE,
    }


def test_parse_domain_sentence_empty(ont):
    assert StateExtractor(ont).parse_domain_sentence("", ont.domains["attraction"]) == {}


def test_parse_strips_commas_and_periods(ont):
    text = "The user is looking for a taxi to Incheon airport, which arrives by 12:30."
    assert parse_summary(text, ont).state == {
        "taxi-destination": "Incheon airport",
        "taxi-arriveby": "12:30",
    }


def test_boolean_probes(ont):
    text = "The user is looking for a place to stay, which has no parking and has internet."
    assert parse_summary(text, ont).state == {"hotel-parking": "no", "hotel-internet": "yes"}


def test_article_adjustment_on_parse(ont):
    text = "The user is looking for a place to stay with an expensive price."
    assert parse_summary(text, ont).state == {"hotel-pricerange": "expensive"}


def test_unknown_dontcare_noun_reported(ont):
    text = "The user is looking for an attraction, and he does not care about the weather."
    result = parse_summary(text, ont)
    assert result.state == {}
    assert any("weather" in d for d in result.diagnostics)


NATURAL_CONFIGS = [
    TemplateConfig(paraphrasing=p, dontcare_concat=c, domain_order=o)
    for p in (True, False) for c in (True, False) for o in ("canonical", "shuffled")
]


def _natural_renders(ont, n_states):
    """Each of ``n_states`` seeded states rendered under every natural config and order."""
    for seed in range(n_states):
        state = random_state(ont, seed=seed)
        for cfg in NATURAL_CONFIGS:
            yield state, state_to_summary(state, ont, cfg, random.Random(seed))


def test_every_natural_config_parses_a_natural_render_alike(ont):
    # One grammar reads all four natural variants: only naturalness picks the grammar.
    for _, summary in _natural_renders(ont, 300):
        results = [parse_summary(summary, ont, cfg) for cfg in NATURAL_CONFIGS]
        assert all(result == results[0] for result in results), summary


def test_lowercased_natural_render_parses_exactly(ont):
    # Lowercased, "also," is no conjunction to end a value, but the sentence's '.' is.
    for state, summary in _natural_renders(ont, 3000):
        result = parse_summary(summary.lower(), ont)
        assert result.state == state and not result.diagnostics, summary


def test_idempotent_diagnostics(ont):
    text = "Hello. The user is looking for an attraction called kambar."
    first = parse_summary(text, ont)
    second = parse_summary(text, ont)
    assert first.state == second.state
    assert first.diagnostics == second.diagnostics


def test_order_invariance(ont):
    reordered = (
        "The user is looking for a restaurant called meze bar on tuesday at 12:00. "
        "Also, he is searching for a train for 3 people from london station to Incheon airport. "
        "Also, he looks for a place to stay which is a guesthouse called Intercontinental "
        "ranked 3 stars."
    )
    assert parse_summary(reordered, ont).state == gd.MULTI_DOMAIN_STATE


def test_paraphrase_variant_invariance(ont):
    original = gd.MULTI_DOMAIN_SUMMARY
    swapped = original.replace("he is searching for", "he looks for", 1)
    assert parse_summary(swapped, ont).state == gd.MULTI_DOMAIN_STATE


def test_repeated_domain_fragment_reported(ont):
    text = (
        "The user is looking for a taxi to cineworld. "
        "Also, he is searching for a taxi to kambar."
    )
    result = parse_summary(text, ont)
    assert result.state == {"taxi-destination": "cineworld"}
    assert any("repeated" in d for d in result.diagnostics)


def test_unnatural_parse(ont):
    cfg = TemplateConfig(naturalness=False)
    assert parse_summary(gd.UNNATURAL_SUMMARY, ont, cfg).state == gd.VARIANT_SAMPLE_STATE


def test_unnatural_parse_reports_junk(ont):
    cfg = TemplateConfig(naturalness=False)
    result = parse_summary("The user wants fish as dinner of tonight.", ont, cfg)
    assert result.state == {}
    assert result.diagnostics


def test_unnatural_parse_value_with_of_and_as(ont):
    cfg = TemplateConfig(naturalness=False)
    text = "The user wants house of pizza as name of restaurant."
    assert parse_summary(text, ont, cfg).state == {"restaurant-name": "house of pizza"}


def test_wrong_slot_style_summary_parses_cleanly(ont):
    # A summary that confuses the two time templates still parses; it just
    # yields the other slot. This is what the error taxonomy later flags.
    text = (
        "The user is looking for a train for 2 people from bishops stortford "
        "to cambridge on thursday, which arrives by 18:30."
    )
    state = parse_summary(text, ont).state
    assert state["train-arriveby"] == "18:30"
    assert "train-leaveat" not in state


def test_empty_value_after_pattern_reported(ont):
    text = "The user is looking for an attraction called ."
    result = parse_summary(text, ont)
    assert result.state == {}
    assert any("empty value" in d for d in result.diagnostics)


def test_parse_counters(ont):
    extractor = StateExtractor(ont)
    extractor.parse(gd.MULTI_DOMAIN_SUMMARY)
    assert extractor.parses == 1
    # One probe per slot, two per boolean slot, one dontcare scan per matched
    # domain: bounded by the slot count plus a small constant.
    assert extractor.pattern_applications <= len(ont.all_slots()) + 7
    extractor.parse(gd.ATTRACTION_SUMMARY)
    assert extractor.parses == 2


def test_shared_extractor_goes_with_its_ontology():
    ontology = load_ontology()
    assert extractor_for(ontology) is extractor_for(ontology)
    parse_summary(gd.ATTRACTION_SUMMARY, ontology)
    released = weakref.ref(ontology)
    del ontology
    gc.collect()
    assert released() is None


def test_builtin_schema_parser_patterns_are_pinned(ont):
    # The "(cut at ...)" notes quote the terminator that matched, so reordering the
    # alternatives changes export diagnostics; a change here is a deliberate one.
    extractor = extractor_for(ont)
    digests = [
        hashlib.sha256(pattern.pattern.encode()).hexdigest()
        for pattern in (extractor._terminators, extractor._splitter)
    ]
    assert digests == [
        "07e5b55cc648f390c2f545aeeb6d0a49434e6a57379583a5a93d53e249e06677",
        "51fac3a264a2cad20e213f7dc98cdcb85a8da48b55f4098ef5eef7f1752671a5",
    ]


def test_reserved_collisions(ont):
    issues = collisions_of({"restaurant-name": "milk and honey"}, ont)
    assert issues and "and" in issues[0]
    assert collisions_of({"restaurant-name": "meze bar"}, ont) == []
    # Another domain's detection phrase inside a value corrupts cross-domain parsing.
    assert collisions_of({"taxi-departure": "cambridge train station"}, ont)
    assert not collisions_of({"restaurant-name": "city stop restaurant"}, ont)
    # Counted phrases only match integers.
    assert collisions_of({"train-book people": "three"}, ont)
    assert not collisions_of({"train-book people": "3"}, ont)
    assert not collisions_of({"hotel-area": DONTCARE}, ont)
    # Only phrases some template renders are reserved, so "during" is a plain word.
    state = {"attraction-name": "during the war"}
    assert collisions_of(state, ont) == []
    assert parse_summary(state_to_summary(state, ont), ont).state == state
    # Every count slot, hotel-stars included, takes integers only.
    issues = collisions_of({"hotel-stars": "three"}, ont)
    assert issues == ["hotel-stars: 'three' reads back as None"]
    text = "The user is looking for a place to stay ranked three stars."
    assert parse_summary(text, ont).state == {}
    # A value ending in the first words of a phrase the render completes after it.
    assert collisions_of({"restaurant-book day": "bar leaves", "restaurant-book time": "12:00"}, ont)
    assert collisions_of({"train-day": "kambar Also", "train-arriveby": "12:00"}, ont)
    # The state reads back intact, but the parser reports a stray dontcare noun.
    state = {"attraction-name": "kambar does not care about", "attraction-area": "centre"}
    assert collisions_of(state, ont) == [
        "attraction: unrecognized dontcare noun 'located in the centre'"
    ]


def test_reserved_collisions_do_not_depend_on_hash_seed():
    # Each value holds several template phrases; the issues name the terminator
    # that cuts a value and the parser's diagnostics, fixed across processes.
    script = (
        "from statesum import TemplateConfig, default_ontology, reserved_collisions, state_to_summary\n"
        "state = {'restaurant-name': 'bar and grill for people at noon',"
        " 'hotel-name': 'he looks forward He looks forward',"
        " 'attraction-name': 'the user is looking forward The user is looking forward'}\n"
        "ont = default_ontology()\n"
        "print(reserved_collisions(state, ont, TemplateConfig(), state_to_summary(state, ont)))\n"
    )
    src = str(Path(statesum.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0] == repr([
        "restaurant-name: 'bar and grill for people at noon' reads back as 'bar' (cut at 'and')",
        "hotel-name: 'he looks forward He looks forward' reads back as None",
        "attraction-name: 'the user is looking forward The user is looking forward' reads back as None",
        "restaurant-book time: None reads back as 'noon'",
        "no domain phrase matched: 'ward'",
        "no domain phrase matched: 'ward. Also,'",
        "no domain phrase matched: 'ward'",
        "no domain phrase matched: 'ward. Also,'",
        "attraction: empty value after ' called '",
        "hotel: empty value after ' called '",
    ]) + "\n"


def _template_words(ont):
    """Every word the renderer writes around a value, without punctuation."""
    phrases = [*SUBJECTS, CONJUNCTION, DONTCARE_MARKER, "which", "and"]
    for spec in ont.all_slots():
        phrases += [spec.head, *spec.ends, spec.phrase_yes, spec.phrase_no]
    words = {word.strip(",.") for phrase in phrases for word in phrase.split()}
    return sorted(word for word in words if word and "{" not in word)


def test_guard_accepts_exactly_the_round_trips(ont):
    # Values built from the template vocabulary: the guard must accept a label
    # exactly when it parses back to its state with no diagnostics.
    words = _template_words(ont)
    configs = [
        TemplateConfig(paraphrasing=p, dontcare_concat=c) for p in (True, False) for c in (True, False)
    ] + [TemplateConfig(naturalness=False)]
    verdicts = {True: 0, False: 0}
    for seed in range(6000):
        rng = random.Random(seed)
        state = random_state(ont, seed=seed)
        slots = [s for s, v in state.items() if v != DONTCARE and not ont.slot(s).is_boolean]
        if not slots:
            continue
        state[rng.choice(slots)] = " ".join(rng.choices(words, k=rng.randint(1, 3)))
        cfg = configs[seed % len(configs)]
        summary = state_to_summary(state, ont, cfg)
        parsed = parse_summary(summary, ont, cfg)
        round_trips = parsed.state == state and not parsed.diagnostics
        assert (reserved_collisions(state, ont, cfg, summary) == []) == round_trips, (seed, summary)
        verdicts[round_trips] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000, verdicts


def test_value_pools_are_collision_free(ont):
    for slot_name, values in ont.value_pools.items():
        for value in values:
            assert collisions_of({slot_name: value}, ont) == [], (slot_name, value)


_RENDERS = [
    state_to_summary(random_state(default_ontology(), seed=seed), default_ontology(),
                     TemplateConfig(paraphrasing=seed % 2 == 0, dontcare_concat=seed % 3 == 0,
                                    naturalness=seed % 5 != 0))
    for seed in range(60)
]
_RENDER_TOKENS = sorted({token for text in _RENDERS for token in text.split()})


@st.composite
def _span_replaced(draw):
    text = draw(st.sampled_from(_RENDERS))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(max_size=20) | st.sampled_from(_RENDER_TOKENS)) + text[end:]


@settings(max_examples=400, deadline=None)
@given(
    text=st.text() | st.lists(st.sampled_from(_RENDER_TOKENS), max_size=40).map(" ".join)
    | _span_replaced(),
    cfg=st.sampled_from([TemplateConfig(), TemplateConfig(naturalness=False)]),
)
def test_parse_never_raises(text, cfg):
    # Arbitrary text, word salads of render tokens, and renders with a span replaced.
    result = parse_summary(text, default_ontology(), cfg)
    assert isinstance(result.state, dict) and isinstance(result.diagnostics, list)
