import os
import subprocess
import sys
from pathlib import Path

import statesum
from statesum import (
    DONTCARE,
    TemplateConfig,
    parse_summary,
    reserved_collisions,
    state_to_summary,
    summary_to_state,
)
from statesum.destate import StateExtractor

import golden_data as gd


def test_inverse_of_attraction_golden(ont):
    assert summary_to_state(gd.ATTRACTION_SUMMARY, ont) == gd.ATTRACTION_STATE


def test_inverse_of_all_goldens(ont):
    for _, state, summary in gd.SINGLE_DOMAIN_GOLDENS:
        assert summary_to_state(summary, ont) == state
    assert summary_to_state(gd.MULTI_DOMAIN_SUMMARY, ont) == gd.MULTI_DOMAIN_STATE
    assert summary_to_state(gd.DONTCARE_SUMMARY, ont) == gd.DONTCARE_STATE


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
    assert summary_to_state(text, ont) == {
        "taxi-destination": "Incheon airport",
        "taxi-arriveby": "12:30",
    }


def test_boolean_probes(ont):
    text = "The user is looking for a place to stay, which has no parking and has internet."
    assert summary_to_state(text, ont) == {"hotel-parking": "no", "hotel-internet": "yes"}


def test_article_adjustment_on_parse(ont):
    text = "The user is looking for a place to stay with an expensive price."
    assert summary_to_state(text, ont) == {"hotel-pricerange": "expensive"}


def test_unknown_dontcare_noun_reported(ont):
    text = "The user is looking for an attraction, and he does not care about the weather."
    result = parse_summary(text, ont)
    assert result.state == {}
    assert any("weather" in d for d in result.diagnostics)


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
    assert summary_to_state(reordered, ont) == gd.MULTI_DOMAIN_STATE


def test_paraphrase_variant_invariance(ont):
    original = gd.MULTI_DOMAIN_SUMMARY
    swapped = original.replace("he is searching for", "he looks for", 1)
    assert summary_to_state(swapped, ont) == gd.MULTI_DOMAIN_STATE


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
    assert summary_to_state(gd.UNNATURAL_SUMMARY, ont, cfg) == gd.VARIANT_SAMPLE_STATE


def test_unnatural_parse_reports_junk(ont):
    cfg = TemplateConfig(naturalness=False)
    result = parse_summary("The user wants fish as dinner of tonight.", ont, cfg)
    assert result.state == {}
    assert result.diagnostics


def test_unnatural_parse_value_with_of_and_as(ont):
    cfg = TemplateConfig(naturalness=False)
    text = "The user wants house of pizza as name of restaurant."
    assert summary_to_state(text, ont, cfg) == {"restaurant-name": "house of pizza"}


def test_wrong_slot_style_summary_parses_cleanly(ont):
    # A summary that confuses the two time templates still parses; it just
    # yields the other slot. This is what the error taxonomy later flags.
    text = (
        "The user is looking for a train for 2 people from bishops stortford "
        "to cambridge on thursday, which arrives by 18:30."
    )
    state = summary_to_state(text, ont)
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
    assert extractor.pattern_applications <= ont.slot_count + 7
    extractor.parse(gd.ATTRACTION_SUMMARY)
    assert extractor.parses == 2


def test_reserved_collisions(ont):
    issues = reserved_collisions({"restaurant-name": "milk and honey"}, ont)
    assert issues and "and" in issues[0]
    assert reserved_collisions({"restaurant-name": "meze bar"}, ont) == []
    # Another domain's detection phrase inside a value corrupts cross-domain parsing.
    assert reserved_collisions({"taxi-departure": "cambridge train station"}, ont)
    assert not reserved_collisions({"restaurant-name": "city stop restaurant"}, ont)
    # Counted phrases only match integers.
    assert reserved_collisions({"train-book people": "three"}, ont)
    assert not reserved_collisions({"train-book people": "3"}, ont)
    assert not reserved_collisions({"hotel-area": DONTCARE}, ont)
    # Only phrases some template renders are reserved, so "during" is a plain word.
    state = {"attraction-name": "during the war"}
    assert reserved_collisions(state, ont) == []
    assert summary_to_state(state_to_summary(state, ont), ont) == state
    # Every count slot, hotel-stars included, takes integers only.
    issues = reserved_collisions({"hotel-stars": "three"}, ont)
    assert len(issues) == 1 and "not an integer" in issues[0]
    assert summary_to_state("The user is looking for a place to stay ranked three stars.", ont) == {}


def test_reserved_collisions_do_not_depend_on_hash_seed():
    # Each value holds several reserved phrases; the diagnostic names the first
    # one the guard tries, so that order must be fixed across processes.
    script = (
        "from statesum import default_ontology, reserved_collisions\n"
        "print(reserved_collisions({'restaurant-name': 'bar and grill for people at noon',"
        " 'hotel-name': 'he looks forward He looks forward',"
        " 'attraction-name': 'the user is looking forward The user is looking forward'},"
        " default_ontology()))\n"
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
    assert outputs[0].count("contains") == 3


def test_value_pools_are_collision_free(ont):
    for slot_name, values in ont.value_pools.items():
        for value in values:
            assert reserved_collisions({slot_name: value}, ont) == [], (slot_name, value)
