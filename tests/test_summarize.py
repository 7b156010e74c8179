import random

import pytest

from statesum import (
    DONTCARE,
    StateValidationError,
    TemplateConfig,
    parse_summary,
    render_domain_sentence,
    render_slot_phrase,
    state_to_summary,
)
from statesum import summarize
from statesum.corpus import Dialogue
from statesum.summarize import synthesize_labels

import golden_data as gd


def test_attraction_golden(ont):
    assert state_to_summary(gd.ATTRACTION_STATE, ont) == gd.ATTRACTION_SUMMARY


def test_dontcare_golden(ont):
    assert state_to_summary(gd.DONTCARE_STATE, ont) == gd.DONTCARE_SUMMARY


@pytest.mark.parametrize("domain, state, expected", gd.SINGLE_DOMAIN_GOLDENS,
                         ids=[g[0] for g in gd.SINGLE_DOMAIN_GOLDENS])
def test_single_domain_goldens(ont, domain, state, expected):
    assert state_to_summary(state, ont) == expected


def test_multi_domain_golden(ont):
    assert state_to_summary(gd.MULTI_DOMAIN_STATE, ont) == gd.MULTI_DOMAIN_SUMMARY


@pytest.mark.parametrize("cfg, expected", gd.VARIANT_GOLDENS,
                         ids=["default", "no-para", "no-concat", "neither"])
def test_variant_goldens(ont, cfg, expected):
    assert state_to_summary(gd.VARIANT_SAMPLE_STATE, ont, cfg) == expected


def test_unnatural_golden(ont):
    cfg = TemplateConfig(naturalness=False)
    assert state_to_summary(gd.VARIANT_SAMPLE_STATE, ont, cfg) == gd.UNNATURAL_SUMMARY


def test_canonical_order_follows_the_schema_not_the_state(ont):
    state = {"train-day": "monday", "hotel-area": "north"}
    reordered = {"hotel-area": "north", "train-day": "monday"}
    for cfg in (TemplateConfig(), TemplateConfig(naturalness=False)):
        summary = state_to_summary(state, ont, cfg)
        assert summary == state_to_summary(reordered, ont, cfg)
        assert summary.index("north") < summary.index("monday")


def test_empty_state(ont):
    assert state_to_summary({}, ont) == ""
    assert state_to_summary({}, ont, TemplateConfig(naturalness=False)) == ""


def test_natural_summary_ends_with_period(ont):
    for cfg, _ in gd.VARIANT_GOLDENS:
        assert state_to_summary(gd.VARIANT_SAMPLE_STATE, ont, cfg).endswith(".")


@pytest.mark.parametrize(
    "slot, value, expected",
    [
        ("attraction-area", "center", "located in the center"),
        ("hotel-stars", "3", "ranked 3 stars"),
        ("hotel-stars", "1", "ranked 1 star"),
        ("train-book people", "3", "for 3 people"),
        ("train-book people", "1", "for 1 person"),
        ("hotel-book stay", "1", "for 1 day"),
        ("hotel-book stay", "4", "for 4 days"),
        ("hotel-pricerange", "expensive", "with an expensive price"),
        ("hotel-pricerange", "cheap", "with a cheap price"),
        ("attraction-type", "entertainment", "which is an entertainment"),
        ("attraction-type", "museum", "which is a museum"),
        ("hotel-parking", "yes", "has parking"),
        ("hotel-internet", "no", "has no internet"),
        ("restaurant-food", "seafood", "serves seafood"),
        ("taxi-leaveat", "02:45", "leaves at 02:45"),
    ],
)
def test_render_slot_phrase(ont, slot, value, expected):
    assert render_slot_phrase(ont.slot(slot), value) == expected


def test_render_slot_phrase_rejects_dontcare(ont):
    with pytest.raises(ValueError):
        render_slot_phrase(ont.slot("attraction-area"), DONTCARE)


def test_render_domain_sentence_attraction_golden(ont):
    sentence = render_domain_sentence(ont.domains["attraction"], dict(gd.ATTRACTION_STATE))
    assert sentence == gd.ATTRACTION_SUMMARY


def test_render_domain_sentence_positions(ont):
    partial = {"attraction-type": "museum", "attraction-area": DONTCARE}
    sentence = render_domain_sentence(ont.domains["attraction"], partial)
    assert sentence == gd.DONTCARE_SUMMARY
    later = render_domain_sentence(ont.domains["attraction"], partial, position=1)
    assert later.startswith("he is searching for")
    third = render_domain_sentence(ont.domains["attraction"], partial, position=2)
    assert third.startswith("he looks for")


def test_render_domain_sentence_rejects_empty(ont):
    with pytest.raises(ValueError):
        render_domain_sentence(ont.domains["taxi"], {})


def test_render_domain_sentence_rejects_foreign_slot(ont):
    with pytest.raises(ValueError):
        render_domain_sentence(ont.domains["taxi"], {"train-day": "monday"})


def test_multiple_dontcare_joined_with_and(ont):
    state = {"hotel-type": "guesthouse", "hotel-pricerange": DONTCARE, "hotel-area": DONTCARE}
    summary = state_to_summary(state, ont)
    assert "does not care about the price range and the location." in summary
    assert parse_summary(summary, ont).state == state


def test_dontcare_only_domain(ont):
    state = {"hotel-area": DONTCARE}
    assert state_to_summary(state, ont) == (
        "The user is looking for a place to stay, and he does not care about the location."
    )
    cfg = TemplateConfig(dontcare_concat=False)
    assert state_to_summary(state, ont, cfg) == (
        "The user is looking for a place to stay. He does not care about the location."
    )


def test_invalid_state_raises(ont):
    with pytest.raises(StateValidationError):
        state_to_summary({"hotel-area": None}, ont)


def test_shuffled_order_changes_surface_not_content(ont):
    state = gd.MULTI_DOMAIN_STATE
    cfg = TemplateConfig(domain_order="shuffled")
    seen = {state_to_summary(state, ont, cfg, random.Random(seed)) for seed in range(8)}
    assert len(seen) > 1
    for summary in seen:
        assert parse_summary(summary, ont, cfg).state == state


def test_value_containment(ont):
    for _, state, summary in gd.SINGLE_DOMAIN_GOLDENS:
        for slot, value in state.items():
            if value not in ("yes", "no"):
                assert value in summary, (slot, value)


def test_value_containment_property(ont):
    # Every templated literal appears verbatim; boolean yes/no render as
    # has/has-no phrases and dontcare as its noun, so both are excluded.
    import statesum

    for seed in range(300):
        state = statesum.random_state(ont, seed=seed)
        summary = state_to_summary(state, ont)
        for slot, value in state.items():
            if value == DONTCARE or ont.slot(slot).is_boolean:
                continue
            assert value in summary, (slot, value, summary)


def _dialogue(states):
    history = "\n".join(["system: ", "user: "] * len(states))
    ends = tuple(16 * turn + 15 for turn in range(len(states)))  # 16: "system: \nuser: \n"
    return Dialogue("T0001.json", states, history, ends, domains=frozenset(["attraction"]))


def test_synthesize_labels_empty_turn(ont):
    labels = synthesize_labels(_dialogue([{}]), ont)
    assert labels == [""]


def test_synthesize_labels_matches_renderer(ont):
    dialogue = _dialogue([{}, gd.ATTRACTION_STATE])
    labels = synthesize_labels(dialogue, ont)
    assert labels == ["", gd.ATTRACTION_SUMMARY]


def test_synthesize_labels_deterministic_under_shuffle(ont):
    dialogue = _dialogue([gd.MULTI_DOMAIN_STATE, gd.MULTI_DOMAIN_STATE])
    cfg = TemplateConfig(domain_order="shuffled")
    first = synthesize_labels(dialogue, ont, cfg, seed=7)
    again = synthesize_labels(dialogue, ont, cfg, seed=7)
    assert first == again
    other_seed = synthesize_labels(dialogue, ont, cfg, seed=8)
    assert first != other_seed


def test_synthesize_labels_seeds_only_states_with_several_domains(ont, monkeypatch):
    states = [
        {}, gd.ATTRACTION_STATE, gd.DONTCARE_STATE, gd.MULTI_DOMAIN_STATE, gd.VARIANT_SAMPLE_STATE,
    ]
    dialogue = _dialogue(states)
    cfg = TemplateConfig(domain_order="shuffled")
    # The labels a generator seeded for every turn gives.
    expected = [
        state_to_summary(state, ont, cfg, summarize._turn_rng(7, dialogue.dialogue_id, i))
        for i, state in enumerate(states)
    ]
    seeded = []
    turn_rng = summarize._turn_rng

    def counting_rng(seed, dialogue_id, turn_index):
        seeded.append(turn_index)
        return turn_rng(seed, dialogue_id, turn_index)

    monkeypatch.setattr(summarize, "_turn_rng", counting_rng)
    assert synthesize_labels(dialogue, ont, cfg, seed=7) == expected
    assert seeded == [3, 4]
    for invalid in ({"hotel-area": None}, {"hotel-area": "north", "train-day": "someday,"}, {"x-y": "z"}):
        with pytest.raises(StateValidationError):
            synthesize_labels(_dialogue([invalid]), ont, cfg)
