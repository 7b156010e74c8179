import json
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesum import (
    ErrorRecord,
    EvaluationError,
    bleu4,
    classify_errors,
    evaluate_run,
    joint_goal_accuracy,
    parse_summary,
    random_state,
    rouge_n_f1,
    slot_accuracy,
    state_to_summary,
)
from statesum import metrics
from statesum.corpus import Corpus, Dialogue
from statesum.metrics import _clipped_overlaps, _ngram_counts, _rouge_f1

import golden_data as gd
from conftest import FIXTURE_COLLIDING_TURNS
from oracles import (
    ROUGE_HAND_CASES,
    bleu_probe_pairs,
    reference_bleu4,
    reference_clipped_overlap,
    reference_rouge_n_f1,
)


# -- joint goal accuracy -----------------------------------------------------


def test_jga_all_match(ont):
    pairs = [(dict(gd.ATTRACTION_STATE), dict(gd.ATTRACTION_STATE))] * 10
    assert joint_goal_accuracy(pairs) == 1.0


def test_jga_half_match():
    gold = {"train-day": "monday", "train-departure": "norwich"}
    wrong = {"train-day": "tuesday", "train-departure": "norwich"}
    assert joint_goal_accuracy([(dict(gold), dict(gold)), (wrong, gold)]) == 0.5


def _jga_suite():
    """8 turns: 3 match when restricted to attraction, 2 match overall."""
    a = {"attraction-area": "centre"}
    b = {"attraction-area": "north"}
    t = {"train-day": "monday"}
    return [
        (dict(a), dict(a)),                      # match, match
        (dict(a) | dict(t), dict(a)),            # attraction match, full mismatch
        (dict(a), dict(a) | dict(t)),            # attraction match, full mismatch
        (dict(b), dict(a)),                      # mismatch
        (dict(t), dict(t)),                      # attraction vacuous... see below
        (dict(b) | dict(t), dict(a) | dict(t)),  # attraction mismatch
        (dict(b), dict(a) | dict(t)),            # mismatch
        ({}, dict(a)),                           # mismatch
    ]


def test_jga_domain_filter_matches_brute_force():
    pairs = _jga_suite()

    def restrict(state, domain="attraction"):
        return {k: v for k, v in state.items() if k.startswith(domain + "-")}

    expected = sum(restrict(p) == restrict(g) for p, g in pairs) / len(pairs)
    assert expected == 0.5  # turns 1, 2, 3 and the vacuous turn 5
    assert joint_goal_accuracy(pairs, domain_filter="attraction") == expected
    full = sum(p == g for p, g in pairs) / len(pairs)
    assert joint_goal_accuracy(pairs) == full == 0.25

    # Equal pairs, multi-domain and empty, are hits under every filter.
    both = {"attraction-area": "north", "train-day": "monday"}
    pairs += [(dict(both), dict(both)), ({}, {})]
    for domain in ("attraction", "train", "hotel"):
        expected = sum(
            restrict(p, domain) == restrict(g, domain) for p, g in pairs
        ) / len(pairs)
        assert joint_goal_accuracy(pairs, domain_filter=domain) == expected


_JGA_VALUES = ("centre", "north", "cheap", "2", "yes", "12:15", "dontcare")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_jga_domain_filter_property(ont, data):
    # Predictions are gold states with drop, change-value, add and move edits
    # in any domain, including slots outside the ontology; every filter must
    # agree with comparing the two states restricted to the domain's slots.
    slots = [spec.slot_name for spec in ont.all_slots()]
    slots += ["hotel-foo", "hotels-area", "hotel", "train-", "-area"]
    pairs = []
    for _ in range(data.draw(st.integers(1, 6))):
        gold = random_state(ont, seed=data.draw(st.integers(0, 2**20)))
        predicted = dict(gold)
        for _ in range(data.draw(st.integers(0, 3))):
            edit = data.draw(st.sampled_from(("drop", "change", "add", "move")))
            if edit == "add" or not predicted:
                predicted[data.draw(st.sampled_from(slots))] = data.draw(st.sampled_from(_JGA_VALUES))
                continue
            slot = data.draw(st.sampled_from(sorted(predicted)))
            if edit == "drop":
                del predicted[slot]
            elif edit == "change":
                predicted[slot] = data.draw(st.sampled_from(_JGA_VALUES))
            else:
                predicted[data.draw(st.sampled_from(slots))] = predicted.pop(slot)
        pairs.append((predicted, gold))

    def restrict(state, domain):
        return {k: v for k, v in state.items() if k.startswith(domain + "-")}

    for domain in ont.domains:
        expected = sum(restrict(p, domain) == restrict(g, domain) for p, g in pairs) / len(pairs)
        assert joint_goal_accuracy(pairs, domain) == expected
    assert joint_goal_accuracy(pairs, None) == sum(p == g for p, g in pairs) / len(pairs)


def test_jga_empty_pairs_rejected():
    with pytest.raises(ValueError):
        joint_goal_accuracy([])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20), flip=st.integers(0, 7))
def test_jga_monotonicity(ont, seed, flip):
    # Replacing any wrong prediction with the gold state never lowers JGA.
    golds = [random_state(ont, seed=seed + i) for i in range(8)]
    preds = [dict(g) for g in golds]
    preds[flip] = {}
    before = joint_goal_accuracy(list(zip(preds, golds)))
    preds[flip] = dict(golds[flip])
    after = joint_goal_accuracy(list(zip(preds, golds)))
    assert after >= before


# -- slot accuracy --------------------------------------------------------------


def test_slot_accuracy_perfect(ont):
    pairs = [(dict(gd.MULTI_DOMAIN_STATE), dict(gd.MULTI_DOMAIN_STATE))] * 3
    assert slot_accuracy(pairs, ont) == (1.0, 1.0)


def test_slot_accuracy_empty_prediction(ont):
    pairs = [({}, dict(gd.ATTRACTION_STATE))]
    assert slot_accuracy(pairs, ont) == (0.0, 1.0)


def test_slot_accuracy_matches_brute_force(ont):
    pairs = [
        ({"hotel-area": "east"}, {"hotel-area": "east", "hotel-stars": "3"}),
        ({"hotel-area": "west"}, {"hotel-area": "east"}),
        ({"train-day": "monday", "taxi-leaveat": "10:30"}, {"train-day": "monday"}),
        ({}, {}),
        (dict(gd.ATTRACTION_STATE), dict(gd.ATTRACTION_STATE)),
    ]
    true_hit = true_total = none_hit = none_total = 0
    for predicted, gold in pairs:
        for spec in ont.all_slots():
            slot = spec.slot_name
            if slot in gold:
                true_total += 1
                if predicted.get(slot) == gold[slot]:
                    true_hit += 1
            else:
                none_total += 1
                if slot not in predicted:
                    none_hit += 1
    expected = (true_hit / true_total, none_hit / none_total)
    assert slot_accuracy(pairs, ont) == expected
    # 5 of 7 gold-active slots hit; 142 of 143 gold-absent slots left absent.
    assert expected == (5 / 7, 142 / 143)


# -- BLEU ------------------------------------------------------------------------


def test_bleu_identity(ont):
    refs = [summary for _, _, summary in gd.SINGLE_DOMAIN_GOLDENS]
    assert bleu4(refs, refs) == pytest.approx(1.0, abs=1e-12)


def test_bleu_hand_computed_value():
    # cand "a b c d e" vs ref "a b c d f": precisions 4/5, 3/4, 2/3, 1/2;
    # equal lengths so no brevity penalty; geometric mean = 0.2 ** 0.25.
    assert bleu4(["a b c d e"], ["a b c d f"]) == pytest.approx(0.2 ** 0.25, abs=1e-12)


def test_bleu_no_shared_fourgram_hits_smoothing_floor():
    score = bleu4(["a b c d"], ["a x b y c z d w"])
    assert 0.0 < score < 1e-2


def test_bleu_matches_independent_implementation(ont):
    probes = bleu_probe_pairs(ont)
    # Identical pairs mixed in among differing ones take the equal-text path.
    pairs = probes + [(r, r) if i % 3 else (c, r) for i, (c, r) in enumerate(probes)]
    candidates = [c for c, _ in pairs]
    references = [r for _, r in pairs]
    assert bleu4(candidates, references) == pytest.approx(
        reference_bleu4(candidates, references), abs=1e-6
    )
    for candidate, reference in pairs:
        assert bleu4([candidate], [reference]) == pytest.approx(
            reference_bleu4([candidate], [reference]), abs=1e-6
        )


@st.composite
def _overlap_cases(draw, tokens=("x", "y", "z")):
    # Small alphabets make repeats common; a reference a few edits away from
    # the candidate makes long common prefixes and suffixes common.
    alphabet = tokens[: draw(st.integers(1, len(tokens)))]
    cand = draw(st.lists(st.sampled_from(alphabet), max_size=10))
    ref = list(cand)
    for _ in range(draw(st.integers(0, 3))):
        if ref and (len(ref) == 10 or draw(st.booleans())):
            del ref[draw(st.integers(0, len(ref) - 1))]
        else:
            ref.insert(draw(st.integers(0, len(ref))), draw(st.sampled_from(alphabet)))
    if draw(st.booleans()):
        cand, ref = ref, cand
    return cand, ref, draw(st.integers(1, 5))


@settings(max_examples=500, deadline=None)
@given(case=_overlap_cases())
def test_clipped_overlap_matches_independent_implementation(case):
    cand, ref, n = case
    assert _clipped_overlaps(cand, ref, (n,))[0] == [reference_clipped_overlap(cand, ref, n)]


@settings(max_examples=500, deadline=None)
@given(case=_overlap_cases(), orders=st.lists(st.integers(1, 6), min_size=1, max_size=5))
def test_clipped_overlaps_matches_independent_implementation_for_every_order(case, orders):
    cand, ref, _ = case
    orders = tuple(orders)
    assert _clipped_overlaps(cand, ref, orders)[0] == [
        reference_clipped_overlap(cand, ref, n) for n in orders
    ]


# Tokens that lowering merges ("A"/"a", "SS"/"ss", "İ"/"i̇") or that are not ASCII.
_CASED_TOKENS = ("a", "A", "b", "SS", "ss", "ß", "İ", "i̇")


@settings(max_examples=500, deadline=None)
@given(
    case=_overlap_cases(_CASED_TOKENS),
    orders=st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True),
)
def test_lowercased_counts_match_independent_implementation(case, orders):
    cand, ref, _ = case
    candidate, reference, orders = " ".join(cand), " ".join(ref), tuple(sorted(orders))
    cand_low, ref_low = candidate.lower().split(), reference.lower().split()
    assert _ngram_counts(candidate, reference, orders, True) == (
        (len(cand), len(ref), [reference_clipped_overlap(cand, ref, n) for n in orders]),
        (len(cand_low), len(ref_low), [reference_clipped_overlap(cand_low, ref_low, n) for n in orders]),
    )


@pytest.mark.parametrize(
    "cand, ref, n, expected",
    [
        # The prefix and suffix would overlap without the cap.
        ("x x x", "x x", 1, 2),
        ("x x x", "x x", 2, 1),
        ("x x x", "x x x x", 3, 1),
        # One list a prefix of the other.
        ("a b c", "a b c d", 2, 2),
        ("a b c d", "a b c", 3, 1),
        ("a a b", "a a b a a b", 2, 2),
        # n longer than both lists.
        ("a b", "a c", 3, 0),
        ("a b", "a b c", 4, 0),
        # Empty lists.
        ("", "", 1, 0),
        ("", "a b", 1, 0),
        ("a b", "", 2, 0),
    ],
)
def test_clipped_overlap_edge_cases(cand, ref, n, expected):
    cand, ref = cand.split(), ref.split()
    assert _clipped_overlaps(cand, ref, (n,))[0] == [expected]
    assert reference_clipped_overlap(cand, ref, n) == expected


def test_bleu_length_mismatch():
    with pytest.raises(ValueError):
        bleu4(["a"], ["a", "b"])


# -- ROUGE ------------------------------------------------------------------------


def test_rouge_identity():
    assert rouge_n_f1("The User is Looking", "the user is looking", 2) == 1.0


def test_rouge_disjoint():
    assert rouge_n_f1("a b c", "x y z", 1) == 0.0


@pytest.mark.parametrize("candidate, reference, n, expected", ROUGE_HAND_CASES)
def test_rouge_hand_computed(candidate, reference, n, expected):
    # Expected values are worked out by hand from the clipped overlap counts,
    # e.g. "the cat sat" vs "the cat ran" shares 2 of 3 unigrams: P=R=F1=2/3.
    assert rouge_n_f1(candidate, reference, n) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_rouge_matches_independent_implementation(ont, n):
    probes = bleu_probe_pairs(ont)
    pairs = probes + [(c.upper(), r) for c, r in probes] + [(r.lower(), r) for _, r in probes]
    pairs += [(c, r) for c, r, _, _ in ROUGE_HAND_CASES]
    for candidate, reference in pairs:
        assert rouge_n_f1(candidate, reference, n) == pytest.approx(
            reference_rouge_n_f1(candidate, reference, n), abs=1e-12
        )


def test_rouge_orders_together_match_independent_implementation(ont):
    probes = bleu_probe_pairs(ont)
    pairs = probes + [(c.upper(), r) for c, r in probes] + [(r.lower(), r) for _, r in probes]
    pairs += [(c, r) for c, r, _, _ in ROUGE_HAND_CASES]
    for candidate, reference in pairs:
        # The path evaluate_run takes: one count for orders 1-4 serves all three.
        cand_len, ref_len, overlaps = _ngram_counts(candidate, reference, (1, 2, 3, 4), True)[1]
        assert [_rouge_f1(cand_len, ref_len, n, overlaps[n - 1]) for n in (1, 2, 4)] == [
            pytest.approx(reference_rouge_n_f1(candidate, reference, n), abs=1e-12)
            for n in (1, 2, 4)
        ]


def test_rouge_degenerate_lengths():
    assert rouge_n_f1("a b", "a b", 4) == 1.0  # no 4-grams on either side
    assert rouge_n_f1("A b", "a B", 4) == 1.0
    assert rouge_n_f1("a b c d", "a b", 4) == 0.0
    assert rouge_n_f1("a b", "a b c d", 4) == 0.0
    assert rouge_n_f1("", "", 1) == 1.0
    assert rouge_n_f1("", "a b", 1) == 0.0
    assert rouge_n_f1("a b", "", 1) == 0.0
    with pytest.raises(ValueError):
        rouge_n_f1("a", "a", 0)


# -- error taxonomy ----------------------------------------------------------------


def test_hallucination(ont):
    gold = {
        "train-departure": "broxbourne", "train-destination": "cambridge",
        "train-day": "wednesday", "train-leaveat": "11:30",
    }
    predicted = dict(gold) | {"train-book people": "7"}
    records = classify_errors(predicted, gold, ont)
    assert [r.kind for r in records] == ["hallucination"]
    assert records[0].slot_name == "train-book people"
    assert records[0].predicted_value == "7"
    assert records[0].gold_value is None


def test_missing_slot(ont):
    gold = {"train-departure": "peterborough", "train-day": "friday", "train-leaveat": "16:00"}
    predicted = {"train-departure": "peterborough", "train-day": "friday"}
    records = classify_errors(predicted, gold, ont)
    assert [r.kind for r in records] == ["missing_slot"]
    assert records[0].slot_name == "train-leaveat"
    assert records[0].gold_value == "16:00"
    assert records[0].predicted_value is None


def test_wrong_slot(ont):
    gold = {
        "train-book people": "2", "train-departure": "bishops stortford",
        "train-destination": "cambridge", "train-day": "thursday",
        "train-leaveat": "18:30",
    }
    predicted = dict(gold)
    del predicted["train-leaveat"]
    predicted["train-arriveby"] = "18:30"
    records = classify_errors(predicted, gold, ont)
    assert [r.kind for r in records] == ["wrong_slot"]
    assert records[0].slot_name == "train-leaveat"
    assert records[0].predicted_slot == "train-arriveby"
    assert records[0].gold_value == records[0].predicted_value == "18:30"


def test_wrong_slot_requires_same_domain_and_kind(ont):
    # Same value under a different domain stays a miss plus a hallucination.
    gold = {"train-leaveat": "18:30"}
    predicted = {"taxi-leaveat": "18:30"}
    kinds = sorted(r.kind for r in classify_errors(predicted, gold, ont))
    assert kinds == ["hallucination", "missing_slot"]


def test_value_conflict_is_one_record(ont):
    gold = {"train-leaveat": "16:00"}
    predicted = {"train-leaveat": "10:00"}
    records = classify_errors(predicted, gold, ont)
    assert len(records) == 1
    assert records[0].kind == "hallucination"


def test_no_errors_for_identical_states(ont):
    assert classify_errors(dict(gd.MULTI_DOMAIN_STATE), dict(gd.MULTI_DOMAIN_STATE), ont) == []


def test_error_records_keep_state_order_among_off_schema_slots(ont):
    # Off-schema slots all sort last and tie, so their records follow each
    # state's key order: an unordered (set-based) diff would shuffle them.
    predicted = {"hotel-foo": "x", "hotel-area": "north", "train-": "y", "taxi-x": "z"}
    gold = {"hotels-area": "north", "-area": "east", "hotel-area": "south", "attraction-": "w"}
    assert classify_errors(predicted, gold, ont) == [
        ErrorRecord("missing_slot", "hotels-area", gold_value="north"),
        ErrorRecord("missing_slot", "-area", gold_value="east"),
        ErrorRecord("missing_slot", "attraction-", gold_value="w"),
        ErrorRecord("hallucination", "hotel-foo", predicted_value="x"),
        ErrorRecord("hallucination", "train-", predicted_value="y"),
        ErrorRecord("hallucination", "taxi-x", predicted_value="z"),
        ErrorRecord("hallucination", "hotel-area", predicted_value="north"),
    ]


def test_error_records_follow_schema_order_with_off_schema_slots_last(ont):
    # Schema slots sort by domain, then by their place in the domain's list;
    # the off-schema ones ("spa-pool", "hotel-swimming") follow, in state order.
    predicted = {
        "train-leaveat": "09:15", "spa-pool": "yes", "hotel-stars": "4",
        "restaurant-food": "thai", "hotel-area": "north", "attraction-area": "west",
    }
    gold = {
        "train-arriveby": "09:15", "hotel-swimming": "no", "hotel-area": "east",
        "restaurant-food": "thai", "taxi-departure": "cambridge", "hotel-type": "hotel",
        "attraction-name": "byard art",
    }
    assert classify_errors(predicted, gold, ont) == [
        ErrorRecord("missing_slot", "attraction-name", gold_value="byard art"),
        ErrorRecord("missing_slot", "hotel-type", gold_value="hotel"),
        ErrorRecord("missing_slot", "taxi-departure", gold_value="cambridge"),
        ErrorRecord("wrong_slot", "train-arriveby", "09:15", gold_value="09:15",
                    predicted_slot="train-leaveat"),
        ErrorRecord("missing_slot", "hotel-swimming", gold_value="no"),
        ErrorRecord("hallucination", "attraction-area", predicted_value="west"),
        ErrorRecord("hallucination", "hotel-stars", predicted_value="4"),
        ErrorRecord("hallucination", "spa-pool", predicted_value="yes"),
        ErrorRecord("hallucination", "hotel-area", predicted_value="north"),
    ]


def test_error_taxonomy_end_to_end_from_summaries(ont):
    # Model-style outputs run through the parser first, then the classifier.
    cases = [
        (
            "The user is looking for a train for 7 people from broxbourne to "
            "cambridge on wednesday, which arrives at 11:30.",
            {"train-departure": "broxbourne", "train-destination": "cambridge",
             "train-day": "wednesday", "train-leaveat": "11:30"},
            "hallucination", "train-book people",
        ),
        (
            "The user is looking for a train from peterborough on friday.",
            {"train-departure": "peterborough", "train-day": "friday",
             "train-leaveat": "16:00"},
            "missing_slot", "train-leaveat",
        ),
        (
            "The user is looking for a train for 2 people from bishops stortford "
            "to cambridge on thursday, which arrives by 18:30.",
            {"train-book people": "2", "train-departure": "bishops stortford",
             "train-destination": "cambridge", "train-day": "thursday",
             "train-leaveat": "18:30"},
            "wrong_slot", "train-leaveat",
        ),
    ]
    for summary, gold, expected_kind, expected_slot in cases:
        predicted = parse_summary(summary, ont).state
        records = classify_errors(predicted, gold, ont)
        assert any(
            r.kind == expected_kind and r.slot_name == expected_slot for r in records
        ), (summary, records)
    # The "arrives at" phrasing in the first case matches neither time
    # template, so that turn also loses its leave-at value.
    first = parse_summary(cases[0][0], ont).state
    assert "train-leaveat" not in first and "train-arriveby" not in first


@settings(max_examples=60, deadline=None)
@given(seed_a=st.integers(min_value=0, max_value=2**20), seed_b=st.integers(min_value=0, max_value=2**20))
def test_error_partition_property(ont, seed_a, seed_b):
    # Every differing slot lands in exactly one record.
    predicted = random_state(ont, seed=seed_a)
    gold = random_state(ont, seed=seed_b)
    records = classify_errors(predicted, gold, ont)
    differing = {s for s in set(predicted) | set(gold) if predicted.get(s) != gold.get(s)}
    covered = []
    for record in records:
        covered.append(record.slot_name)
        if record.kind == "wrong_slot":
            covered.append(record.predicted_slot)
    assert sorted(covered) == sorted(differing)


# -- whole-run evaluation --------------------------------------------------------------


def _write_predictions(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def _gold_predictions(corpus, ont):
    rows = []
    for split in corpus.splits.values():
        for dialogue in split:
            for index, state in enumerate(dialogue.states):
                if (dialogue.dialogue_id, index) in FIXTURE_COLLIDING_TURNS:
                    continue
                rows.append({
                    "dialogue_id": dialogue.dialogue_id,
                    "turn_index": index,
                    "predicted_summary": state_to_summary(state, ont),
                })
    return rows


def test_evaluate_run_self_consistency(mini_corpus, ont, tmp_path):
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, _gold_predictions(mini_corpus, ont))
    out = tmp_path / "report.json"
    report = evaluate_run(preds, mini_corpus, ont, out=out)
    assert report.all_domain_jga == 1.0
    assert report.bleu4 == pytest.approx(1.0, abs=1e-9)
    assert report.slot_true_acc == 1.0 and report.slot_none_acc == 1.0
    assert all(v == 1.0 for v in report.per_domain_jga.values())
    assert report.error_counts == {"hallucination": 0, "missing_slot": 0, "wrong_slot": 0}
    assert report.n_parses == report.n_turns == len(_gold_predictions(mini_corpus, ont))
    saved = json.loads(out.read_text())
    assert saved["all_domain_jga"] == 1.0
    assert saved["gold_summary_domain_order"] == "canonical"


def test_evaluate_run_flags_corrupted_summary(mini_corpus, ont, tmp_path):
    rows = _gold_predictions(mini_corpus, ont)
    rows[0]["predicted_summary"] = "The model went off script entirely."
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, rows)
    diag_path = tmp_path / "diag.jsonl"
    report = evaluate_run(preds, mini_corpus, ont, diagnostics_out=diag_path)
    assert report.all_domain_jga < 1.0
    key = f"{rows[0]['dialogue_id']}/{rows[0]['turn_index']}"
    assert any(key in d for d in report.diagnostics)
    diag_rows = [json.loads(line) for line in diag_path.read_text().splitlines()]
    assert any(r["dialogue_id"] == rows[0]["dialogue_id"] for r in diag_rows)


def test_evaluate_run_dropped_slot_fraction(mini_corpus, ont, tmp_path):
    # Drop the first slot of every nonempty gold state; the resulting slot
    # accuracy must equal the tally the perturbation plan predicts.
    rows = []
    dropped = total_active = 0
    for split in mini_corpus.splits.values():
        for dialogue in split:
            for index, gold in enumerate(dialogue.states):
                if (dialogue.dialogue_id, index) in FIXTURE_COLLIDING_TURNS or not gold:
                    continue
                state = dict(gold)
                state.pop(next(iter(state)))
                total_active += len(gold)
                dropped += 1
                rows.append({
                    "dialogue_id": dialogue.dialogue_id,
                    "turn_index": index,
                    "predicted_summary": state_to_summary(state, ont),
                })
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, rows)
    report = evaluate_run(preds, mini_corpus, ont)
    assert report.slot_true_acc == pytest.approx(1 - dropped / total_active)
    assert report.all_domain_jga == 0.0
    assert report.error_counts["missing_slot"] == dropped
    assert report.slot_none_acc == 1.0


def test_evaluate_run_unjoined_prediction(mini_corpus, ont, tmp_path):
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, [
        {"dialogue_id": "GHOST.json", "turn_index": 9, "predicted_summary": "x"},
    ])
    with pytest.raises(EvaluationError, match="GHOST"):
        evaluate_run(preds, mini_corpus, ont)
    # A known dialogue with a turn index off either end: -1 must not wrap
    # around to the last state.
    n_states = len(mini_corpus.dialogue_map()["PMUL0001.json"].states)
    for turn_index in (-1, n_states):
        _write_predictions(preds, [
            {"dialogue_id": "PMUL0001.json", "turn_index": 0, "predicted_summary": "x"},
            {"dialogue_id": "PMUL0001.json", "turn_index": turn_index, "predicted_summary": "x"},
        ])
        with pytest.raises(EvaluationError, match=f"1 predictions .*: PMUL0001.json/{turn_index}$"):
            evaluate_run(preds, mini_corpus, ont)


def test_evaluate_run_empty_prediction_file(mini_corpus, ont, tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n")
    with pytest.raises(EvaluationError, match="prediction file contains no records"):
        evaluate_run(preds, mini_corpus, ont)


def test_report_bounds(mini_corpus, ont, tmp_path):
    rows = _gold_predictions(mini_corpus, ont)
    rows[1]["predicted_summary"] = "The user is looking for a taxi to mars."
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, rows)
    report = evaluate_run(preds, mini_corpus, ont)
    values = [
        report.all_domain_jga, report.slot_true_acc, report.slot_none_acc,
        report.bleu4, *report.per_domain_jga.values(), *report.rouge_n_f1.values(),
    ]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert sum(report.error_counts.values()) >= 1


def test_evaluate_run_renders_gold_once_per_unchanged_state(ont, tmp_path, monkeypatch):
    hotel = {"hotel-area": "north"}
    both = {"hotel-area": "north", "train-day": "monday"}
    reordered = {"train-day": "monday", "hotel-area": "north"}
    # Records in sorted order; an equal state in a new slot order is rendered
    # again, since the flat format follows the slot order.
    gold = {
        ("A.json", 0): {},
        ("A.json", 1): dict(hotel),
        ("A.json", 2): dict(hotel),  # repeat: reused
        ("A.json", 3): dict(both),
        ("A.json", 4): dict(reordered),  # equal to the previous, other order: rendered
        ("B.json", 0): dict(reordered),  # repeat across dialogues: reused
        ("B.json", 1): dict(hotel),  # seen before, but not the previous state: rendered
    }
    dialogues = [
        Dialogue(
            dialogue_id=name,
            states=[state for (d, _), state in gold.items() if d == name],
            history="",
            ends=(),
            domains=frozenset({"hotel", "train"}),
        )
        for name in ("A.json", "B.json")
    ]
    corpus = Corpus(splits={"test": dialogues})
    preds = tmp_path / "preds.jsonl"
    # Written in reverse: the reuse must follow evaluate_run's sorted order.
    _write_predictions(preds, [
        {"dialogue_id": d, "turn_index": i, "predicted_summary": state_to_summary(state, ont)}
        for (d, i), state in reversed(gold.items())
    ])
    renders = []

    def counting_render(state, *args, **kwargs):
        renders.append(list(state.items()))
        return state_to_summary(state, *args, **kwargs)

    monkeypatch.setattr(metrics, "state_to_summary", counting_render)
    report = evaluate_run(preds, corpus, ont)
    assert renders == [list(s.items()) for s in ({}, hotel, both, reordered, hotel)]
    assert report.bleu4 == pytest.approx(1.0, abs=1e-9)
    assert report.rouge_n_f1 == {1: 1.0, 2: 1.0, 4: 1.0}


# Mixed-case and non-ASCII tokens: some merge under lowering with a token of
# the gold render ("The"/"the", "Also,"/"also,", "SS"/"ss"), some are not ASCII.
_EDIT_TOKENS = ("The", "the", "Also,", "also,", "ΣΑΣ", "σας", "İ", "i̇", "ß", "SS", "ss", "x")
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "replace", "swapcase", "delete")),
        st.integers(0, 100),
        st.sampled_from(_EDIT_TOKENS),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(turns=st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), _EDITS), min_size=1, max_size=6))
def test_evaluate_run_text_scores_equal_public_functions_and_oracles(ont, turns):
    states = [random_state(ont, seed=seed, max_domains=3) for seed, _, _ in turns]
    references = [state_to_summary(state, ont) for state in states]
    candidates = []
    for reference, (_, lowered, edits) in zip(references, turns):
        tokens = (reference.lower() if lowered else reference).split()
        for kind, at, token in edits:
            i = at % (len(tokens) + (kind == "insert"))
            if kind == "insert":
                tokens.insert(i, token)
            elif kind == "replace":
                tokens[i] = token
            elif kind == "swapcase":
                tokens[i] = tokens[i].swapcase()
            elif len(tokens) > 1:
                del tokens[i]
        candidates.append(" ".join(tokens))
    dialogue = Dialogue(
        dialogue_id="H.json",
        states=states,
        history="",
        ends=(),
        domains=frozenset(ont.domains),
    )
    with tempfile.TemporaryDirectory() as tmp:
        preds = Path(tmp) / "preds.jsonl"
        _write_predictions(preds, [
            {"dialogue_id": "H.json", "turn_index": i, "predicted_summary": candidate}
            for i, candidate in enumerate(candidates)
        ])
        report = evaluate_run(preds, Corpus(splits={"test": [dialogue]}), ont)
    pairs = [(parse_summary(text, ont).state, state) for text, state in zip(candidates, states)]
    assert report.all_domain_jga == joint_goal_accuracy(pairs)
    assert report.per_domain_jga == {d: joint_goal_accuracy(pairs, d) for d in ont.domains}
    assert (report.slot_true_acc, report.slot_none_acc) == slot_accuracy(pairs, ont)
    errors = Counter(r.kind for pair in pairs for r in classify_errors(*pair, ont))
    assert report.error_counts == {kind: errors[kind] for kind in metrics.ERROR_KINDS}
    assert report.bleu4 == bleu4(candidates, references)
    assert report.bleu4 == pytest.approx(reference_bleu4(candidates, references), abs=1e-6)
    for n in (1, 2, 4):
        total = expected = 0.0
        for candidate, reference in zip(candidates, references):
            total += rouge_n_f1(candidate, reference, n)
            expected += reference_rouge_n_f1(candidate, reference, n)
        assert report.rouge_n_f1[n] == total / len(turns)
        assert report.rouge_n_f1[n] == pytest.approx(expected / len(turns), abs=1e-12)


def test_evaluate_run_peak_memory_is_small_against_the_predictions(ont, tmp_path):
    # Criterion 8's input at a tenth of the size: every prediction is the exact
    # gold render. Scoring holds per turn only the slot diff, the gold state
    # and one copy of the equal texts, not the parsed state, a second copy of
    # the text or the n-gram counts of every pair.
    dialogues, rows = [], []
    for d in range(100):
        states = [random_state(ont, seed=d * 10 + t) for t in range(10)]
        dialogues.append(
            Dialogue(f"GEN{d:04d}.json", states, history="", ends=(), domains=frozenset())
        )
        rows.extend(
            {"dialogue_id": f"GEN{d:04d}.json", "turn_index": t,
             "predicted_summary": state_to_summary(state, ont)}
            for t, state in enumerate(states)
        )
    corpus = Corpus(splits={"train": [], "dev": [], "test": dialogues})
    preds = tmp_path / "preds.jsonl"
    _write_predictions(preds, rows)
    size = preds.stat().st_size
    tracemalloc.start()
    try:
        report = evaluate_run(preds, corpus, ont)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_turns == 1000 and report.all_domain_jga == 1.0
    assert peak <= 2.5 * size, f"peak {peak / size:.2f}x the predictions file"


GOLDEN_EVAL = Path(__file__).parent / "data" / "golden_eval"


def test_evaluate_run_reproduces_golden_report(mini_corpus, ont, tmp_path):
    # The fixture's predictions mix exact renders, lowercased text, a dropped
    # word, an empty summary, a 3-token summary, off-script text, a shuffled
    # domain order, a wrong value and a duplicate record; the expected files
    # are frozen outputs, so any change to a score shows as a byte diff.
    out, diag = tmp_path / "report.json", tmp_path / "diagnostics.jsonl"
    evaluate_run(GOLDEN_EVAL / "predictions.jsonl", mini_corpus, ont, out=out, diagnostics_out=diag)
    assert out.read_bytes() == (GOLDEN_EVAL / "report.json").read_bytes()
    assert diag.read_bytes() == (GOLDEN_EVAL / "diagnostics.jsonl").read_bytes()


def test_golden_report_recounts_only_the_pair_lowering_merges(mini_corpus, ont, monkeypatch):
    # ROUGE reuses BLEU's cased count unless lowering merges two tokens of the
    # differing windows; each recount is a second _clipped_overlaps call.
    count_pair, count_overlaps = metrics._ngram_counts, metrics._clipped_overlaps
    calls = []
    pairs = []

    def counting_overlaps(*args):
        calls.append(args)
        return count_overlaps(*args)

    def counting_pair(candidate, reference, *args):
        before = len(calls)
        result = count_pair(candidate, reference, *args)
        pairs.append((candidate, reference, len(calls) - before))
        return result

    monkeypatch.setattr(metrics, "_clipped_overlaps", counting_overlaps)
    monkeypatch.setattr(metrics, "_ngram_counts", counting_pair)
    evaluate_run(GOLDEN_EVAL / "predictions.jsonl", mini_corpus, ont)
    assert len(pairs) == 18
    recounted = [(c, r) for c, r, n in pairs if n == 2]
    # Only the lowercased prediction: "the" and the gold "The" share its window.
    assert [c for c, _ in recounted] == [
        "the user is looking for a train for 3 people from norwich to cambridge on monday, "
        "which leaves at 11:21 and arrives by 19:45."
    ]
    assert recounted[0][1] == "T" + recounted[0][0][1:]
    assert all(n == 1 for c, r, n in pairs if c == r)
