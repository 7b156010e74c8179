"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 3 and 5 validate against the real version-2.1 archive and run only
when DS2_DATA_DIR points at it; everything else is self-contained. The 1%
cross-task size-range check (criterion 4b) encodes a published 30-50 dialogue
expectation that the actual taxi and attraction pool sizes cannot meet; it is
kept faithful to that expectation and fails by design (see README).
"""

import itertools
import json
import math
import os
import time

import pytest

from statesum import (
    DONTCARE,
    TemplateConfig,
    classify_errors,
    bleu4,
    domain_counts,
    evaluate_run,
    export_training_file,
    joint_goal_accuracy,
    load_multiwoz,
    random_state,
    rouge_n_f1,
    sample_fewshot,
    slot_accuracy,
    state_to_summary,
)
from statesum.corpus import Corpus, Dialogue
from statesum.destate import StateExtractor, parse_summary

import golden_data as gd
from conftest import FIXTURE_COLLIDING_TURNS
from oracles import ROUGE_HAND_CASES, bleu_probe_pairs, reference_bleu4
from test_corpus import synthetic_corpus
from test_roundtrip import NATURAL_CONFIGS, attraction_states

DATA_DIR = os.environ.get("DS2_DATA_DIR")
needs_data = pytest.mark.skipif(
    not DATA_DIR,
    reason="set DS2_DATA_DIR to the raw version-2.1 archive to run corpus checks",
)

SEEDS = (11, 23, 47)
RATIOS = (0.01, 0.05, 0.10, 1.00)


def _verdict(number, name, elapsed):
    print(f"ACCEPTANCE {number} PASS {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def real_corpus():
    return load_multiwoz(DATA_DIR)


def test_criterion1_golden_templates(ont):
    started = time.perf_counter()
    assert state_to_summary(gd.ATTRACTION_STATE, ont) == gd.ATTRACTION_SUMMARY
    assert state_to_summary(gd.DONTCARE_STATE, ont) == gd.DONTCARE_SUMMARY
    for _, state, expected in gd.SINGLE_DOMAIN_GOLDENS:
        assert state_to_summary(state, ont) == expected
    for cfg, expected in gd.VARIANT_GOLDENS:
        assert state_to_summary(gd.VARIANT_SAMPLE_STATE, ont, cfg) == expected
    unnatural = TemplateConfig(naturalness=False)
    assert state_to_summary(gd.VARIANT_SAMPLE_STATE, ont, unnatural) == gd.UNNATURAL_SUMMARY
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _verdict(1, "golden templates byte-exact", elapsed)


def test_criterion2_left_inverse_law(ont):
    started = time.perf_counter()
    extractor = StateExtractor(ont)

    states = list(attraction_states())
    assert len(states) == 6 ** 3
    for cfg in NATURAL_CONFIGS:
        for state in states:
            summary = state_to_summary(state, ont, cfg)
            assert extractor.parse(summary, cfg).state == state, (cfg, state)

    failures = 0
    for seed in range(10_000):
        state = random_state(ont, seed=seed)
        cfg = NATURAL_CONFIGS[seed % 4]
        summary = state_to_summary(state, ont, cfg)
        if extractor.parse(summary, cfg).state != state:
            failures += 1
    assert failures == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(2, "left-inverse law (216 exhaustive + 10000 fuzz)", elapsed)


@needs_data
def test_criterion3_corpus_fidelity(real_corpus):
    started = time.perf_counter()
    counts = domain_counts(real_corpus.train)
    assert counts == gd.TRAIN_DOMAIN_COUNTS, counts
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _verdict(3, "version-2.1 train counts reproduced", elapsed)


def test_criterion4a_sampler_protocol():
    started = time.perf_counter()
    totals = {domain: total for domain, (_, total) in gd.TRAIN_DOMAIN_COUNTS.items()}
    corpus = synthetic_corpus(totals)

    jobs = [("md", None)] + [
        (mode, domain) for mode in ("cd", "ct") for domain in totals
    ]
    for (mode, domain), ratio, seed in itertools.product(jobs, RATIOS, SEEDS):
        split = sample_fewshot(corpus, mode, domain, ratio, seed)
        eligible = totals[domain] if domain else sum(totals.values())
        assert len(split.finetune_ids) == math.floor(ratio * eligible + 0.5)
        again = sample_fewshot(corpus, mode, domain, ratio, seed)
        assert again.finetune_ids == split.finetune_ids
        assert not set(split.finetune_ids) & set(split.pretrain_ids)
        if mode == "cd":
            assert len(split.pretrain_ids) == sum(totals.values()) - eligible
        else:
            assert split.pretrain_ids == []
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _verdict("4a", "split sizes, determinism, disjointness", elapsed)


def test_criterion4b_one_percent_ct_range():
    started = time.perf_counter()
    sizes = {
        domain: math.floor(0.01 * total + 0.5)
        for domain, (_, total) in gd.TRAIN_DOMAIN_COUNTS.items()
    }
    out_of_range = {d: n for d, n in sizes.items() if not 30 <= n <= 50}
    assert not out_of_range, (
        f"1% cross-task sizes outside the expected 30-50 dialogue window: "
        f"{out_of_range} (pool sizes make this unreachable; see README)"
    )
    _verdict("4b", "1% cross-task sizes within 30-50", time.perf_counter() - started)


@needs_data
def test_criterion5_export_parse_closure(real_corpus, ont, tmp_path):
    started = time.perf_counter()
    split = sample_fewshot(real_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    diagnostics = []
    written = export_training_file(split, real_corpus, ont, out=out, diagnostics=diagnostics)
    assert written > 0
    mismatches = 0
    with open(out, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if parse_summary(record["gold_summary"], ont).state != record["gold_state"]:
                mismatches += 1
    assert mismatches == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _verdict(
        5,
        f"export/parse closure on {written} records "
        f"({len(diagnostics)} reserved-phrase turns surfaced)",
        elapsed,
    )


def test_criterion6_metric_oracles(ont, mini_corpus, tmp_path):
    started = time.perf_counter()

    # Suite 1: all pairs match.
    perfect = [(dict(gd.MULTI_DOMAIN_STATE), dict(gd.MULTI_DOMAIN_STATE))] * 10
    assert joint_goal_accuracy(perfect) == 1.0
    assert slot_accuracy(perfect, ont) == (1.0, 1.0)

    # Suite 2: half the pairs differ in one slot.
    gold = {"train-day": "monday", "train-departure": "norwich"}
    wrong = dict(gold) | {"train-day": "tuesday"}
    halved = [(dict(gold), dict(gold)), (wrong, gold)]
    assert joint_goal_accuracy(halved) == 0.5

    # Suite 3: 8 turns, exactly 3 of them matching under the attraction filter.
    match = {"attraction-area": "centre"}
    miss = {"attraction-area": "north"}
    eight = [
        (dict(match), dict(match)),
        (dict(match) | {"train-day": "monday"}, dict(match)),
        (dict(match), dict(match) | {"train-day": "monday"}),
        (dict(miss), dict(match)),
        (dict(miss), dict(match)),
        (dict(miss) | {"train-day": "monday"}, dict(match)),
        ({"attraction-type": "park"}, dict(match)),
        ({}, dict(match)),
    ]

    def brute_force(pairs, domain):
        hits = 0
        for predicted, gold_state in pairs:
            left = {k: v for k, v in predicted.items() if k.startswith(domain + "-")}
            right = {k: v for k, v in gold_state.items() if k.startswith(domain + "-")}
            hits += left == right
        return hits / len(pairs)

    expected = brute_force(eight, "attraction")
    assert expected == 0.375
    assert joint_goal_accuracy(eight, domain_filter="attraction") == expected

    # BLEU-4 against the independent implementation, within 1e-6.
    pairs = bleu_probe_pairs(ont)
    candidates = [c for c, _ in pairs]
    references = [r for _, r in pairs]
    assert abs(bleu4(candidates, references) - reference_bleu4(candidates, references)) < 1e-6

    # ROUGE-n against hand-computed overlap counts, exact.
    for candidate, reference, n, expected_f1 in ROUGE_HAND_CASES:
        assert rouge_n_f1(candidate, reference, n) == pytest.approx(expected_f1, abs=1e-12)

    # Gold-derived predictions score perfectly and produce no error records.
    rows = []
    for split_dialogues in mini_corpus.splits.values():
        for dialogue in split_dialogues:
            for index, state in enumerate(dialogue.states):
                if (dialogue.dialogue_id, index) in FIXTURE_COLLIDING_TURNS:
                    continue
                rows.append({
                    "dialogue_id": dialogue.dialogue_id,
                    "turn_index": index,
                    "predicted_summary": state_to_summary(state, ont),
                })
    predictions = tmp_path / "gold_preds.jsonl"
    with open(predictions, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    report = evaluate_run(predictions, mini_corpus, ont)
    assert report.all_domain_jga == 1.0
    assert sum(report.error_counts.values()) == 0

    _verdict(6, "metric oracles", time.perf_counter() - started)


def test_criterion7_error_taxonomy(ont):
    started = time.perf_counter()

    gold = {
        "train-departure": "broxbourne", "train-destination": "cambridge",
        "train-day": "wednesday", "train-leaveat": "11:30",
    }
    hallucinated = dict(gold) | {"train-book people": "7"}
    assert [r.kind for r in classify_errors(hallucinated, gold, ont)] == ["hallucination"]

    gold = {"train-departure": "peterborough", "train-day": "friday", "train-leaveat": "16:00"}
    omitted = {"train-departure": "peterborough", "train-day": "friday"}
    assert [r.kind for r in classify_errors(omitted, gold, ont)] == ["missing_slot"]

    gold = {
        "train-book people": "2", "train-departure": "bishops stortford",
        "train-destination": "cambridge", "train-day": "thursday",
        "train-leaveat": "18:30",
    }
    confused = dict(gold)
    del confused["train-leaveat"]
    confused["train-arriveby"] = "18:30"
    records = classify_errors(confused, gold, ont)
    assert [r.kind for r in records] == ["wrong_slot"]
    assert records[0].slot_name == "train-leaveat"

    _verdict(7, "error taxonomy on the three reference patterns", time.perf_counter() - started)


def test_criterion8_single_pass_scoring(ont, tmp_path):
    dialogues = []
    rows = []
    for d in range(1000):
        states = []
        for t in range(10):
            state = random_state(ont, seed=d * 10 + t)
            states.append(state)
            rows.append({
                "dialogue_id": f"GEN{d:04d}.json",
                "turn_index": t,
                "predicted_summary": state_to_summary(state, ont),
            })
        dialogues.append(
            Dialogue(f"GEN{d:04d}.json", states, history="", ends=(), domains=frozenset())
        )
    corpus = Corpus(splits={"train": [], "dev": [], "test": dialogues})
    predictions = tmp_path / "preds.jsonl"
    with open(predictions, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")

    started = time.perf_counter()
    report = evaluate_run(predictions, corpus, ont)
    elapsed = time.perf_counter() - started

    assert report.n_turns == 10_000
    assert report.n_parses == 10_000  # exactly one parse per summary
    assert report.all_domain_jga == 1.0
    assert elapsed < 5.0
    _verdict(8, f"10000 summaries scored with one parse each", elapsed)
