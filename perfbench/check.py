"""Independent output checks.

Every expected value comes from the generator's own record of each turn
(``expected.json``), not from the code under test: JGA, per-domain JGA and
slot accuracy from the known gold and predicted states, error counts from the
perturbation log, BLEU-4 from ``tests/oracles.reference_bleu4`` and ROUGE from
a list-based count. A turn fails when its prediction (scoring) or its written
label (export) does not parse back to the state the generator rendered, or
when the export skipped a turn that would have round-tripped.
"""

from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from statesum import TemplateConfig, parse_summary, state_to_summary

# One perturbation per turn, so its kind fixes the single expected error record.
ERROR_OF_PERTURBATION = {
    "drop": "missing_slot",
    "change": "hallucination",
    "add": "hallucination",
    "move": "wrong_slot",
}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_rouge(candidate: str, reference: str, n: int) -> float:
    """ROUGE-n F1 from sorted joined-string n-gram lists, matched by a merge."""
    cand, ref = candidate.lower().split(), reference.lower().split()
    c_grams = sorted(" ".join(cand[i:i + n]) for i in range(len(cand) - n + 1))
    r_grams = sorted(" ".join(ref[i:i + n]) for i in range(len(ref) - n + 1))
    if not c_grams or not r_grams:
        return 1.0 if not c_grams and not r_grams else 0.0
    matched = i = j = 0
    while i < len(c_grams) and j < len(r_grams):
        if c_grams[i] == r_grams[j]:
            matched += 1
            i += 1
            j += 1
        elif c_grams[i] < r_grams[j]:
            i += 1
        else:
            j += 1
    if not matched:
        return 0.0
    precision, recall = matched / len(c_grams), matched / len(r_grams)
    return 2 * precision * recall / (precision + recall)


def _restrict(state: dict, domain: str) -> dict:
    return {k: v for k, v in state.items() if k.startswith(domain + "-")}


def _compare(verdict: Verdict, name: str, got, want) -> None:
    if isinstance(want, float):
        same = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    else:
        same = got == want
    if not same:
        verdict.problems.append(f"report field {name}: got {got!r}, expected {want!r}")


def check_eval(root: Path, work: Path, expected: dict, ont) -> Verdict:
    turns = expected["turns"]
    verdict = Verdict(attempted=len(turns))
    texts = {}
    with open(work / "predictions.jsonl", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            texts[(row["dialogue_id"], row["turn_index"])] = row["predicted_summary"]

    n = len(turns)
    jga = 0
    domain_hits = dict.fromkeys(ont.domains, 0)
    slots = [spec.slot_name for spec in ont.all_slots()]
    true_hit = true_total = none_hit = none_total = 0
    errors = {"hallucination": 0, "missing_slot": 0, "wrong_slot": 0}
    n_diagnostics = 0
    candidates, references = [], []
    rouge = {1: 0.0, 2: 0.0, 4: 0.0}
    for dialogue_id, index, gold, pred, kind, gold_summary in turns:
        text = texts[(dialogue_id, index)]
        parsed = parse_summary(text, ont)
        if parsed.state != pred:
            verdict.failed += 1
            if len(verdict.problems) < 5:
                verdict.problems.append(
                    f"{dialogue_id}/{index}: prediction parses to {parsed.state}, rendered {pred}")
        n_diagnostics += len(parsed.diagnostics)
        jga += pred == gold
        for domain in domain_hits:
            domain_hits[domain] += _restrict(pred, domain) == _restrict(gold, domain)
        for slot in slots:
            if slot in gold:
                true_total += 1
                true_hit += pred.get(slot) == gold[slot]
            else:
                none_total += 1
                none_hit += slot not in pred
        if kind is not None:
            errors[ERROR_OF_PERTURBATION[kind]] += 1
        candidates.append(text)
        references.append(gold_summary)
        for k in rouge:
            rouge[k] += reference_rouge(text, gold_summary, k)

    report = json.loads((work / "report.json").read_text("utf-8"))
    oracles = load_oracles(root)
    want = {
        "n_turns": n,
        "n_parses": n,
        "all_domain_jga": jga / n,
        "per_domain_jga": {d: hits / n for d, hits in domain_hits.items()},
        "slot_true_acc": true_hit / true_total if true_total else 1.0,
        "slot_none_acc": none_hit / none_total if none_total else 1.0,
        "bleu4": oracles.reference_bleu4(candidates, references),
        "rouge_n_f1": {str(k): v / n for k, v in rouge.items()},
        "error_counts": errors,
        "gold_summary_domain_order": "canonical",
        "n_diagnostics": n_diagnostics,
    }
    if set(report) != set(want):
        verdict.problems.append(f"report keys {sorted(report)} != {sorted(want)}")
    for key, value in want.items():
        if isinstance(value, dict) and key != "error_counts":
            got = report.get(key) or {}
            if set(got) != set(value):
                verdict.problems.append(f"report field {key}: keys {sorted(got)}")
            for sub, sub_value in value.items():
                _compare(verdict, f"{key}.{sub}", got.get(sub), sub_value)
        else:
            _compare(verdict, key, report.get(key), value)
    return verdict


def check_export(work: Path, expected: dict, ont, cfg: TemplateConfig,
                 written: int, skipped: int) -> Verdict:
    gold = {(d, t): state for d, t, state in expected["turns"]}
    verdict = Verdict(attempted=len(gold))
    seen = set()
    with open(work / "labels.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            key = (record["dialogue_id"], record["turn_index"])
            if key not in gold or key in seen:
                verdict.problems.append(f"unexpected or repeated label {key}")
                continue
            seen.add(key)
            ok = (record["gold_state"] == gold[key]
                  and record["split_role"] == "finetune"
                  and parse_summary(record["gold_summary"], ont, cfg).state == gold[key])
            if not ok:
                verdict.failed += 1
                if len(verdict.problems) < 5:
                    verdict.problems.append(f"{key}: label does not parse back to its gold state")
    for key in gold.keys() - seen:
        state = gold[key]
        if parse_summary(state_to_summary(state, ont, cfg), ont, cfg).state == state:
            verdict.failed += 1
            if len(verdict.problems) < 5:
                verdict.problems.append(f"{key}: skipped, but {state} round-trips")
    if (len(seen), len(gold) - len(seen)) != (written, skipped):
        verdict.problems.append(
            f"export reported {written} written/{skipped} skipped, file holds {len(seen)}")
    return verdict
