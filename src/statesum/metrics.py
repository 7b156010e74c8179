"""Scoring: joint goal accuracy, slot accuracies, BLEU-4, ROUGE-n, error taxonomy.

All scores are fractions in [0, 1]. Joint goal accuracy counts a turn correct
only when the predicted state set-equals the gold state; the per-domain
variant restricts both states to one domain's slots before comparing.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .corpus import Corpus, PredictionRecord, load_predictions, write_atomic
from .destate import StateExtractor
from .errors import EvaluationError, StateValidationError
from .ontology import DialogueState, Ontology, TemplateConfig, differing_slots
from .summarize import state_to_summary

ERROR_KINDS = ("hallucination", "missing_slot", "wrong_slot")

_BLEU_EPS = 1e-9
_BLEU_ORDERS = (1, 2, 3, 4)
_ROUGE_ORDERS = (1, 2, 4)


@dataclass(frozen=True)
class ErrorRecord:
    """One classified mismatch between a predicted and a gold state.

    ``wrong_slot`` names the gold slot whose value landed under a different
    predicted slot of the same value kind in the same domain; the other two
    kinds carry only the side of the pair that exists.
    """

    kind: str
    slot_name: str
    predicted_value: str | None = None
    gold_value: str | None = None
    predicted_slot: str | None = None


@dataclass
class Report:
    """Aggregated scores for one prediction run."""

    n_turns: int
    n_parses: int
    all_domain_jga: float
    per_domain_jga: dict[str, float]
    slot_true_acc: float
    slot_none_acc: float
    bleu4: float
    rouge_n_f1: dict[int, float]
    error_counts: dict[str, int]
    diagnostics: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        report = asdict(self)
        report["rouge_n_f1"] = {str(n): v for n, v in self.rouge_n_f1.items()}
        report["gold_summary_domain_order"] = "canonical"  # evaluate_run renders gold that way
        report["n_diagnostics"] = len(report.pop("diagnostics"))
        return report

    def save(self, path: str | Path) -> None:
        write_atomic(path, json.dumps(self.to_dict(), indent=2) + "\n")


# -- state-level metrics -------------------------------------------------------


def _state_scores(
    diffs: list[tuple[list[str], DialogueState]],
    domains: Iterable[str] = (),
    ontology: Ontology | None = None,
) -> tuple[float, dict[str, float], tuple[float, float]]:
    """All-domain JGA, JGA for each of ``domains`` and (active, absent) slot
    accuracy over the slots of ``ontology`` (none without one), from each
    turn's ``(differing_slots(predicted, gold), gold)``: a turn holds no
    predicted state. A turn is wrong for a domain when a differing slot is
    named ``domain + "-..."``, in the schema or not; a schema slot is active
    in a turn when the gold state has it, else absent, and missed when it
    differs.
    """
    slots = frozenset(spec.slot_name for spec in ontology.all_slots()) if ontology else frozenset()
    prefixes = {domain: domain + "-" for domain in domains}
    wrong = dict.fromkeys(prefixes, 0)
    all_wrong = active = active_missed = absent_missed = 0
    for diff, gold in diffs:
        active += len(slots.intersection(gold))
        if diff:
            all_wrong += 1
            for domain, prefix in prefixes.items():
                wrong[domain] += any(slot.startswith(prefix) for slot in diff)
            missed = slots.intersection(diff)
            active_missed += len(missed.intersection(gold))
            absent_missed += len(missed.difference(gold))
    n = len(diffs)
    absent = n * len(slots) - active
    rate = lambda hit, total: hit / total if total else 1.0
    return (
        (n - all_wrong) / n,
        {domain: (n - count) / n for domain, count in wrong.items()},
        (rate(active - active_missed, active), rate(absent - absent_missed, absent)),
    )


def joint_goal_accuracy(
    pairs: list[tuple[DialogueState, DialogueState]],
    domain_filter: str | None = None,
) -> float:
    """Fraction of (predicted, gold) pairs that match exactly.

    With ``domain_filter``, a pair matches when both states agree on every
    slot named ``domain_filter + "-..."``.
    """
    if not pairs:
        raise ValueError("joint goal accuracy is undefined for zero turns")
    diffs = [(differing_slots(predicted, gold), gold) for predicted, gold in pairs]
    if domain_filter is None:
        return _state_scores(diffs)[0]
    return _state_scores(diffs, (domain_filter,))[1][domain_filter]


def slot_accuracy(
    pairs: list[tuple[DialogueState, DialogueState]],
    ontology: Ontology,
) -> tuple[float, float]:
    """(active-slot accuracy, absent-slot accuracy) over the full slot universe."""
    if not pairs:
        raise ValueError("slot accuracy is undefined for zero turns")
    return _state_scores([(differing_slots(p, g), g) for p, g in pairs], (), ontology)[2]


# -- n-gram overlap metrics ------------------------------------------------------


def _clipped_overlaps(
    cand_tokens: list[str], ref_tokens: list[str], orders: tuple[int, ...]
) -> tuple[list[int], list[str], list[str]]:
    """For each ``n`` in ``orders``, the candidate n-grams matched in the
    reference, each clipped to its count there; then the candidate and
    reference windows of the largest order, which hold every n-gram of every
    order that is not matched in place (both empty for equal lists).

    Every n-gram lying wholly inside the common token prefix, or wholly inside
    the common suffix (capped so the two do not overlap), occurs at the same
    place on both sides, so it matches: there are ``start = max(prefix-n+1, 0)``
    and ``cut = max(suffix-n+1, 0)`` of them. The overlap is those plus the
    clipped overlap of the window ``tokens[start : len-cut]`` on each side,
    which is exact because a multiset added to both sides adds its size to the
    clipped count. The prefix and suffix are scanned once for all orders.

    Every n-gram of a window holds a token of its side's differing middle
    ``tokens[prefix : len-suffix]`` when that middle is nonempty. So if one
    side's middle is nonempty and shares no token with the other side's window
    for the largest order (which holds the windows of all smaller orders),
    no window n-gram matches, and only the n-grams matched in place count.
    """
    cand_len, ref_len = len(cand_tokens), len(ref_tokens)
    if cand_tokens == ref_tokens:
        return [max(cand_len - n + 1, 0) for n in orders], [], []
    limit = min(cand_len, ref_len)
    prefix = 0
    while prefix < limit and cand_tokens[prefix] == ref_tokens[prefix]:
        prefix += 1
    limit -= prefix
    suffix = 0
    while suffix < limit and cand_tokens[-1 - suffix] == ref_tokens[-1 - suffix]:
        suffix += 1
    widest = max(orders)
    lo = max(prefix - widest + 1, 0)
    hi = max(suffix - widest + 1, 0)
    cand_window = cand_tokens[lo : cand_len - hi]
    ref_window = ref_tokens[lo : ref_len - hi]
    cand_mid = cand_tokens[prefix : cand_len - suffix]
    ref_mid = ref_tokens[prefix : ref_len - suffix]
    if (cand_mid and set(cand_mid).isdisjoint(ref_window)) or (
        ref_mid and set(ref_mid).isdisjoint(cand_window)
    ):
        overlaps = [max(prefix - n + 1, 0) + max(suffix - n + 1, 0) for n in orders]
        return overlaps, cand_window, ref_window
    overlaps = []
    for n in orders:
        start = max(prefix - n + 1, 0)
        cut = max(suffix - n + 1, 0)
        cand = cand_tokens[start : cand_len - cut]
        ref = ref_tokens[start : ref_len - cut]
        if n > 1:
            cand = list(zip(*(cand[i:] for i in range(n))))
            ref = list(zip(*(ref[i:] for i in range(n))))
        cand_set, ref_set = set(cand), set(ref)
        if len(cand_set) == len(cand) or len(ref_set) == len(ref):
            # Without repeats on one side every clip is 0 or 1: a set intersection.
            overlaps.append(start + cut + len(cand_set & ref_set))
        else:
            ref_counts = Counter(ref)
            overlaps.append(
                start + cut + sum(min(c, ref_counts[g]) for g, c in Counter(cand).items())
            )
    return overlaps, cand_window, ref_window


# (candidate token count, reference token count, clipped overlap for each order)
_Counts = tuple[int, int, list[int]]


def _ngram_counts(
    candidate: str, reference: str, orders: tuple[int, ...], lowercase: bool
) -> tuple[_Counts, _Counts | None]:
    """One pair's counts over whitespace tokens for ``orders``; then, if
    ``lowercase``, the same counts over the lowercased texts (ROUGE's tokens).

    The lowercased counts reuse the cased ones when both texts are ASCII, so
    that lowering each token gives ``text.lower().split()``, and lowering
    keeps the tokens of the two windows from ``_clipped_overlaps`` distinct.
    The n-grams matched in place in the common prefix and suffix still match
    after lowering, and all others lie in the windows, where a lowering that
    merges no two tokens changes no clipped count; token totals do not change.
    Otherwise the lowercased texts are split and counted again.
    """
    cand_tokens = candidate.split()
    ref_tokens = cand_tokens if candidate == reference else reference.split()
    overlaps, cand_window, ref_window = _clipped_overlaps(cand_tokens, ref_tokens, orders)
    cased = (len(cand_tokens), len(ref_tokens), overlaps)
    if not lowercase:
        return cased, None
    if candidate.isascii() and reference.isascii():
        window = set(cand_window)
        window.update(ref_window)
        if len({token.lower() for token in window}) == len(window):
            return cased, cased
    cand_tokens = candidate.lower().split()
    ref_tokens = cand_tokens if candidate == reference else reference.lower().split()
    overlaps = _clipped_overlaps(cand_tokens, ref_tokens, orders)[0]
    return cased, (len(cand_tokens), len(ref_tokens), overlaps)


def _bleu(pair_counts: Iterable[_Counts]) -> float:
    """BLEU-4 from each pair's cased counts for orders 1-4."""
    clipped = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    cand_len = ref_len = 0
    for pair_cand_len, pair_ref_len, overlaps in pair_counts:
        cand_len += pair_cand_len
        ref_len += pair_ref_len
        for i, matched in enumerate(overlaps):
            totals[i] += max(pair_cand_len - i, 0)
            clipped[i] += matched
    if cand_len == 0:
        return 0.0
    log_precision = 0.0
    for matched, total in zip(clipped, totals):
        numerator = matched if matched > 0 else _BLEU_EPS
        log_precision += 0.25 * math.log(numerator / (total if total > 0 else 1))
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_precision)


def _rouge_f1(cand_len: int, ref_len: int, n: int, matched: int) -> float:
    """ROUGE-n F1 of one pair from its lowercased token counts and overlap."""
    cand_total = max(cand_len - n + 1, 0)
    ref_total = max(ref_len - n + 1, 0)
    if cand_total == 0 or ref_total == 0:
        return 1.0 if cand_total == ref_total else 0.0
    if matched == 0:
        return 0.0
    precision = matched / cand_total
    recall = matched / ref_total
    return 2 * precision * recall / (precision + recall)


def bleu4(candidates: list[str], references: list[str]) -> float:
    """Corpus-level BLEU with 4-gram precisions, uniform weights, and brevity
    penalty; zero n-gram counts are smoothed with an epsilon numerator."""
    if len(candidates) != len(references):
        raise ValueError("candidates and references must have equal length")
    if not candidates:
        raise ValueError("BLEU is undefined for an empty corpus")
    return _bleu(
        _ngram_counts(candidate, reference, _BLEU_ORDERS, False)[0]
        for candidate, reference in zip(candidates, references)
    )


def rouge_n_f1(candidate: str, reference: str, n: int) -> float:
    """F1 of clipped n-gram overlap; whitespace tokens after lowercasing."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand_len, ref_len, (matched,) = _ngram_counts(candidate, reference, (n,), True)[1]
    return _rouge_f1(cand_len, ref_len, n, matched)


# -- error taxonomy -------------------------------------------------------------


def classify_errors(
    predicted: DialogueState,
    gold: DialogueState,
    ontology: Ontology,
) -> list[ErrorRecord]:
    """Partition the differing slots of a (predicted, gold) pair.

    Slots present only in the prediction are hallucinations; slots present
    only in the gold are missing, except that a missing gold value found under
    a same-kind, same-domain predicted slot collapses into one wrong_slot
    record. A slot present on both sides with different values counts as a
    hallucinated value. Every differing slot lands in exactly one record.
    """
    diff = sorted(differing_slots(predicted, gold), key=ontology.slot_rank)
    pred_only = [s for s in diff if s not in gold]
    gold_only = [s for s in diff if s not in predicted]
    value_conflicts = [s for s in diff if s in predicted and s in gold]
    specs = [ontology.slot(s) for s in diff if ontology.has_slot(s)]
    kinds = {spec.slot_name: (spec.domain, spec.value_kind) for spec in specs}
    records = []
    for gold_slot in gold_only:
        value, kind = gold[gold_slot], kinds.get(gold_slot)
        match = next(
            (s for s in pred_only if kind and kinds.get(s) == kind and predicted[s] == value), None
        )
        if match is None:
            records.append(ErrorRecord("missing_slot", gold_slot, gold_value=value))
        else:
            pred_only.remove(match)
            records.append(
                ErrorRecord("wrong_slot", gold_slot, value, gold_value=value, predicted_slot=match)
            )
    records.extend(
        ErrorRecord("hallucination", s, predicted_value=predicted[s])
        for s in pred_only + value_conflicts
    )
    return records


# -- whole-run evaluation ---------------------------------------------------------


def evaluate_run(
    predictions_path: str | Path,
    corpus: Corpus,
    ontology: Ontology,
    cfg: TemplateConfig = TemplateConfig(),
    out: str | Path | None = None,
    diagnostics_out: str | Path | None = None,
) -> Report:
    """Parse and score a prediction file against the corpus gold states.

    A prediction joins the gold state ``states[turn_index]`` of the corpus
    dialogue ``dialogue_id``. Each predicted summary is parsed exactly once,
    with the grammar that ``cfg.naturalness`` picks; the other fields of
    ``cfg`` set only how gold summaries (for the text-overlap metrics) are
    rendered, in canonical domain order, which the report records. While the
    gold state stays unchanged from one record to the next (same slots, values
    and slot order), the previous gold summary is reused. Each report field
    equals the public function of the same name, over the (predicted, gold)
    state pairs or the predicted and gold summaries in (dialogue_id,
    turn_index) order; ``rouge_n_f1`` is the per-turn mean, and
    ``error_counts`` tallies ``classify_errors``. Each turn holds only its
    ``differing_slots``, which JGA, per-domain JGA and slot accuracy read, its
    gold state, and its gold summary (the prediction's string when the two are
    equal). Each summary pair is split and counted once for orders 1-4, and
    ROUGE-1/2/4 reuse BLEU's cased counts; the pair is lowercased and counted
    again only when a text is not ASCII or lowering merges two tokens of the
    windows where the texts differ. An unjoined prediction, or a gold state
    the schema rejects, raises ``EvaluationError`` naming its turn.
    """
    diagnostics: list[str] = []
    records: list[PredictionRecord] = load_predictions(predictions_path, diagnostics)
    gold_states = {dialogue_id: d.states for dialogue_id, d in corpus.dialogue_map().items()}
    unmatched = sorted(
        f"{r.dialogue_id}/{r.turn_index}"
        for r in records
        if not 0 <= r.turn_index < len(gold_states.get(r.dialogue_id, ()))
    )
    if unmatched:
        raise EvaluationError(
            f"{len(unmatched)} predictions do not join to corpus turns: "
            + ", ".join(unmatched[:10])
        )

    extractor = StateExtractor(ontology)
    gold_cfg = replace(cfg, domain_order="canonical")
    diffs, references = [], []
    error_counts = dict.fromkeys(ERROR_KINDS, 0)
    per_turn_diagnostics = []
    gold_state: DialogueState | None = None
    records.sort(key=lambda r: (r.dialogue_id, r.turn_index))
    for record in records:
        gold = gold_states[record.dialogue_id][record.turn_index]
        parsed = extractor.parse(record.predicted_summary, cfg)
        diffs.append((differing_slots(parsed.state, gold), gold))
        # The render follows the state's slot order, so a reuse needs that order too.
        if gold != gold_state or list(gold) != list(gold_state):
            gold_state = gold
            try:
                reference = state_to_summary(gold_state, ontology, gold_cfg)
            except StateValidationError as exc:
                where = f"{record.dialogue_id}/{record.turn_index}"
                raise EvaluationError(f"{where}: gold state rejected by the schema: {exc}") from exc
        summary = record.predicted_summary
        references.append(summary if summary == reference else reference)  # equal texts: one copy
        for error in classify_errors(parsed.state, gold, ontology):
            error_counts[error.kind] += 1
        if parsed.diagnostics:
            per_turn_diagnostics.append(
                {
                    "dialogue_id": record.dialogue_id,
                    "turn_index": record.turn_index,
                    "diagnostics": parsed.diagnostics,
                }
            )
            diagnostics.extend(
                f"{record.dialogue_id}/{record.turn_index}: {d}" for d in parsed.diagnostics
            )

    if not diffs:
        raise EvaluationError("prediction file contains no records")

    # One count per pair serves BLEU and ROUGE, and none is kept. ROUGE is a
    # running sum in record order: sum() rounds differently on Python 3.12+.
    rouge_sums = [0.0, 0.0, 0.0]

    def cased_counts():
        for record, reference in zip(records, references):
            cased, (cand_len, ref_len, overlaps) = _ngram_counts(
                record.predicted_summary, reference, _BLEU_ORDERS, True
            )
            for i, n in enumerate(_ROUGE_ORDERS):
                rouge_sums[i] += _rouge_f1(cand_len, ref_len, n, overlaps[n - 1])
            yield cased

    bleu = _bleu(cased_counts())
    jga, per_domain_jga, (true_acc, none_acc) = _state_scores(diffs, ontology.domains, ontology)
    report = Report(
        n_turns=len(diffs),
        n_parses=extractor.parses,
        all_domain_jga=jga,
        per_domain_jga=per_domain_jga,
        slot_true_acc=true_acc,
        slot_none_acc=none_acc,
        bleu4=bleu,
        rouge_n_f1={n: total / len(diffs) for n, total in zip(_ROUGE_ORDERS, rouge_sums)},
        error_counts=error_counts,
        diagnostics=diagnostics,
    )
    if out is not None:
        report.save(out)
    if diagnostics_out is not None:
        write_atomic(
            diagnostics_out,
            "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in per_turn_diagnostics),
        )
    return report
