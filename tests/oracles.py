"""Independent reference implementations used to cross-check the metrics.

These deliberately avoid the library's code paths (list-based counting,
joined-string n-grams) so a shared bug cannot hide.
"""

import math

from statesum import random_state, state_to_summary


def reference_bleu4(candidates, references):
    match = [0, 0, 0, 0]
    total = [0, 0, 0, 0]
    cand_len = ref_len = 0
    for cand, ref in zip(candidates, references):
        c_tokens, r_tokens = cand.split(), ref.split()
        cand_len += len(c_tokens)
        ref_len += len(r_tokens)
        for n in range(1, 5):
            c_grams = [" ".join(c_tokens[i:i + n]) for i in range(len(c_tokens) - n + 1)]
            r_grams = [" ".join(r_tokens[i:i + n]) for i in range(len(r_tokens) - n + 1)]
            total[n - 1] += len(c_grams)
            for gram in set(c_grams):
                match[n - 1] += min(c_grams.count(gram), r_grams.count(gram))
    log_sum = sum(
        math.log((m if m else 1e-9) / (t if t else 1)) for m, t in zip(match, total)
    ) / 4
    brevity = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return brevity * math.exp(log_sum)


def reference_clipped_overlap(cand_tokens, ref_tokens, n):
    """Candidate n-grams found in the reference, each clipped to its count there."""
    c_grams = [" ".join(cand_tokens[i:i + n]) for i in range(len(cand_tokens) - n + 1)]
    r_grams = [" ".join(ref_tokens[i:i + n]) for i in range(len(ref_tokens) - n + 1)]
    return sum(min(c_grams.count(gram), r_grams.count(gram)) for gram in set(c_grams))


def reference_rouge_n_f1(candidate, reference, n):
    c_tokens, r_tokens = candidate.lower().split(), reference.lower().split()
    c_grams = [" ".join(c_tokens[i:i + n]) for i in range(len(c_tokens) - n + 1)]
    r_grams = [" ".join(r_tokens[i:i + n]) for i in range(len(r_tokens) - n + 1)]
    if not c_grams or not r_grams:
        return 1.0 if len(c_grams) == len(r_grams) else 0.0
    match = sum(min(c_grams.count(gram), r_grams.count(gram)) for gram in set(c_grams))
    if match == 0:
        return 0.0
    precision, recall = match / len(c_grams), match / len(r_grams)
    return 2 * precision * recall / (precision + recall)


def bleu_probe_pairs(ont, count=20, seed_base=1000):
    """Mildly perturbed summary pairs; every pair shares several 4-grams."""
    pairs = []
    for seed in range(count):
        state = random_state(ont, seed=seed + seed_base)
        reference = state_to_summary(state, ont)
        tokens = reference.split()
        tokens[seed % max(len(tokens) - 1, 1)] = "something"
        if seed % 3 == 0:
            tokens = tokens[:-2] + tokens[-1:]
        pairs.append((" ".join(tokens), reference))
    return pairs


# (candidate, reference, n, F1 worked out from the overlap counts by hand)
ROUGE_HAND_CASES = [
    # 2 of 3 unigrams shared on both sides: P=R=2/3.
    ("the cat sat", "the cat ran", 1, 2 / 3),
    # 1 of 2 bigrams shared: P=R=1/2.
    ("the cat sat", "the cat ran", 2, 1 / 2),
    # clipped match min(3,2)=2 over 3 unigrams each: P=R=2/3.
    ("a a a", "a a b", 1, 2 / 3),
    # match 2: P=2/2, R=2/4 -> F1=2/3.
    ("a b", "a b c d", 1, 2 / 3),
    # 4-grams: match 1: P=1/2, R=1/1 -> F1=2/3.
    ("a b c d e", "a b c d", 4, 2 / 3),
    # identical texts: every n-gram matches, repeats included: P=R=1.
    ("a a b a", "a a b a", 1, 1.0),
    ("a b c d e", "a b c d e", 4, 1.0),
    # texts that differ only by case match in full after lowercasing.
    ("The Cat sat", "the cat SAT", 2, 1.0),
    # case-only difference, then one differing unigram: match 2 of 3: P=R=2/3.
    ("The Cat sat", "the cat ran", 1, 2 / 3),
]
