"""The near-miss set: seeded renders, each perturbed the way model output goes wrong.

Every ``random_state`` seed is rendered under the four natural configs and under
the flat one, each in both domain orders, and every render is parsed as written
and after each perturbation below. A parse is *exact* when it returns the
rendered state, *diagnosed* when it returns another state with a diagnostic, and
*silent* when it returns another state with none.

    PYTHONPATH=src python tests/nearmiss.py --seeds 500
"""

import argparse
import dataclasses
import hashlib
import json
import random
from collections import Counter

from statesum import TemplateConfig, default_ontology, parse_summary, random_state, state_to_summary

NATURAL_CONFIGS = [
    TemplateConfig(paraphrasing=p, dontcare_concat=c) for p in (True, False) for c in (True, False)
]
FLAT_CONFIG = TemplateConfig(naturalness=False)
ORDERS = ("canonical", "shuffled")


def _drop_word(text, rng):
    words = text.split(" ")
    del words[rng.randrange(len(words))]
    return " ".join(words)


def _cut_tail(text, rng):
    words = text.split(" ")
    return " ".join(words[: len(words) * 2 // 3])


# name -> perturbation of a render; a seeded one draws from the render's own generator.
PERTURBATIONS = {
    "exact": lambda text, rng: text,
    "lowercased": lambda text, rng: text.lower(),
    "doubled spaces": lambda text, rng: text.replace(" ", "  "),
    "tail cut to 2/3": _cut_tail,
    "'The user' -> 'He'": lambda text, rng: text.replace("The user", "He", 1),
    "final period dropped": lambda text, rng: text.removesuffix("."),
    "title case": lambda text, rng: text.title(),
    "one word dropped": _drop_word,
}


def renders(ontology, seeds):
    """Yield ``(format, cfg, state, text)`` for each seed, config and domain order."""
    for seed in range(seeds):
        state = random_state(ontology, seed=seed)
        for fmt, configs in (("natural", NATURAL_CONFIGS), ("flat", [FLAT_CONFIG])):
            for base in configs:
                for order in ORDERS:
                    cfg = dataclasses.replace(base, domain_order=order)
                    yield fmt, cfg, state, state_to_summary(state, ontology, cfg, random.Random(seed))


def near_miss_table(ontology, seeds):
    """Count exact / diagnosed / silent parses per ``(format, perturbation)`` row,
    and digest each exact render's parsed (state, diagnostics) in render order."""
    table = {}
    digest = hashlib.sha256()
    for fmt, cfg, state, text in renders(ontology, seeds):
        rng = random.Random(text)
        for name, perturb in PERTURBATIONS.items():
            parsed = parse_summary(perturb(text, rng), ontology, cfg)
            if parsed.state == state:
                outcome = "exact"
            else:
                outcome = "diagnosed" if parsed.diagnostics else "silent"
            table.setdefault((fmt, name), Counter())[outcome] += 1
            if name == "exact":
                record = [sorted(parsed.state.items()), parsed.diagnostics]
                digest.update(json.dumps(record).encode() + b"\n")
    return table, digest.hexdigest()


def format_table(table):
    lines = [f"{'format':8} {'perturbation':22} {'exact':>6} {'diagnosed':>9} {'silent':>6}"]
    for (fmt, name), counts in table.items():
        lines.append(f"{fmt:8} {name:22} {counts['exact']:6} {counts['diagnosed']:9} "
                     f"{counts['silent']:6}")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=500)
    args = parser.parse_args()
    table, digest = near_miss_table(default_ontology(), args.seeds)
    print(format_table(table))
    print(f"exact-render digest: {digest}")
