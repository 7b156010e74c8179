"""Seeded workload generators and the raw 2.1 archive writer.

Run as its own process before the measured one, so generation never shows in
the job's memory or time:

    python3 perfbench/gen.py --workload eval-noisy --seed 1 --out DIR

DIR receives ``corpus/`` (``data.json``, ``valListFile.json``,
``testListFile.json``), ``predictions.jsonl`` for the scoring workloads, and
``expected.json``: the generator's own record of every turn (gold state,
predicted state, perturbation) plus the workload properties.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from statesum import DONTCARE, TemplateConfig, default_ontology, random_state, state_to_summary
from statesum.corpus import SUPPORTED_DOMAINS

WORKLOADS = ("eval-exact", "eval-noisy", "export-md")

# Raw 2.1 annotations spell these two keys in camel case.
_RAW_SEMI_KEYS = {"leaveat": "leaveAt", "arriveby": "arriveBy"}

# Names from the real corpus that embed the " and " delimiter; none of them
# survives a render/parse round trip, so the export guard must skip them.
DELIMITER_NAMES = {
    "attraction-name": ["cambridge and county folk museum"],
    "hotel-name": [
        "a and b guest house",
        "alexander bed and breakfast",
        "city centre north b and b",
        "finches bed and breakfast",
    ],
    "restaurant-name": ["the cow pizza kitchen and bar"],
}
DELIMITER_NAME_PROB = 0.02
DONTCARE_PROB = 0.05
PERTURB_PROB = 0.8
PERTURBATIONS = ("drop", "change", "add", "move")
# Sizes keep one repetition near 2 s on a 2-core machine, so a 20 s run holds
# enough repetitions for a steady median: 5,000 scored turns, and a quarter
# of the 8,438-dialogue 2.1 training split (about 15,000 turns) for export.
EVAL_DIALOGUES = 500
EVAL_TURNS = 10
EXPORT_DIALOGUES = 2110


def canonical(state: dict) -> dict:
    """Order slots by domain the way ``load_multiwoz`` returns them, so the
    canonical render of a generated state equals that of the loaded state."""
    rank = {d: i for i, d in enumerate(SUPPORTED_DOMAINS)}
    return {k: state[k] for k in sorted(state, key=lambda k: rank[k.split("-", 1)[0]])}


def domains_of(state: dict) -> set[str]:
    return {slot.split("-", 1)[0] for slot in state}


# -- values --------------------------------------------------------------------


def draw_value(rng: random.Random, ont, slot: str, delimiter_prob: float = 0.0) -> str:
    if rng.random() < DONTCARE_PROB:
        return DONTCARE
    if slot in DELIMITER_NAMES and rng.random() < delimiter_prob:
        return rng.choice(DELIMITER_NAMES[slot])
    if ont.slot(slot).is_boolean:
        return rng.choice(["yes", "no"])
    return rng.choice(ont.value_pools[slot])


def other_value(rng: random.Random, ont, slot: str, current: str) -> str:
    if ont.slot(slot).is_boolean:
        choices = ["yes", "no", DONTCARE]
    else:
        choices = ont.value_pools[slot] + [DONTCARE]
    return rng.choice([v for v in choices if v != current])


# -- dialogue states -----------------------------------------------------------


def dialogue_states(rng: random.Random, ont, n_turns: int, delimiter_prob: float = 0.0):
    """Cumulative states over 1-3 domains that gain slots turn by turn and
    sometimes revise a value, so consecutive turns often repeat a state."""
    domains = rng.sample(list(ont.domains), rng.choice([1, 1, 2, 2, 3]))
    state: dict[str, str] = {}
    states = []
    for t in range(n_turns):
        focus = ont.domains[domains[min(t * len(domains) // n_turns, len(domains) - 1)]]
        free = [s.slot_name for s in focus.slots if s.slot_name not in state]
        n_new = rng.choice([1, 2]) if t == 0 else rng.choice([0, 0, 1, 1, 2])
        for slot in rng.sample(free, min(n_new, len(free))):
            state[slot] = draw_value(rng, ont, slot, delimiter_prob)
        if state and rng.random() < 0.1:
            slot = rng.choice(sorted(state))
            state[slot] = other_value(rng, ont, slot, state[slot])
        states.append(canonical(state))
    return sorted(domains_of(state)), states


def perturb(rng: random.Random, ont, gold: dict):
    """Apply at most one perturbation; return (predicted state, kind or None)."""
    if rng.random() >= PERTURB_PROB:
        return dict(gold), None
    kinds = list(PERTURBATIONS)
    rng.shuffle(kinds)
    for kind in kinds:
        pred = dict(gold)
        if kind == "drop":
            del pred[rng.choice(sorted(gold))]
            return canonical(pred), kind
        if kind == "change":
            slot = rng.choice(sorted(gold))
            pred[slot] = other_value(rng, ont, slot, gold[slot])
            return pred, kind
        if kind == "add":
            absent = [
                s.slot_name for d in sorted(domains_of(gold))
                for s in ont.domains[d].slots if s.slot_name not in gold
            ]
            if absent:
                slot = rng.choice(absent)
                pred[slot] = draw_value(rng, ont, slot)
                return canonical(pred), kind
        if kind == "move":
            moves = [
                (src, s.slot_name)
                for src in sorted(gold)
                for s in ont.domains[ont.domain_of(src)].slots
                if s.slot_name not in gold and s.value_kind == ont.slot(src).value_kind
            ]
            if moves:
                src, dst = rng.choice(moves)
                pred[dst] = pred.pop(src)
                return canonical(pred), kind
    raise RuntimeError(f"no perturbation applies to {gold}")


# -- raw archive writer --------------------------------------------------------


def _raw_layout(ont):
    semi, book = {}, {}
    for name in SUPPORTED_DOMAINS:
        semi[name], book[name] = [], []
        for spec in ont.domains[name].slots:
            bare = spec.bare_name
            if bare.startswith("book "):
                book[name].append((bare[5:], spec.slot_name))
            else:
                semi[name].append((_RAW_SEMI_KEYS.get(bare, bare), spec.slot_name))
    return semi, book


def _metadata(layout, state: dict, rng: random.Random) -> dict:
    semi, book = layout
    meta = {}
    for name in SUPPORTED_DOMAINS:
        raw_book = {"booked": []}
        raw_book.update({key: _raw_value(state.get(slot), "", rng) for key, slot in book[name]})
        raw_semi = {key: _raw_value(state.get(slot), "not mentioned", rng)
                    for key, slot in semi[name]}
        meta[name] = {"book": raw_book, "semi": raw_semi}
    meta["police"] = {"book": {"booked": []}, "semi": {}}
    meta["hospital"] = {"book": {"booked": []}, "semi": {"department": ""}}
    return meta


def _raw_value(value, absent: str, rng: random.Random) -> str:
    if value is None:
        return absent
    if value == DONTCARE:
        return rng.choice(["dontcare", "dont care", "don't care"])
    return value


def _user_text(previous: dict, state: dict) -> str:
    new = [f"{slot.split('-', 1)[1]} {value}" for slot, value in state.items()
           if previous.get(slot) != value]
    return "i would like " + " and ".join(new) if new else "that sounds fine, thanks"


def raw_dialogue(layout, goal_domains, states, rng: random.Random) -> dict:
    goal = {d: {} for d in ("taxi", "police", "hospital", "hotel", "attraction",
                            "train", "restaurant", "bus")}
    for d in goal_domains:
        goal[d] = {"info": {"filled": "yes"}}
    goal["message"] = ["generated dialogue"]
    goal["topic"] = {}
    log, previous = [], {}
    for state in states:
        log.append({"text": _user_text(previous, state), "metadata": {}})
        log.append({"text": "sure, is there anything else?",
                    "metadata": _metadata(layout, state, rng)})
        previous = state
    return {"goal": goal, "log": log}


def write_archive(directory: Path, data: dict, val_ids, test_ids) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    # json.dumps takes the C encoder; json.dump to a file would not.
    (directory / "data.json").write_text(json.dumps(data), "utf-8")
    (directory / "valListFile.json").write_text("".join(i + "\n" for i in val_ids), "utf-8")
    (directory / "testListFile.json").write_text("".join(i + "\n" for i in test_ids), "utf-8")


# -- workloads -------------------------------------------------------------------


def _properties(turns, n_pred_equal=None, delimiter=(0, 0)) -> dict:
    seen: set = set()
    repeats = multi = slots = 0
    for _, _, gold in turns:
        key = frozenset(gold.items())
        repeats += key in seen
        seen.add(key)
        multi += len(domains_of(gold)) > 1
        slots += len(gold)
    n = len(turns)
    names, delimited = delimiter
    return {
        "turns": n,
        "pred_equals_gold_share": (n_pred_equal or 0) / n,
        "repeat_state_share": repeats / n,
        "multi_domain_share": multi / n,
        "mean_slots": slots / n,
        "delimiter_name_share": delimited / names if names else 0.0,
    }


def _unseen_random_state(rng: random.Random, ont, seen: set) -> dict:
    """An independent random state that no earlier turn had, so a per-state
    memo gets no hits on eval-exact."""
    while True:
        state = canonical(random_state(ont, seed=rng.randrange(2**31), max_domains=5))
        key = frozenset(state.items())
        if key not in seen:
            seen.add(key)
            return state


def generate_eval(workload: str, seed: int, out: Path) -> None:
    ont = default_ontology()
    rng = random.Random(seed)
    layout = _raw_layout(ont)
    shuffled = TemplateConfig(domain_order="shuffled")
    data, rows, expected = {}, [], []
    n_equal = 0
    seen: set = set()
    for d in range(EVAL_DIALOGUES):
        dialogue_id = f"BENCH{d:05d}.json"
        if workload == "eval-exact":
            states = [_unseen_random_state(rng, ont, seen) for _ in range(EVAL_TURNS)]
            goal_domains = sorted(set().union(*(domains_of(s) for s in states)))
        else:
            goal_domains, states = dialogue_states(rng, ont, EVAL_TURNS)
        data[dialogue_id] = raw_dialogue(layout, goal_domains, states, rng)
        for t, gold in enumerate(states):
            gold_summary = state_to_summary(gold, ont)
            if workload == "eval-exact":
                pred, kind, text = gold, None, gold_summary
            else:
                pred, kind = perturb(rng, ont, gold)
                text = state_to_summary(pred, ont, shuffled, random.Random(rng.randrange(2**31)))
            n_equal += text == gold_summary
            rows.append({"dialogue_id": dialogue_id, "turn_index": t, "predicted_summary": text})
            expected.append([dialogue_id, t, gold, pred, kind, gold_summary])
    write_archive(out / "corpus", data, [], sorted(data))
    with open(out / "predictions.jsonl", "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(row) + "\n" for row in rows)
    properties = _properties([(e[0], e[1], e[2]) for e in expected], n_equal)
    _write_expected(out, workload, seed, expected, properties)


def generate_export(seed: int, out: Path) -> None:
    ont = default_ontology()
    rng = random.Random(seed)
    layout = _raw_layout(ont)
    data, expected = {}, []
    names = delimited = 0
    for d in range(EXPORT_DIALOGUES):
        dialogue_id = f"BENCH{d:05d}.json"
        goal_domains, states = dialogue_states(rng, ont, rng.randint(2, 12), DELIMITER_NAME_PROB)
        data[dialogue_id] = raw_dialogue(layout, goal_domains, states, rng)
        for t, gold in enumerate(states):
            expected.append([dialogue_id, t, gold])
            for slot, pool in DELIMITER_NAMES.items():
                if slot in gold:
                    names += 1
                    delimited += gold[slot] in pool
    write_archive(out / "corpus", data, [], [])
    _write_expected(out, "export-md", seed, expected,
                    _properties(expected, delimiter=(names, delimited)))


def _write_expected(out: Path, workload: str, seed: int, turns, properties) -> None:
    payload = {"workload": workload, "seed": seed, "properties": properties, "turns": turns}
    (out / "expected.json").write_text(json.dumps(payload), "utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "export-md":
        generate_export(args.seed, args.out)
    else:
        generate_eval(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
