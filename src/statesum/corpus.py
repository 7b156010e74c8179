"""Corpus ingestion, few-shot split sampling, and label/prediction file I/O.

The loader reads the raw multi-domain Wizard-of-Oz archives (2.0 and 2.1 load the
same way): a ``data.json`` with per-turn belief annotations plus the published
dev/test id lists. Only the five supported domains are kept; slot names are
normalized to ``"<domain>-<slot>"`` and values to the converter's conventions.
"""

from __future__ import annotations

import io
import json
import logging
import math
import os
import random
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .destate import reserved_collisions
from .errors import CorpusError, ProtocolError, StateValidationError
from .ontology import DOMAIN_NAMES as SUPPORTED_DOMAINS
from .ontology import DONTCARE, DialogueState, Ontology, TemplateConfig, clean_value
from .summarize import synthesize_labels

log = logging.getLogger(__name__)

RATIOS = (0.01, 0.05, 0.10, 1.00)
MODES = {"cd": "cross_domain", "ct": "cross_task", "md": "multi_domain"}

_NONE_VALUES = {"", "none", "not mentioned", "not-mentioned"}
_DONTCARE_VALUES = {
    "dontcare", "dont care", "don't care", "do n't care", "do not care",
    "doesnt care", "doesn't care",
}
_SLOT_ALIASES = {"leave at": "leaveat", "arrive by": "arriveby", "price range": "pricerange"}
_CHUNK = 1 << 16  # characters of data.json read at a time


@dataclass
class Dialogue:
    """``states[i]`` is the cumulative belief state after user turn ``i``; a state equal to the
    previous one, in the same key order, is the previous turn's object, so states are read-only.
    ``history`` is the whole dialogue, two lines per turn joined by newlines: ``"system: …"``
    (the reply before it) then ``"user: …"``. ``ends[i]`` is the length of turn ``i``'s
    history, so that history is ``history[: ends[i]]``."""

    dialogue_id: str
    states: list[DialogueState]
    history: str
    ends: tuple[int, ...]
    domains: frozenset[str]


@dataclass
class Corpus:
    splits: dict[str, list[Dialogue]]
    diagnostics: list[str] = field(default_factory=list)

    @property
    def train(self) -> list[Dialogue]:
        return self.splits.get("train", [])

    def dialogue_map(self) -> dict[str, Dialogue]:
        return {d.dialogue_id: d for split in self.splits.values() for d in split}


@dataclass
class FewShotSplit:
    """A deterministic few-shot sampling of training dialogues."""

    mode: str
    target_domain: str | None
    ratio: float
    seed: int
    pretrain_ids: list[str]
    finetune_ids: list[str]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "target_domain": self.target_domain,
            "ratio": self.ratio,
            "seed": self.seed,
            "n_pretrain": len(self.pretrain_ids),
            "n_finetune": len(self.finetune_ids),
            "pretrain_ids": self.pretrain_ids,
            "finetune_ids": self.finetune_ids,
        }


@dataclass(slots=True)
class PredictionRecord:
    """One model output, joined to a corpus turn by (dialogue_id, turn_index)."""

    dialogue_id: str
    turn_index: int
    predicted_summary: str


@contextmanager
def _open_atomic(path: str | Path):
    """Yield a text handle on ``<path>.tmp``; on success the temp file replaces
    ``path``, on any failure it is deleted, so readers never see a partial."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_atomic(path: str | Path, text: str) -> None:
    """Write a small text file via temp + rename so readers never see a partial."""
    with _open_atomic(path) as handle:
        handle.write(text)


# -- raw archive loading -----------------------------------------------------


def normalize_raw_value(raw, slot_name: str = "") -> str | None:
    """Map a raw annotation value to a stored value, or None for absence."""
    if isinstance(raw, list):
        raw = raw[0] if raw else ""
    if not isinstance(raw, str):
        return None
    value = clean_value(raw.lower())
    if value in _NONE_VALUES:
        return None
    if value in _DONTCARE_VALUES:
        return DONTCARE
    if slot_name in ("hotel-parking", "hotel-internet") and value == "free":
        return "yes"
    return value or None


def _state_from_metadata(metadata: dict, memo: dict) -> DialogueState:
    state: DialogueState = {}
    for domain in SUPPORTED_DOMAINS:
        annotation = metadata.get(domain)
        if not isinstance(annotation, dict):
            continue
        for block, infix in (("semi", ""), ("book", "book ")):
            entries = annotation.get(block) or {}
            if not isinstance(entries, dict):
                raise CorpusError(f"{domain} {block} block is not an object")
            for raw_key, raw_value in entries.items():
                if raw_key == "booked":
                    continue
                # Most raw values are exact blanks, which normalize to None.
                is_text = isinstance(raw_value, str)
                if is_text and raw_value in _NONE_VALUES:
                    continue
                entry = (domain, infix, raw_key, raw_value)
                found = memo.get(entry) if is_text else None
                if found is None:
                    key = str(raw_key).lower()
                    key = _SLOT_ALIASES.get(key, key)
                    slot_name = f"{domain}-{infix}{key}"
                    found = slot_name, normalize_raw_value(raw_value, slot_name)
                    if is_text:
                        memo[entry] = found
                slot_name, value = found
                if value is not None:
                    state[slot_name] = value
    return state


def _goal_domains(goal: dict, memo: dict) -> frozenset[str]:
    domains = frozenset(d for d in SUPPORTED_DOMAINS if goal.get(d))
    return memo.setdefault(domains, domains)


def _build_dialogue(dialogue_id: str, raw: dict, memo: dict) -> Dialogue:
    if not isinstance(raw, dict):
        raise CorpusError("record is not an object")
    goal = raw.get("goal")
    logturns = raw.get("log")
    if not isinstance(goal, dict) or not isinstance(logturns, list) or not logturns:
        raise CorpusError("missing goal or log")
    if len(logturns) % 2 != 0:
        raise CorpusError(f"odd number of log entries ({len(logturns)})")

    states, lines, ends, end = [], [], [], -1  # -1: no newline goes before the first line
    for index in range(len(logturns) // 2):
        user = logturns[2 * index]
        system_reply = logturns[2 * index + 1]
        if not isinstance(user, dict) or not isinstance(system_reply, dict):
            raise CorpusError(f"turn {index}: log entry is not an object")
        if "text" not in user or "text" not in system_reply:
            raise CorpusError(f"turn {index}: log entry without text")
        metadata = system_reply.get("metadata") or {}
        if not isinstance(metadata, dict):
            raise CorpusError(f"turn {index}: metadata is not an object")
        lines.append(f"system: {logturns[2 * index - 1]['text']}" if index else "system: ")
        lines.append(f"user: {user['text']}")
        end += len(lines[-2]) + len(lines[-1]) + 2
        ends.append(end)
        state = _state_from_metadata(metadata, memo)
        if states and state == states[-1] and list(state) == list(states[-1]):
            state = states[-1]  # same key order too: shuffled and flat labels follow it
        states.append(state)
    return Dialogue(dialogue_id, states, "\n".join(lines), tuple(ends), _goal_domains(goal, memo))


@contextmanager
def _open_archive(path: Path):
    """Yield (a text handle on ``data.json``, dev ids, test ids) from a directory or zip archive."""
    with ExitStack() as stack:
        if path.is_dir():
            names = {p.name: p for p in sorted(path.rglob("*")) if p.is_file()}
            open_binary = lambda target: open(target, "rb")
        elif zipfile.is_zipfile(path):
            archive = stack.enter_context(zipfile.ZipFile(path))
            names = {os.path.basename(n): n for n in archive.namelist() if os.path.basename(n)}
            open_binary = archive.open
        else:
            raise CorpusError(f"{path}: not a corpus directory or zip archive")
        required = {key: names[name] for key, name in _locate(names).items()}

        def id_list(key: str) -> list[str]:
            with open_binary(required[key]) as raw:
                lines = raw.read().decode("utf-8").splitlines()
            return [line.strip() for line in lines if line.strip()]

        # newline="": json.loads error positions count the file's own characters.
        with io.TextIOWrapper(open_binary(required["data"]), encoding="utf-8", newline="") as text:
            yield text, id_list("val"), id_list("test")


def _locate(names) -> dict[str, str]:
    found = {}
    for name in names:
        lower = name.lower()
        if lower == "data.json":
            found["data"] = name
        elif lower.startswith("vallistfile"):
            found["val"] = name
        elif lower.startswith("testlistfile"):
            found["test"] = name
    missing = [k for k in ("data", "val", "test") if k not in found]
    if missing:
        raise CorpusError(f"archive is missing file(s): {', '.join(missing)}")
    return found


def _records(handle, path: Path):
    """Yield the (dialogue id, raw record) pairs of the JSON object in the text ``handle``
    in file order, reading ``_CHUNK`` characters and decoding one record at a time. Text
    that is not one well-formed JSON object raises what ``json.loads`` raises on the whole
    text, or CorpusError if it is valid JSON of another type."""
    decode, white = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE.match
    text, pos, more = "", 0, True

    def step(parse):
        """Move ``pos`` past ``parse(text, pos) -> (value, end)`` and return the value. While
        it stops within 2 characters of the buffer's end (a number may go on) or fails as cut
        text does (within 10 characters of it, or an unterminated string), drop the consumed
        text, read a chunk (or the kept length, if longer) and retry; other failures raise."""
        nonlocal text, pos, more
        while True:
            try:
                value, end = parse(text, pos)
                if end + 2 < len(text) or not more:
                    pos = end
                    return value
            except json.JSONDecodeError as exc:
                if not more or exc.pos + 10 < len(text) and not exc.msg.startswith("Unterminated"):
                    raise
            chunk = handle.read(max(_CHUNK, len(text) - pos))
            text, pos, more = text[pos:] + chunk, 0, bool(chunk)

    def skip(offset=0) -> str:
        """Move ``pos`` past ``offset`` characters and the whitespace after them;
        return the next character, or "" at the end of the file."""
        nonlocal pos
        pos += offset
        step(lambda text, start: (None, white(text, start).end()))
        return text[pos:pos + 1]

    closed = False
    try:
        if skip() == "{":
            closed = skip(1) == "}"
            while not closed and text.startswith('"', pos):
                key = step(decode)
                if skip() != ":":
                    break
                skip(1)
                yield key, step(decode)
                after = skip()
                closed = after == "}"
                if after != ",":
                    break
                skip(1)
        if closed and skip(1) == "":
            return
    except json.JSONDecodeError:
        pass
    handle.seek(0)
    json.loads(handle.read())  # raises json's own error for malformed text
    raise CorpusError(f"{path}: data.json is not an object of dialogue records")


def load_multiwoz(path: str | Path) -> Corpus:
    """Load a raw archive into per-split dialogues with normalized states.

    Dialogues annotated only with unsupported domains are dropped; malformed records are
    skipped and counted in the corpus diagnostics. ``data.json`` is read in 64 KiB chunks and
    decoded one dialogue record at a time, each dropped once its dialogue is built, so only one
    chunk of text, one raw record and the corpus are alive. Each distinct annotation entry is
    normalized once per load, and states share its strings. A repeated dialogue id keeps its
    first position and its last record, as in the dict ``json.loads`` builds.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"{path}: no such file or directory")
    built: dict[str, Dialogue | str] = {}  # a str is the diagnostic of a skipped record
    memo: dict = {}  # (domain, infix, raw key, raw text) -> (slot, value); domain set -> itself
    with _open_archive(path) as (handle, dev_ids, test_ids):
        for dialogue_id, raw in _records(handle, path):
            try:
                built[dialogue_id] = _build_dialogue(dialogue_id, raw, memo)
            except CorpusError as exc:
                built[dialogue_id] = f"{dialogue_id}: skipped ({exc})"

    diagnostics: list[str] = []
    splits: dict[str, list[Dialogue]] = {"train": [], "dev": [], "test": []}
    dev_set, test_set = set(dev_ids), set(test_ids)
    dropped = 0
    for dialogue_id, dialogue in built.items():
        if isinstance(dialogue, str):
            diagnostics.append(dialogue)
            continue
        if not dialogue.domains:
            dropped += 1
            continue
        if dialogue_id in test_set:
            splits["test"].append(dialogue)
        elif dialogue_id in dev_set:
            splits["dev"].append(dialogue)
        else:
            splits["train"].append(dialogue)
    if dropped:
        diagnostics.append(f"dropped {dropped} dialogues with no supported domain")
    log.info(
        "loaded %s: train=%d dev=%d test=%d (%d diagnostics)",
        path, len(splits["train"]), len(splits["dev"]), len(splits["test"]),
        len(diagnostics),
    )
    return Corpus(splits=splits, diagnostics=diagnostics)


def domain_counts(dialogues: list[Dialogue]) -> dict[str, tuple[int, int]]:
    """Per domain: (single-domain dialogues, dialogues containing the domain)."""
    counts = {}
    for domain in SUPPORTED_DOMAINS:
        total = sum(1 for d in dialogues if domain in d.domains)
        single = sum(1 for d in dialogues if d.domains == frozenset([domain]))
        counts[domain] = (single, total)
    return counts


# -- few-shot sampling ---------------------------------------------------------


def sample_fewshot(
    corpus: Corpus,
    mode: str,
    target_domain: str | None = None,
    ratio: float = 0.01,
    seed: int = 0,
) -> FewShotSplit:
    """Sample fine-tuning dialogues by a deterministic seeded shuffle.

    ``mode`` is ``cd``, ``ct`` or ``md``; the split records its long name.
    Eligible dialogues are those containing the target domain (cross-domain
    and cross-task modes) or the whole training set (multi-domain mode);
    cross-domain additionally keeps every non-target dialogue for pretraining.
    The fine-tune split takes ``ratio`` of the eligible pool, rounded half up;
    a split of zero dialogues raises ProtocolError.
    """
    if mode not in MODES:
        raise ProtocolError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    mode = MODES[mode]
    if not any(math.isclose(ratio, r) for r in RATIOS):
        raise ProtocolError(f"ratio {ratio} is not one of {RATIOS}")
    train = corpus.train
    if mode == "multi_domain":
        if target_domain is not None:
            raise ProtocolError("multi_domain mode takes no target domain")
        eligible = list(train)
        pretrain_ids: list[str] = []
    else:
        if target_domain not in SUPPORTED_DOMAINS:
            raise ProtocolError(f"target domain required, one of {SUPPORTED_DOMAINS}")
        eligible = [d for d in train if target_domain in d.domains]
        pretrain_ids = (
            [d.dialogue_id for d in train if target_domain not in d.domains]
            if mode == "cross_domain"
            else []
        )

    size = math.floor(ratio * len(eligible) + 0.5)  # round half up
    if size == 0:  # an empty pool too
        raise ProtocolError(
            f"ratio {ratio} selects none of {len(eligible)} eligible dialogues"
            f" for {target_domain or mode}"
        )
    ids = [d.dialogue_id for d in eligible]
    random.Random(seed).shuffle(ids)
    return FewShotSplit(
        mode=mode,
        target_domain=target_domain,
        ratio=ratio,
        seed=seed,
        pretrain_ids=pretrain_ids,
        finetune_ids=ids[:size],
    )


# -- training-label export -----------------------------------------------------


def export_training_file(
    split: FewShotSplit,
    corpus: Corpus,
    ontology: Ontology,
    cfg: TemplateConfig = TemplateConfig(),
    out: str | Path = "train.jsonl",
    diagnostics: list[str] | None = None,
) -> int:
    """Write one JSONL record per turn of the split's dialogues.

    A turn is written only if its label parses back to its state under ``cfg``
    (see ``reserved_collisions``); other turns are skipped and reported rather
    than written corrupted. A dialogue with a state the schema rejects is
    skipped whole, with one diagnostic naming the violations.
    Returns the number of records written; on failure no partial file is left.
    """
    diags = diagnostics if diagnostics is not None else []
    by_id = corpus.dialogue_map()
    roles = {did: "pretrain" for did in split.pretrain_ids}
    roles.update({did: "finetune" for did in split.finetune_ids})
    missing = sorted(did for did in roles if did not in by_id)
    if missing:
        raise CorpusError(f"split references unknown dialogues: {', '.join(missing[:5])}")

    written = 0
    with _open_atomic(out) as handle:
        for dialogue_id in sorted(roles):
            dialogue = by_id[dialogue_id]
            try:
                labels = synthesize_labels(dialogue, ontology, cfg, split.seed)
            except StateValidationError as exc:
                diags.append(f"{dialogue_id}: skipped, {exc}")
                continue
            previous = None
            for index, (state, label) in enumerate(zip(dialogue.states, labels)):
                # A state often stays put for several turns; its verdict then holds too.
                if (label, state) != previous:
                    previous = (label, state)
                    collisions = reserved_collisions(state, ontology, cfg, label)
                if collisions:
                    diags.append(f"{dialogue_id}/{index}: skipped, {'; '.join(collisions)}")
                    continue
                record = {
                    "dialogue_id": dialogue_id,
                    "turn_index": index,
                    "split_role": roles[dialogue_id],
                    "history": dialogue.history[: dialogue.ends[index]],
                    "gold_summary": label,
                    "gold_state": state,
                }
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                written += 1
    skipped = sum(len(by_id[did].states) for did in roles) - written
    if skipped > 0:
        log.info("export skipped %d turns", skipped)
    return written


# -- prediction files ------------------------------------------------------------


def load_predictions(
    path: str | Path,
    diagnostics: list[str] | None = None,
) -> list[PredictionRecord]:
    """Read {dialogue_id, turn_index, predicted_summary} JSONL records.

    Duplicate (dialogue_id, turn_index) keys keep the last record and emit a
    diagnostic; a missing field, a ``turn_index`` that is neither an integer
    nor a string of digits, or a ``dialogue_id`` or ``predicted_summary`` that
    is not a string, raises with its line number.
    """
    diags = diagnostics if diagnostics is not None else []
    records: dict[tuple[str, int], PredictionRecord] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: invalid JSON ({exc})") from exc
            if not isinstance(payload, dict):
                raise CorpusError(f"line {line_no}: expected a JSON object")
            for key in ("dialogue_id", "turn_index", "predicted_summary"):
                if key not in payload:
                    raise CorpusError(f"line {line_no}: missing {key!r}")
            turn_index = payload["turn_index"]
            if isinstance(turn_index, str) and turn_index.isascii() and turn_index.isdigit():
                turn_index = int(turn_index)
            if type(turn_index) is not int:  # a bool is an int, but not a turn index
                raise CorpusError(f"line {line_no}: turn_index is not an integer")
            for key in ("dialogue_id", "predicted_summary"):
                if not isinstance(payload[key], str):
                    raise CorpusError(f"line {line_no}: {key} is not a string")
            record = PredictionRecord(
                dialogue_id=payload["dialogue_id"],
                turn_index=turn_index,
                predicted_summary=payload["predicted_summary"],
            )
            key = (record.dialogue_id, record.turn_index)
            if key in records:
                diags.append(f"line {line_no}: duplicate record for {key}, last wins")
            records[key] = record
    return list(records.values())
