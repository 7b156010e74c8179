import copy
import gc
import json
import logging
import re
import time
import tracemalloc
import zipfile

import pytest

from statesum import (
    DONTCARE,
    CorpusError,
    ProtocolError,
    TemplateConfig,
    domain_counts,
    evaluate_run,
    export_training_file,
    load_multiwoz,
    load_predictions,
    sample_fewshot,
)
from statesum import corpus as corpus_module
from statesum.corpus import (
    SUPPORTED_DOMAINS,
    Corpus,
    Dialogue,
    _state_from_metadata,
    normalize_raw_value,
)
from statesum.cli import run
from statesum.destate import parse_summary, reserved_collisions
from statesum.summarize import synthesize_labels

from conftest import FIXTURE_CORPUS, write_off_schema_corpus

GOLDEN_EVAL = FIXTURE_CORPUS.parent / "golden_eval"


def synthetic_corpus(counts: dict[str, int]) -> Corpus:
    """A train split with the requested number of single-domain dialogues."""
    dialogues = []
    for domain, n in counts.items():
        for i in range(n):
            dialogues.append(
                Dialogue(
                    dialogue_id=f"{domain}-{i:05d}.json",
                    states=[],
                    history="",
                    ends=(),
                    domains=frozenset([domain]),
                )
            )
    return Corpus(splits={"train": dialogues, "dev": [], "test": []})


# -- loading -------------------------------------------------------------------


def test_split_assignment(mini_corpus):
    ids = {k: [d.dialogue_id for d in v] for k, v in mini_corpus.splits.items()}
    assert ids["dev"] == ["PMUL0002.json"]
    assert ids["test"] == ["SNG0006.json"]
    assert len(ids["train"]) == 7


def test_unsupported_domain_dropped(mini_corpus):
    assert "SNG0005.json" not in mini_corpus.dialogue_map()
    assert any("dropped 1" in d for d in mini_corpus.diagnostics)


def test_domain_counts(mini_corpus):
    assert domain_counts(mini_corpus.train) == {
        "attraction": (1, 1),
        "hotel": (0, 1),
        "restaurant": (2, 3),
        "taxi": (1, 2),
        "train": (1, 2),
    }


def test_states_are_cumulative(mini_corpus):
    dialogue = mini_corpus.dialogue_map()["PMUL0001.json"]
    for earlier, later in zip(dialogue.states, dialogue.states[1:]):
        assert set(earlier) <= set(later)


def test_value_normalization(mini_corpus):
    by_id = mini_corpus.dialogue_map()
    attraction = by_id["SNG0001.json"].states[-1]
    assert attraction["attraction-area"] == "center"  # "Center " in the raw file
    hotel = by_id["PMUL0001.json"].states[1]
    assert hotel["hotel-area"] == DONTCARE  # "do n't care" in the raw file
    booked = by_id["SNG0006.json"].states[-1]
    assert booked["hotel-parking"] == "yes"  # "free" in the raw file
    assert booked["hotel-book people"] == "6"
    noise = by_id["SNG0007.json"].states[0]
    assert noise == {"restaurant-food": "chinese"}  # "", none, not mentioned dropped


def test_normalize_raw_value():
    assert normalize_raw_value("Not Mentioned") is None
    assert normalize_raw_value("do n't care") == DONTCARE
    assert normalize_raw_value("Meze Bar, Centre.") == "meze bar centre"
    assert normalize_raw_value(["cheap"]) == "cheap"
    assert normalize_raw_value([]) is None
    assert normalize_raw_value("free", "hotel-parking") == "yes"
    assert normalize_raw_value("free", "restaurant-food") == "free"


def test_blank_value_skip_changes_no_state():
    # Every raw value shape, in both blocks of two domains, against a reference
    # that sends each value through normalize_raw_value.
    semi = {
        "name": "", "area": "none", "food": "not mentioned", "type": "not-mentioned",
        "pricerange": "Not Mentioned", "stars": " none ", "department": "None",
        "leaveAt": ["not mentioned"], "arriveBy": [], "destination": None,
        "departure": 3, "parking": "free", "internet": "Free", "day": "Don't Care",
        "price range": "cheap", "leave at": ["11:30", "12:00"], "Arrive By": " 10:15. ",
    }
    book = {
        "booked": [{"name": "x", "reference": "ABC"}], "people": "3", "day": "",
        "stay": "not mentioned", "time": "Not-Mentioned", "Ref": ["none"], "stars": 4,
    }
    metadata = {
        "hotel": {"semi": semi, "book": book},
        "train": {"semi": dict(reversed(semi.items())), "book": dict(reversed(book.items()))},
        "police": {"semi": {"area": "centre"}},
    }
    expected = {}
    for domain in SUPPORTED_DOMAINS:
        annotation = metadata.get(domain, {})
        for raw_key, raw_value in annotation.get("semi", {}).items():
            key = raw_key.lower()
            key = corpus_module._SLOT_ALIASES.get(key, key)
            value = normalize_raw_value(raw_value, f"{domain}-{key}")
            if value is not None:
                expected[f"{domain}-{key}"] = value
        for raw_key, raw_value in annotation.get("book", {}).items():
            if raw_key != "booked":
                value = normalize_raw_value(raw_value, f"{domain}-book {raw_key.lower()}")
                if value is not None:
                    expected[f"{domain}-book {raw_key.lower()}"] = value
    state = _state_from_metadata(metadata, {})
    assert list(state.items()) == list(expected.items())
    assert state["hotel-parking"] == "yes" and state["hotel-internet"] == "yes"
    assert state["hotel-day"] == DONTCARE and state["hotel-book people"] == "3"
    assert state["hotel-pricerange"] == state["train-pricerange"] == "cheap"
    assert state["hotel-leaveat"] == "11:30" and "hotel-stars" not in state


def _record(*metadatas, goal=("restaurant",)) -> dict:
    """A raw dialogue record with one user turn per system ``metadata``."""
    log = []
    for metadata in metadatas:
        log += [{"text": "hi", "metadata": {}}, {"text": "ok", "metadata": metadata}]
    return {"goal": {domain: {"info": {"x": "y"}} for domain in goal}, "log": log}


def test_equal_annotation_entries_share_one_key_and_one_value(tmp_path):
    chinese = {"restaurant": {"semi": {"food": "chinese", "area": ""}}}
    records = {f"R{i:03d}.json": _record(chinese, chinese) for i in range(200)}
    same = {
        "hotel": {"semi": {"parking": "free"}, "book": {"parking": "free"}},
        "taxi": {"semi": {"leaveAt": "10:15", "arriveBy": "10:15"}},
    }
    records["MIX.json"] = _record(
        {"restaurant": {"semi": {"food": "free", "pricerange": "Cheap"}}, **same},
        {"restaurant": {"semi": {"food": "free", "pricerange": "cheap"}}, **same},
        goal=("restaurant", "hotel"),
    )
    by_id = load_multiwoz(_write_archive(tmp_path, json.dumps(records))).dialogue_map()
    states = [state for i in range(200) for state in by_id[f"R{i:03d}.json"].states]
    assert len(states) == 400 and all(state == {"restaurant-food": "chinese"} for state in states)
    assert len({id(key) for state in states for key in state}) == 1
    assert len({id(value) for state in states for value in state.values()}) == 1
    first, second = by_id["MIX.json"].states
    assert first["hotel-parking"] == second["hotel-parking"] == "yes"  # the memo is per slot
    assert first["hotel-book parking"] == second["hotel-book parking"] == "free"
    assert first["taxi-leaveat"] == first["taxi-arriveby"] == "10:15"
    assert first["restaurant-food"] == second["restaurant-food"] == "free"
    assert first["restaurant-pricerange"] == second["restaurant-pricerange"] == "cheap"


def test_an_unchanged_state_is_the_previous_turns_object(tmp_path):
    food = {"restaurant": {"semi": {"food": "chinese"}}}
    both = {"restaurant": {"semi": {"food": "chinese", "area": "north"}}}
    flipped = {"restaurant": {"semi": {"area": "north", "food": "chinese"}}}
    records = {
        "A.json": _record(food, food, both, flipped, flipped, food),
        "B.json": _record(food),
        "C.json": _record(food, goal=("hotel", "restaurant")),
        "D.json": _record(food, goal=("restaurant", "hotel")),
    }
    by_id = load_multiwoz(_write_archive(tmp_path, json.dumps(records))).dialogue_map()
    states = by_id["A.json"].states
    assert states[1] is states[0]  # equal, in the same key order
    assert states[2] is not states[1] and states[2] == {
        "restaurant-food": "chinese", "restaurant-area": "north"
    }
    # Shuffled and flat labels follow the key order, so a reordered state is its own.
    assert states[3] == states[2] and states[3] is not states[2]
    assert list(states[3]) == ["restaurant-area", "restaurant-food"]
    assert list(states[2]) == ["restaurant-food", "restaurant-area"]
    assert states[4] is states[3]
    assert states[5] == states[0] and states[5] is not states[0]  # only the previous turn counts
    assert by_id["A.json"].domains is by_id["B.json"].domains == frozenset({"restaurant"})
    assert by_id["C.json"].domains is by_id["D.json"].domains == frozenset({"hotel", "restaurant"})
    assert all(dialogue.history.startswith("system: \nuser: ") for dialogue in by_id.values())


@pytest.mark.parametrize("enabled_before", [True, False])
def test_load_restores_collector_state(enabled_before):
    try:
        if enabled_before:
            gc.enable()
        else:
            gc.disable()
        load_multiwoz(FIXTURE_CORPUS)
        assert gc.isenabled() is enabled_before
    finally:
        gc.enable()


def test_failed_load_restores_collector_state(tmp_path):
    # Only data.json: the archive check raises before any record is decoded.
    (tmp_path / "data.json").write_text("{}")
    assert gc.isenabled()
    with pytest.raises(CorpusError, match="missing"):
        load_multiwoz(tmp_path)
    assert gc.isenabled()


def test_history_format(mini_corpus, ont, tmp_path):
    dialogue = mini_corpus.dialogue_map()["PMUL0001.json"]
    assert len(dialogue.history.split("\n")) == 2 * len(dialogue.states)
    assert len(dialogue.ends) == len(dialogue.states) and dialogue.ends[-1] == len(dialogue.history)
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    export_training_file(split, mini_corpus, ont, out=out)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    (record,) = [r for r in records if (r["dialogue_id"], r["turn_index"]) == ("PMUL0001.json", 1)]
    lines = record["history"].splitlines()
    assert record["history"] == dialogue.history[: dialogue.ends[1]]
    assert lines == dialogue.history.split("\n")[:4]
    assert lines[0] == "system: "
    assert lines[1].startswith("user: ")
    assert lines[2] == "system: plenty of options, any area?"
    assert len(lines) == 4


def test_history_keeps_newlines_inside_utterances(ont, tmp_path):
    # A newline or a "system: " inside an utterance is text, not a turn boundary.
    train = {"train": {"semi": {"destination": "cambridge"}}}
    log = [
        {"text": "i need\na train", "metadata": {}},
        {"text": "where to?\nany day", "metadata": train},
        {"text": "to cambridge\nsystem: on monday", "metadata": {}},
        {"text": "ok", "metadata": train},
        {"text": "thanks\n", "metadata": {}},
        {"text": "bye", "metadata": train},
    ]
    records = {"NL.json": {"goal": {"train": {"info": {"x": "y"}}}, "log": log}}
    corpus = load_multiwoz(_write_archive(tmp_path, json.dumps(records)))
    dialogue = corpus.dialogue_map()["NL.json"]
    assert len(dialogue.ends) == len(dialogue.states) == 3
    assert dialogue.ends[-1] == len(dialogue.history)
    out = tmp_path / "labels.jsonl"
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    assert export_training_file(split, corpus, ont, out=out) == 3
    histories = [json.loads(line)["history"] for line in out.read_text("utf-8").splitlines()]
    assert histories == [
        "system: \nuser: i need\na train",
        "system: \nuser: i need\na train\nsystem: where to?\nany day"
        "\nuser: to cambridge\nsystem: on monday",
        "system: \nuser: i need\na train\nsystem: where to?\nany day"
        "\nuser: to cambridge\nsystem: on monday\nsystem: ok\nuser: thanks\n",
    ]


def test_zip_archive_loading(tmp_path):
    archive = tmp_path / "corpus.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for name in ("data.json", "valListFile.json", "testListFile.json"):
            zf.write(FIXTURE_CORPUS / name, f"MULTIWOZ2.1/{name}")
    corpus = load_multiwoz(archive)
    assert len(corpus.train) == 7


def test_missing_file_is_an_error(tmp_path):
    (tmp_path / "data.json").write_text("{}")
    with pytest.raises(CorpusError, match="missing"):
        load_multiwoz(tmp_path)


def test_nonexistent_path_rejected(tmp_path):
    with pytest.raises(CorpusError):
        load_multiwoz(tmp_path / "nowhere")
    (tmp_path / "data.json").write_text("{}")
    with pytest.raises(CorpusError, match="not a corpus directory or zip archive"):
        load_multiwoz(tmp_path / "data.json")


def test_malformed_dialogue_skipped(tmp_path):
    data = {
        "BAD0001.json": {"goal": {"taxi": {"info": {}}}, "log": [{"text": "hi", "metadata": {}}]},
        "OK0001.json": json.loads((FIXTURE_CORPUS / "data.json").read_text())["SNG0002.json"],
    }
    (tmp_path / "data.json").write_text(json.dumps(data))
    (tmp_path / "valListFile.json").write_text("")
    (tmp_path / "testListFile.json").write_text("")
    corpus = load_multiwoz(tmp_path)
    assert [d.dialogue_id for d in corpus.train] == ["OK0001.json"]
    assert any("BAD0001" in d for d in corpus.diagnostics)


def test_non_object_entries_skipped(tmp_path):
    raw = json.loads((FIXTURE_CORPUS / "data.json").read_text())
    good = raw["SNG0002.json"]

    def with_log_entry(position, entry):
        return {**good, "log": [*good["log"][:position], entry, *good["log"][position + 1:]]}

    data = {
        "BAD0001.json": [1, 2],
        "BAD0002.json": with_log_entry(0, 5),
        "BAD0003.json": with_log_entry(1, "text"),
        "BAD0004.json": with_log_entry(1, {**good["log"][1], "metadata": [1]}),
        "BAD0005.json": with_log_entry(
            1, {**good["log"][1], "metadata": {"hotel": {"semi": ["area"]}}}
        ),
        "BAD0006.json": with_log_entry(
            1, {**good["log"][1], "metadata": {"taxi": {"book": ["booked"]}}}
        ),
        "BAD0007.json": with_log_entry(1, {"metadata": good["log"][1]["metadata"]}),
        "OK0001.json": good,
    }
    (tmp_path / "data.json").write_text(json.dumps(data))
    (tmp_path / "valListFile.json").write_text("")
    (tmp_path / "testListFile.json").write_text("")
    corpus = load_multiwoz(tmp_path)
    assert [d.dialogue_id for d in corpus.train] == ["OK0001.json"]
    assert corpus.diagnostics == [
        "BAD0001.json: skipped (record is not an object)",
        "BAD0002.json: skipped (turn 0: log entry is not an object)",
        "BAD0003.json: skipped (turn 0: log entry is not an object)",
        "BAD0004.json: skipped (turn 0: metadata is not an object)",
        "BAD0005.json: skipped (hotel semi block is not an object)",
        "BAD0006.json: skipped (taxi book block is not an object)",
        "BAD0007.json: skipped (turn 0: log entry without text)",
    ]


def test_non_object_data_file_is_an_error(tmp_path):
    (tmp_path / "data.json").write_text("[]")
    (tmp_path / "valListFile.json").write_text("")
    (tmp_path / "testListFile.json").write_text("")
    with pytest.raises(CorpusError, match="not an object"):
        load_multiwoz(tmp_path)


def _fixture_records() -> dict:
    return json.loads((FIXTURE_CORPUS / "data.json").read_text())


def _object_text(pairs, separator=", ") -> str:
    """A JSON object of ``pairs`` written member by member, so ids may repeat."""
    return "{" + separator.join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def _write_archive(root, text, layout="dir"):
    """An archive with ``text`` (str or bytes) as data.json and the fixture's id lists."""
    files = {"data.json": text if isinstance(text, bytes) else text.encode("utf-8")}
    for name in ("valListFile.json", "testListFile.json"):
        files[name] = (FIXTURE_CORPUS / name).read_bytes()
    if layout == "zip":
        archive = root / "corpus.zip"
        with zipfile.ZipFile(archive, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, data in files.items():
                zf.writestr(f"MULTIWOZ2.1/{name}", data)
        return archive
    directory = root / "corpus"
    directory.mkdir(parents=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    return directory


@pytest.mark.parametrize("text", ["{}", " \n{ \r\n\t}\n "])
def test_empty_object_loads_an_empty_corpus(tmp_path, text):
    corpus = load_multiwoz(_write_archive(tmp_path, text))
    assert corpus.splits == {"train": [], "dev": [], "test": []}
    assert corpus.diagnostics == []


def _whitespace_text() -> str:
    """The fixture records with JSON whitespace of every kind around each token."""
    members = ",\n\t".join(
        f" {json.dumps(k)} \r\n:\n{json.dumps(v, indent=1)} "
        for k, v in _fixture_records().items()
    )
    return "\n \t\r\n{\n" + members + "\n}\n\n "


def _repeated_id_text() -> str:
    """The fixture records with ids 0, 2 and 3 repeated, ids 0 and 2 once as bad records."""
    records = _fixture_records()
    ids = list(records)
    bad = {"goal": {}, "log": []}
    return _object_text([
        (ids[0], bad), *((i, records[i]) for i in ids[1:5]), (ids[0], records[ids[0]]),
        (ids[2], bad), *((i, records[i]) for i in ids[5:]), (ids[3], records[ids[1]]),
    ])


def test_whitespace_around_records_is_accepted(mini_corpus, tmp_path):
    assert load_multiwoz(_write_archive(tmp_path, _whitespace_text())) == mini_corpus


def test_repeated_id_keeps_first_position_and_last_record(tmp_path):
    ids = list(_fixture_records())
    text = _repeated_id_text()
    corpus = load_multiwoz(_write_archive(tmp_path, text))
    reference = load_multiwoz(_write_archive(tmp_path / "ref", json.dumps(json.loads(text))))
    assert corpus == reference
    by_id = corpus.dialogue_map()
    assert ids[0] in by_id and ids[2] not in by_id
    assert by_id[ids[3]].states == by_id[ids[1]].states
    assert by_id[ids[3]].history == by_id[ids[1]].history
    assert by_id[ids[3]].ends == by_id[ids[1]].ends
    assert f"{ids[2]}: skipped (missing goal or log)" in corpus.diagnostics


_RECORD_PAIRS = list(_fixture_records().items())
_WHOLE_TEXT = _object_text(_RECORD_PAIRS)
_MALFORMED_TEXTS = {
    "truncated-mid-record": _WHOLE_TEXT[: len(_WHOLE_TEXT) // 2],
    "missing-comma": _object_text(_RECORD_PAIRS, separator=" "),
    "trailing-comma": _WHOLE_TEXT[:-1] + ",}",
    "extra-data": _WHOLE_TEXT + " {}",
    "utf8-bom": "\ufeff" + _WHOLE_TEXT,
    "array": "[]",
    "null": "null",
    "empty": "",
    "semicolon-for-colon": '{"A.json"; {}}',
    "semicolon-for-comma": '{"A.json": {}; "B.json": {}}',
    "non-string-key": "{1: {}}",
    "unclosed": "{",
    "crlf-extra-data": _object_text(_RECORD_PAIRS, separator=",\r\n") + "\r\n{}",
}


@pytest.mark.parametrize("layout", ["dir", "zip"])
@pytest.mark.parametrize("case", list(_MALFORMED_TEXTS))
def test_malformed_data_file_raises_what_json_loads_raises(tmp_path, case, layout):
    text = _MALFORMED_TEXTS[case]
    path = _write_archive(tmp_path, text, layout)
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        expected = (type(exc), str(exc))
    else:
        expected = (CorpusError, f"{path}: data.json is not an object of dialogue records")
    with pytest.raises(Exception) as info:
        load_multiwoz(path)
    assert (type(info.value), str(info.value)) == expected


# From near the start of data.json, past char 4096 and byte 8192 (TextIOWrapper's read size).
_MULTIBYTE_TEXT = "café € 😀 " * 600


def _multibyte_text() -> str:
    """The fixture records, the first user turn of the first one holding _MULTIBYTE_TEXT."""
    (dialogue_id, record), *rest = _fixture_records().items()
    log = [{**record["log"][0], "text": "MULTIBYTE"}, *record["log"][1:]]
    # Written raw, not as the \\u escapes json.dumps makes of it.
    text = _object_text([(dialogue_id, {**record, "log": log}), *rest]).replace(
        '"MULTIBYTE"', f'"{_MULTIBYTE_TEXT}"')
    start = text.index(_MULTIBYTE_TEXT)
    assert start < 4096 < start + len(_MULTIBYTE_TEXT)
    end = start + len(_MULTIBYTE_TEXT)
    assert len(text[:start].encode("utf-8")) < 8192 < len(text[:end].encode("utf-8"))
    return text


def _outcome(path):
    """The loaded corpus, or the type and message of what the load raised."""
    try:
        return load_multiwoz(path)
    except Exception as exc:
        return type(exc), str(exc)


_CHUNKED_TEXTS = {
    "mini": (FIXTURE_CORPUS / "data.json").read_text(encoding="utf-8"),
    "whitespace": _whitespace_text(),
    "repeated-id": _repeated_id_text(),
    "multibyte": _multibyte_text(),
    **{f"malformed-{case}": text for case, text in _MALFORMED_TEXTS.items()},
}


@pytest.mark.parametrize("layout", ["dir", "zip"])
@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("case", list(_CHUNKED_TEXTS))
def test_chunk_boundaries_change_no_result(tmp_path, monkeypatch, case, chunk, layout):
    path = _write_archive(tmp_path, _CHUNKED_TEXTS[case], layout)
    expected = _outcome(path)
    monkeypatch.setattr(corpus_module, "_CHUNK", chunk)
    assert _outcome(path) == expected
    if case == "multibyte":
        dialogue_id = next(iter(_fixture_records()))
        dialogue = load_multiwoz(path).dialogue_map()[dialogue_id]
        assert dialogue.history[: dialogue.ends[0]] == f"system: \nuser: {_MULTIBYTE_TEXT}"


@pytest.mark.parametrize("text", [
    '{"A.json": 1.5}',
    '{"A.json": 1.5e+3, "B.json": -0.25E-7}',
    '{"A.json": true, "B.json": null}',
    '{"A.json": [1.5], "B.json": "x"}',
])
def test_a_record_cut_at_any_chunk_boundary_loads_alike(tmp_path, monkeypatch, text):
    # raw_decode reads "1" of "1.5" as a whole number if the buffer ends after the ".".
    path = _write_archive(tmp_path, text)
    outcomes = []
    for chunk in range(1, len(text) + 2):
        monkeypatch.setattr(corpus_module, "_CHUNK", chunk)
        outcome = _outcome(path)
        if outcome not in outcomes:
            outcomes.append(outcome)
    assert len(outcomes) == 1, outcomes


def _invalid_utf8_archive(root, layout):
    """Eight copies of the fixture records with one byte 0xff in the last user text,
    past the first chunk of data.json."""
    records = _fixture_records()
    text = json.dumps({f"COPY{c}-{k}": v for c in range(8) for k, v in records.items()})
    cut = text.rindex('"text": "') + len('"text": "')
    head, tail = text[:cut].encode("utf-8"), text[cut:].encode("utf-8")
    assert len(head) > corpus_module._CHUNK
    return _write_archive(root, head + b"\xff" + tail, layout)


@pytest.mark.parametrize("layout", ["dir", "zip"])
def test_invalid_utf8_past_the_first_chunk_raises(tmp_path, layout):
    with pytest.raises(UnicodeDecodeError, match="can't decode byte 0xff"):
        load_multiwoz(_invalid_utf8_archive(tmp_path, layout))


@pytest.mark.parametrize("layout", ["dir", "zip"])
def test_export_of_invalid_utf8_exits_2_without_output(tmp_path, capsys, layout):
    (tmp_path / "in").mkdir()
    path = _invalid_utf8_archive(tmp_path / "in", layout)
    labels = tmp_path / "labels.jsonl"
    code = run(["export", "--corpus", str(path), "--mode", "md", "--ratio", "1.0",
                "--seed", "11", "--out", str(labels)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == [tmp_path / "in"]


def _copies_text() -> str:
    """100 copies of the fixture records, about 2 MB of data.json."""
    records = _fixture_records()
    return json.dumps({f"COPY{copy:03d}-{k}": v for copy in range(100) for k, v in records.items()})


def _load_peak(path) -> tuple[int, object]:
    """The tracemalloc peak of loading ``path``, and the load's outcome."""
    tracemalloc.start()
    try:
        outcome = _outcome(path)
        return tracemalloc.get_traced_memory()[1], outcome
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["dir", "zip"])
def test_load_peak_memory_is_at_most_the_file_size(tmp_path, layout):
    # Read one chunk and decoded one record at a time, only a chunk, one record and
    # the corpus are alive, and the corpus holds each distinct annotation string once.
    text = _copies_text()
    size = len(text.encode("utf-8"))
    assert size >= 2_000_000
    peak, corpus = _load_peak(_write_archive(tmp_path, text, layout))
    assert len(corpus.train) == 100 * 9
    assert peak <= 1.0 * size, f"peak {peak / size:.2f}x the file size"


@pytest.mark.parametrize("layout", ["dir", "zip"])
def test_a_syntax_error_inside_a_record_peaks_like_one_between_records(tmp_path, layout):
    # Both fall back to json.loads on the whole text; the error inside the first record
    # must not first read the rest of the file in ever larger retries.
    text = _copies_text()
    first_comma = text.index(', "COPY000-')
    inside = text.index('"log": [') + len('"log": [')
    assert inside < first_comma
    peaks = {}
    for case, bad in {
        "between": text[:first_comma] + " " + text[first_comma + 1:],
        "inside": text[:inside] + "," + text[inside:],
    }.items():
        (tmp_path / case).mkdir()
        peaks[case], outcome = _load_peak(_write_archive(tmp_path / case, bad, layout))
        assert outcome[0] is json.JSONDecodeError
    assert peaks["inside"] <= 1.1 * peaks["between"], peaks


def test_load_memory_is_linear_in_dialogue_length(tmp_path):
    # Each utterance is kept once; a copy of the history per turn would grow as
    # the square of the dialogue's length.
    record = _fixture_records()["SNG0001.json"]
    peak_per_byte = []
    for n_turns in (100, 400):
        text = json.dumps({"LONG.json": dict(record, log=record["log"][:2] * n_turns)})
        path = _write_archive(tmp_path / str(n_turns), text)
        tracemalloc.start()
        try:
            corpus = load_multiwoz(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(corpus.dialogue_map()["LONG.json"].states) == n_turns
        peak_per_byte.append(peak / len(text.encode("utf-8")))
    assert peak_per_byte[1] <= 1.1 * peak_per_byte[0], peak_per_byte


def test_an_unchanged_turn_holds_no_state_of_its_own(tmp_path):
    # 200 dialogues whose state never changes, at 10 and at 40 turns: an extra
    # turn holds its text in the history, one offset and one state slot, not a
    # state dict or line strings of its own.
    food = {"restaurant": {"semi": {"food": "chinese"}}}
    held = []
    for n_turns in (10, 40):
        records = {f"R{i:03d}.json": _record(*[food] * n_turns) for i in range(200)}
        path = _write_archive(tmp_path / str(n_turns), json.dumps(records))
        tracemalloc.start()
        try:
            corpus = load_multiwoz(path)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert sum(len(dialogue.states) for dialogue in corpus.train) == 200 * n_turns
        del corpus
    per_turn = (held[1] - held[0]) / (200 * 30)
    assert per_turn <= 100, f"{per_turn:.0f} B held per extra turn"


# -- few-shot sampling -----------------------------------------------------------


def test_sample_sizes_round_half_up():
    corpus = synthetic_corpus({"restaurant": 3813})
    split = sample_fewshot(corpus, "ct", "restaurant", ratio=0.01, seed=11)
    assert len(split.finetune_ids) == 38  # 38.13 rounds down
    split = sample_fewshot(corpus, "ct", "restaurant", ratio=0.05, seed=11)
    assert len(split.finetune_ids) == 191  # 190.65 rounds up


def test_sample_deterministic_and_seed_sensitive():
    corpus = synthetic_corpus({"hotel": 200, "train": 100})
    first = sample_fewshot(corpus, "ct", "hotel", ratio=0.10, seed=23)
    again = sample_fewshot(corpus, "ct", "hotel", ratio=0.10, seed=23)
    assert first.finetune_ids == again.finetune_ids
    other = sample_fewshot(corpus, "ct", "hotel", ratio=0.10, seed=47)
    assert set(first.finetune_ids) != set(other.finetune_ids)


def test_cross_domain_pools_are_disjoint():
    corpus = synthetic_corpus({"hotel": 50, "train": 50, "taxi": 50})
    split = sample_fewshot(corpus, "cd", "hotel", ratio=0.10, seed=11)
    assert len(split.finetune_ids) == 5
    assert len(split.pretrain_ids) == 100
    assert not set(split.finetune_ids) & set(split.pretrain_ids)
    assert all(did.startswith("hotel-") for did in split.finetune_ids)


def test_cross_task_has_no_pretrain():
    corpus = synthetic_corpus({"hotel": 50})
    split = sample_fewshot(corpus, "ct", "hotel", ratio=1.0, seed=11)
    assert split.pretrain_ids == []
    assert len(split.finetune_ids) == 50


def test_cross_task_full_ratio_takes_every_dialogue_with_the_domain(mini_corpus):
    full = sample_fewshot(mini_corpus, "ct", "restaurant", ratio=1.0, seed=11)
    assert len(full.finetune_ids) == 3


@pytest.mark.parametrize("mode, domain", [("md", None), ("ct", "restaurant"), ("cd", "hotel")])
def test_a_ratio_that_selects_no_dialogue_is_rejected(mini_corpus, mode, domain):
    # 1% of the mini corpus's pools rounds to zero dialogues.
    with pytest.raises(ProtocolError, match=r"ratio 0\.01 selects none of \d+ eligible"):
        sample_fewshot(mini_corpus, mode, domain, ratio=0.01, seed=11)


def test_multi_domain_full_ratio_takes_everything(mini_corpus):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    assert sorted(split.finetune_ids) == sorted(
        d.dialogue_id for d in mini_corpus.train
    )


def test_protocol_violations(mini_corpus):
    with pytest.raises(ProtocolError, match="ratio"):
        sample_fewshot(mini_corpus, "ct", "hotel", ratio=0.02, seed=11)
    with pytest.raises(ProtocolError, match="target"):
        sample_fewshot(mini_corpus, "ct", None, ratio=0.01, seed=11)
    with pytest.raises(ProtocolError, match="no target"):
        sample_fewshot(mini_corpus, "md", "hotel", ratio=0.01, seed=11)
    with pytest.raises(ProtocolError, match="mode"):
        sample_fewshot(mini_corpus, "zz", "hotel", ratio=0.01, seed=11)
    with pytest.raises(ProtocolError, match="mode"):  # the manifest name is not a mode spelling
        sample_fewshot(mini_corpus, "cross_task", "hotel", ratio=0.01, seed=11)
    empty = synthetic_corpus({"hotel": 10})
    with pytest.raises(ProtocolError, match="eligible"):
        sample_fewshot(empty, "ct", "taxi", ratio=0.01, seed=11)


# -- training-label export ---------------------------------------------------------


def test_export_counts_and_roles(mini_corpus, ont, tmp_path):
    split = sample_fewshot(mini_corpus, "cd", "train", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    written = export_training_file(split, mini_corpus, ont, out=out)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == written
    by_role = {r["dialogue_id"]: r["split_role"] for r in records}
    assert by_role["SNG0003.json"] == "finetune"
    assert by_role["PMUL0001.json"] == "finetune"
    assert by_role["SNG0001.json"] == "pretrain"
    expected_turns = sum(
        len(mini_corpus.dialogue_map()[did].states)
        for did in split.pretrain_ids + split.finetune_ids
        if did != "SNG0004.json"
    ) + len(mini_corpus.dialogue_map()["SNG0004.json"].states) - 1
    assert written == expected_turns


def test_export_logs_the_turns_this_call_skipped(mini_corpus, ont, tmp_path, caplog):
    # The count is this call's unwritten turns; the caller's list may hold earlier entries.
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    diagnostics = ["from an earlier step"]
    caplog.set_level(logging.INFO, logger="statesum.corpus")
    logged = []
    for cfg in (TemplateConfig(), TemplateConfig(), TemplateConfig(naturalness=False)):
        caplog.clear()
        export_training_file(split, mini_corpus, ont, cfg, tmp_path / "x.jsonl", diagnostics)
        logged.append([r.getMessage() for r in caplog.records if r.name == "statesum.corpus"])
    assert logged == [["export skipped 1 turns"], ["export skipped 1 turns"], []]
    assert len(diagnostics) == 3


def test_export_key_order_and_sorting(mini_corpus, ont, tmp_path):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    export_training_file(split, mini_corpus, ont, out=out)
    lines = out.read_text().splitlines()
    keys = list(json.loads(lines[0]))
    assert keys == [
        "dialogue_id", "turn_index", "split_role", "history", "gold_summary", "gold_state",
    ]
    order = [(json.loads(l)["dialogue_id"], json.loads(l)["turn_index"]) for l in lines]
    assert order == sorted(order)


def test_export_roundtrip_closure(mini_corpus, ont, tmp_path):
    # The parser is the oracle: every written summary must reproduce its state.
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    cfg = TemplateConfig(domain_order="shuffled")
    export_training_file(split, mini_corpus, ont, cfg, out)
    for line in out.read_text().splitlines():
        record = json.loads(line)
        result = parse_summary(record["gold_summary"], ont, cfg)
        assert result.state == record["gold_state"], record


def test_export_skips_colliding_turn(mini_corpus, ont, tmp_path):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    diagnostics = []
    export_training_file(split, mini_corpus, ont, out=out, diagnostics=diagnostics)
    assert any("SNG0004.json/1" in d and "milk and honey" in d for d in diagnostics)
    written = [json.loads(line) for line in out.read_text().splitlines()]
    assert not any(
        r["dialogue_id"] == "SNG0004.json" and r["turn_index"] == 1 for r in written
    )


def test_export_rechecks_an_equal_state_in_another_key_order(ont, tmp_path):
    # The loader hands an unchanged state over as the previous turn's object; an
    # equal state in another key order is checked again, since its issues list
    # the slots in its own key order.
    first = {"hotel-name": "alexander bed and breakfast", "restaurant-name": "milk and honey"}
    second = dict(reversed(first.items()))
    history = "\n".join(["system: ", "user: "] * 2)
    dialogue = Dialogue("HAND.json", [first, second], history, (15, 31), domains=frozenset())
    corpus = Corpus(splits={"train": [dialogue], "dev": [], "test": []})
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    cfg, diagnostics = TemplateConfig(), []
    assert export_training_file(split, corpus, ont, cfg, tmp_path / "x.jsonl", diagnostics) == 0
    labels = synthesize_labels(dialogue, ont, cfg, split.seed)
    assert diagnostics == [
        f"HAND.json/{index}: skipped, {'; '.join(reserved_collisions(state, ont, cfg, label))}"
        for index, (state, label) in enumerate(zip(dialogue.states, labels))
    ]
    assert diagnostics[1].index("restaurant-name") < diagnostics[1].index("hotel-name")


def test_export_skips_dialogue_with_off_schema_gold_slot(mini_corpus, ont, tmp_path):
    # Only the dialogue holding the off-schema slot is left out, one diagnostic per turn.
    corpus = load_multiwoz(write_off_schema_corpus(tmp_path))
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    assert "SNG0003.json" in split.finetune_ids
    baseline, baseline_diags = tmp_path / "baseline.jsonl", []
    export_training_file(split, mini_corpus, ont, out=baseline, diagnostics=baseline_diags)
    out, diagnostics = tmp_path / "labels.jsonl", []
    written = export_training_file(split, corpus, ont, out=out, diagnostics=diagnostics)
    expected = [
        line for line in baseline.read_text().splitlines()
        if json.loads(line)["dialogue_id"] != "SNG0003.json"
    ]
    assert out.read_text().splitlines() == expected and written == len(expected)
    assert len(diagnostics) == len(baseline_diags) + 2
    assert [d for d in diagnostics if d not in baseline_diags] == [
        f"SNG0003.json/{i}: skipped with its dialogue, unknown slot 'train-book trainid'"
        for i in (0, 1)
    ]


EXPORT_CONFIGS = pytest.mark.parametrize("cfg", [
    TemplateConfig(paraphrasing=p, dontcare_concat=c, domain_order=o)
    for p, c, o in ((True, True, "shuffled"), (False, True, "canonical"),
                    (True, False, "shuffled"), (False, False, "canonical"))
] + [TemplateConfig(naturalness=False)], ids=["tt", "ft", "tf", "ff", "flat"])


@EXPORT_CONFIGS
def test_export_writes_exactly_the_round_trips(mini_corpus, ont, tmp_path, cfg):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    export_training_file(split, mini_corpus, ont, cfg, out)
    written = {}
    for line in out.read_text().splitlines():
        record = json.loads(line)
        written[(record["dialogue_id"], record["turn_index"])] = record
        assert parse_summary(record["gold_summary"], ont, cfg).state == record["gold_state"], record
    dialogues = mini_corpus.dialogue_map()
    for dialogue_id in split.finetune_ids:
        states = dialogues[dialogue_id].states
        labels = synthesize_labels(dialogues[dialogue_id], ont, cfg, split.seed)
        for index, (state, label) in enumerate(zip(states, labels, strict=True)):
            if (dialogue_id, index) not in written:
                parsed = parse_summary(label, ont, cfg)
                assert parsed.state != state or parsed.diagnostics, (dialogue_id, index)
    # The flat format has no " and " terminator, so the venue name survives there.
    assert (("SNG0004.json", 1) in written) == (not cfg.naturalness)


@pytest.mark.parametrize("off_schema", [False, True], ids=["fixture", "off-schema"])
@EXPORT_CONFIGS
def test_export_names_each_unwritten_turn_once(ont, tmp_path, capsys, cfg, off_schema):
    root = write_off_schema_corpus(tmp_path / "corpus") if off_schema else FIXTURE_CORPUS
    corpus = load_multiwoz(root)
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    out, diagnostics = tmp_path / "labels.jsonl", ["an earlier diagnostic"]
    written = export_training_file(split, corpus, ont, cfg, out, diagnostics)
    added = diagnostics[1:]
    dialogues = corpus.dialogue_map()
    states = {did: dialogues[did].states for did in (*split.pretrain_ids, *split.finetune_ids)}
    assert written + len(added) == sum(map(len, states.values()))
    named = set()
    for diagnostic in added:
        match = re.match(r"(.+)/(\d+): skipped", diagnostic)
        assert match and match[1] in states, diagnostic
        named.add((match[1], int(match[2])))
    assert len(named) == len(added)
    records = {(r["dialogue_id"], r["turn_index"])
               for r in map(json.loads, out.read_text().splitlines())}
    assert len(records) == written and not records & named
    flags = (["--unnatural"] * (not cfg.naturalness) + ["--no-paraphrase"] * (not cfg.paraphrasing)
             + ["--no-dontcare-concat"] * (not cfg.dontcare_concat))
    assert run(["export", "--corpus", str(root), "--mode", "md", "--ratio", "1.0", "--seed", "11",
                "--order", cfg.domain_order, "--out", str(tmp_path / "cli.jsonl"), *flags]) == 0
    assert capsys.readouterr().out.endswith(f" ({len(added)} turns skipped)\n")
    assert (tmp_path / "cli.jsonl").read_bytes() == out.read_bytes()


def _doubled_archive(root):
    """The fixture archive with every turn said twice, so each state repeats unchanged."""
    records = _fixture_records()
    for record in records.values():
        log = record["log"]
        record["log"] = [entry for i in range(0, len(log), 2) for entry in log[i:i + 2] * 2]
    return _write_archive(root, json.dumps(records))


def _unshared(corpus: Corpus) -> Corpus:
    """A copy of ``corpus`` in which every state and goal-domain set is its own object."""
    copied = copy.deepcopy(corpus)  # keeps a shared object shared
    for dialogue in copied.dialogue_map().values():
        dialogue.states = [dict(state) for state in dialogue.states]
        dialogue.domains = frozenset(set(dialogue.domains))
    return copied


def _state_objects(corpus: Corpus) -> tuple[int, int]:
    """(states, distinct state objects) over every dialogue of ``corpus``."""
    states = [state for dialogue in corpus.dialogue_map().values() for state in dialogue.states]
    return len(states), len({id(state) for state in states})


@pytest.fixture(scope="module")
def doubled_corpus(tmp_path_factory):
    return load_multiwoz(_doubled_archive(tmp_path_factory.mktemp("doubled")))


@pytest.mark.parametrize("corpus_name", ["mini", "doubled"])
@pytest.mark.parametrize("cfg", [
    TemplateConfig(paraphrasing=p, dontcare_concat=c, domain_order=o)
    for p in (True, False) for c in (True, False) for o in ("canonical", "shuffled")
] + [TemplateConfig(naturalness=False)])
def test_a_shared_state_writes_what_its_own_copy_writes(
    mini_corpus, doubled_corpus, ont, tmp_path, corpus_name, cfg
):
    corpus = mini_corpus if corpus_name == "mini" else doubled_corpus
    n_states, n_objects = _state_objects(corpus)
    assert (n_objects < n_states) == (corpus_name == "doubled")
    copied = _unshared(corpus)
    assert _state_objects(copied) == (n_states, n_states)
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    outputs = []
    for source in (corpus, copied):
        out, diagnostics = tmp_path / f"labels{len(outputs)}.jsonl", []
        written = export_training_file(split, source, ont, cfg, out, diagnostics)
        outputs.append((written, out.read_bytes(), diagnostics))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] > 0


@pytest.mark.parametrize("corpus_name", ["mini", "doubled"])
def test_a_shared_state_scores_as_its_own_copy_scores(
    mini_corpus, doubled_corpus, ont, tmp_path, corpus_name
):
    predictions = GOLDEN_EVAL / "predictions.jsonl"
    corpus = mini_corpus
    if corpus_name == "doubled":
        # Each golden prediction joins both copies of its turn.
        corpus, predictions = doubled_corpus, tmp_path / "doubled.jsonl"
        lines = (GOLDEN_EVAL / "predictions.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        _write_lines(predictions, [
            dict(row, turn_index=2 * row["turn_index"] + k) for row in rows for k in (0, 1)
        ])
    outputs = []
    for source in (corpus, _unshared(corpus)):
        out, diag = tmp_path / f"report{len(outputs)}.json", tmp_path / f"diag{len(outputs)}.jsonl"
        evaluate_run(predictions, source, ont, out=out, diagnostics_out=diag)
        outputs.append((out.read_bytes(), diag.read_bytes()))
    assert outputs[0] == outputs[1]


def test_export_failure_leaves_no_partial_file(mini_corpus, ont, tmp_path):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    missing_dir = tmp_path / "missing"
    with pytest.raises(OSError):
        export_training_file(split, mini_corpus, ont, out=missing_dir / "x.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_export_failure_mid_write_keeps_previous_output(mini_corpus, ont, tmp_path, monkeypatch):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    out.write_text("previous export\n", "utf-8")
    synthesize_labels = corpus_module.synthesize_labels
    calls = []

    def failing_labels(*args):
        calls.append(args)
        if len(calls) == 3:  # after two dialogues' records went to the handle
            raise RuntimeError("render failed")
        return synthesize_labels(*args)

    monkeypatch.setattr(corpus_module, "synthesize_labels", failing_labels)
    with pytest.raises(RuntimeError, match="render failed"):
        export_training_file(split, mini_corpus, ont, out=out)
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text("utf-8") == "previous export\n"


def test_export_unknown_dialogue(mini_corpus, ont, tmp_path):
    split = sample_fewshot(mini_corpus, "md", ratio=1.0, seed=11)
    split.finetune_ids.append("GHOST.json")
    with pytest.raises(CorpusError, match="GHOST"):
        export_training_file(split, mini_corpus, ont, out=tmp_path / "x.jsonl")


def test_export_closure_at_scale(ont, tmp_path):
    # Thousands of generated dialogues: the export must stay fast and every
    # written summary must parse back exactly, shuffled domain order included.
    from statesum import random_state

    dialogues = []
    history = "\n".join(["system: ", "user: "] * 4)
    ends = (15, 31, 47, 63)  # each turn adds "\nsystem: \nuser: "
    for d in range(1500):
        states = [random_state(ont, seed=d * 4 + t) for t in range(4)]
        dialogues.append(Dialogue(f"GEN{d:05d}.json", states, history, ends, domains=frozenset()))
    corpus = Corpus(splits={"train": dialogues, "dev": [], "test": []})
    split = sample_fewshot(corpus, "md", ratio=1.0, seed=11)
    out = tmp_path / "labels.jsonl"
    cfg = TemplateConfig(domain_order="shuffled")

    started = time.perf_counter()
    written = export_training_file(split, corpus, ont, cfg, out)
    mismatches = 0
    with open(out, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if parse_summary(record["gold_summary"], ont, cfg).state != record["gold_state"]:
                mismatches += 1
    elapsed = time.perf_counter() - started

    assert written == 6000
    assert mismatches == 0
    assert elapsed < 60.0


# -- prediction files -----------------------------------------------------------------


def _write_lines(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def test_load_predictions(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_lines(path, [
        {"dialogue_id": "A.json", "turn_index": 0, "predicted_summary": "x"},
        {"dialogue_id": "A.json", "turn_index": 1, "predicted_summary": "y"},
        {"dialogue_id": "B.json", "turn_index": 0, "predicted_summary": "z"},
        {"dialogue_id": "B.json", "turn_index": "7", "predicted_summary": "w"},  # digits: 7
    ])
    path.write_text(path.read_text() + "  \n")  # a blank line is skipped
    records = load_predictions(path)
    assert len(records) == 4
    assert records[0].dialogue_id == "A.json"
    assert records[3].turn_index == 7


def test_load_predictions_missing_key_names_line(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_lines(path, [
        {"dialogue_id": "A.json", "turn_index": 0, "predicted_summary": "x"},
        {"dialogue_id": "A.json", "predicted_summary": "y"},
    ])
    with pytest.raises(CorpusError, match="line 2.*turn_index"):
        load_predictions(path)
    path.write_text(path.read_text().replace(', "predicted_summary": "y"}', ","))
    with pytest.raises(CorpusError, match="line 2: invalid JSON"):
        load_predictions(path)


def test_load_predictions_duplicate_last_wins(tmp_path):
    path = tmp_path / "preds.jsonl"
    _write_lines(path, [
        {"dialogue_id": "A.json", "turn_index": 0, "predicted_summary": "first"},
        {"dialogue_id": "A.json", "turn_index": 0, "predicted_summary": "second"},
    ])
    diagnostics = []
    records = load_predictions(path, diagnostics)
    assert len(records) == 1
    assert records[0].predicted_summary == "second"
    assert len(diagnostics) == 1
