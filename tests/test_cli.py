import io
import json
import re
from importlib import resources

import pytest
import yaml

from statesum import cli
from statesum.cli import run

from conftest import FIXTURE_CORPUS
import golden_data as gd


def _run(argv, monkeypatch, capsys, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_golden(monkeypatch, capsys):
    code, out, _ = _run(
        ["parse"], monkeypatch, capsys,
        stdin=json.dumps({"summary": gd.ATTRACTION_SUMMARY}),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["state"] == gd.ATTRACTION_STATE
    assert payload["diagnostics"] == []


def test_synth_golden(monkeypatch, capsys):
    code, out, _ = _run(
        ["synth"], monkeypatch, capsys, stdin=json.dumps(gd.ATTRACTION_STATE)
    )
    assert code == 0
    assert json.loads(out)["summary"] == gd.ATTRACTION_SUMMARY


def test_synth_parse_are_inverse(monkeypatch, capsys):
    code, out, _ = _run(
        ["synth", "--unnatural"], monkeypatch, capsys,
        stdin=json.dumps(gd.VARIANT_SAMPLE_STATE),
    )
    assert code == 0
    summary = json.loads(out)["summary"]
    code, out, _ = _run(
        ["parse", "--unnatural"], monkeypatch, capsys,
        stdin=json.dumps({"summary": summary}),
    )
    assert code == 0
    assert json.loads(out)["state"] == gd.VARIANT_SAMPLE_STATE


@pytest.mark.parametrize("state, slot", [
    ({"restaurant-name": "meze bar located in the west"}, "restaurant-name"),
    ({"hotel-book people": "many"}, "hotel-book people"),
])
def test_synth_of_a_summary_that_does_not_parse_back_exits_3(monkeypatch, capsys, state, slot):
    code, out, err = _run(["synth"], monkeypatch, capsys, stdin=json.dumps(state))
    assert code == 3
    assert out == ""
    assert err.startswith(f"round-trip failure: {slot}: {state[slot]!r} reads back as ")
    assert "; summary 'The user is looking for " in err


def test_synth_invalid_state_exits_2(monkeypatch, capsys):
    code, _, err = _run(
        ["synth"], monkeypatch, capsys, stdin=json.dumps({"hotel-area": "north, east"})
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["sample", "export"])
def test_sample_bad_ratio_is_usage_error(monkeypatch, capsys, tmp_path, command):
    code, _, err = _run(
        [command, "--corpus", str(FIXTURE_CORPUS), "--mode", "ct",
         "--domain", "restaurant", "--ratio", "0.02", "--seed", "11",
         *(["--out", str(tmp_path / "labels.jsonl")] if command == "export" else [])],
        monkeypatch, capsys,
    )
    assert code == 1
    assert "ratio" in err


def test_sample_manifest(monkeypatch, capsys, tmp_path):
    argv = ["sample", "--corpus", str(FIXTURE_CORPUS), "--mode", "md",
            "--ratio", "1.0", "--seed", "11"]
    code, out, _ = _run(argv, monkeypatch, capsys)
    assert code == 0
    manifest = json.loads(out)
    assert manifest["mode"] == "multi_domain"
    assert manifest["n_finetune"] == 7
    # --out writes the same bytes, atomically: no temporary file is left behind.
    path = tmp_path / "manifest.json"
    assert _run([*argv, "--out", str(path)], monkeypatch, capsys) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")
    assert list(tmp_path.iterdir()) == [path]


def test_sample_env_fallback(monkeypatch, capsys):
    monkeypatch.setenv("DS2_DATA_DIR", str(FIXTURE_CORPUS))
    code, out, _ = _run(
        ["sample", "--mode", "ct", "--domain", "restaurant", "--ratio", "1.0", "--seed", "11"],
        monkeypatch, capsys,
    )
    assert code == 0
    assert json.loads(out)["n_finetune"] == 3


def test_sample_without_corpus_is_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("DS2_DATA_DIR", raising=False)
    code, _, err = _run(
        ["sample", "--mode", "md", "--ratio", "1.0", "--seed", "11"],
        monkeypatch, capsys,
    )
    assert code == 1


def test_missing_subcommand_is_usage_error(monkeypatch, capsys):
    code, _, _ = _run([], monkeypatch, capsys)
    assert code == 1


def test_export_then_eval(monkeypatch, capsys, tmp_path):
    labels = tmp_path / "labels.jsonl"
    code, out, _ = _run(
        ["export", "--corpus", str(FIXTURE_CORPUS), "--mode", "md",
         "--ratio", "1.0", "--seed", "11", "--out", str(labels)],
        monkeypatch, capsys,
    )
    assert code == 0 and labels.exists()
    assert "skipped" in out

    predictions = tmp_path / "preds.jsonl"
    with open(predictions, "w") as handle:
        for line in labels.read_text().splitlines():
            record = json.loads(line)
            handle.write(json.dumps({
                "dialogue_id": record["dialogue_id"],
                "turn_index": record["turn_index"],
                "predicted_summary": record["gold_summary"],
            }) + "\n")

    report_path = tmp_path / "report.json"
    code, out, _ = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions", str(predictions),
         "--out", str(report_path)],
        monkeypatch, capsys,
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["all_domain_jga"] == 1.0


def test_export_counts_every_turn_of_a_dialogue_the_schema_rejects(monkeypatch, capsys, tmp_path):
    # The off-schema slot "train-book trainid" rejects SNG0003 whole: one
    # diagnostic, two turns; SNG0004's colliding turn is the third skip.
    raw = json.loads((FIXTURE_CORPUS / "data.json").read_text())
    raw["SNG0003.json"]["log"][3]["metadata"]["train"]["book"]["trainID"] = "TR1234"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "data.json").write_text(json.dumps(raw))
    for name in ("valListFile.json", "testListFile.json"):
        (corpus / name).write_text((FIXTURE_CORPUS / name).read_text())
    labels = tmp_path / "labels.jsonl"
    code, out, _ = _run(
        ["export", "--corpus", str(corpus), "--mode", "md",
         "--ratio", "1.0", "--seed", "11", "--out", str(labels)],
        monkeypatch, capsys,
    )
    assert code == 0 and len(labels.read_text().splitlines()) == 11
    assert out == f"wrote 11 records to {labels} (3 turns skipped)\n"


def test_fuzz_ok(monkeypatch, capsys):
    code, out, _ = _run(
        ["fuzz", "--trials", "50", "--seed", "0"],
        monkeypatch, capsys,
    )
    assert code == 0
    assert "50/50 round-trips ok" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fuzz_without_trials_is_usage_error(monkeypatch, capsys, trials):
    code, out, err = _run(["fuzz", "--trials", trials], monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("max_domains", ["0", "6"])
def test_fuzz_max_domains_out_of_range_is_usage_error(monkeypatch, capsys, max_domains):
    code, out, err = _run(["fuzz", "--trials", "3", "--max-domains", max_domains], monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert "--max-domains must be in 1..5" in err


def test_fuzz_defaults_to_every_domain_of_a_two_domain_schema(monkeypatch, capsys, tmp_path):
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    kept = ("attraction", "hotel")
    doc["domains"] = {name: doc["domains"][name] for name in kept}
    doc["value_pools"] = {k: v for k, v in doc["value_pools"].items() if k.startswith(kept)}
    schema = tmp_path / "two.yaml"
    schema.write_text(yaml.safe_dump(doc, sort_keys=False))
    code, out, err = _run(["--ontology", str(schema), "fuzz", "--trials", "20"], monkeypatch, capsys)
    assert code == 0, err
    assert "20/20 round-trips ok" in out


def test_fuzz_rotates_the_four_natural_configs_and_the_flat_one(monkeypatch, capsys, tmp_path):
    # A natural sentence ends a value at " and ", while the flat format splits only at
    # ", ", so a restaurant-name value holding " and " reads back only from the flat
    # format: exactly the trials of the first four configs, the natural ones, fail.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["value_pools"]["restaurant-name"] = ["fish and chips"]
    schema = tmp_path / "and.yaml"
    schema.write_text(yaml.safe_dump(doc, sort_keys=False))
    code, out, err = _run(
        ["--ontology", str(schema), "fuzz", "--trials", "100"], monkeypatch, capsys
    )
    assert code == 3
    seeds = [int(s) for s in re.findall(r"^round-trip failure at seed (\d+):", err, re.M)]
    assert len(seeds) == len(err.splitlines()) > 0
    assert {seed % 5 for seed in seeds} == {0, 1, 2, 3}
    assert f"{100 - len(seeds)}/100 round-trips ok" in out


@pytest.mark.parametrize("command", ["sample", "export"])
@pytest.mark.parametrize("mode, domain", [("md", "hotel"), ("ct", None), ("cd", None)])
def test_wrong_mode_domain_pair_is_usage_error_before_the_load(
    monkeypatch, capsys, tmp_path, command, mode, domain
):
    # The corpus path does not exist, so only a check made before the load exits 1.
    labels = tmp_path / "labels.jsonl"
    code, out, err = _run(
        [command, "--corpus", str(tmp_path / "nowhere"), "--mode", mode,
         *(["--domain", domain] if domain else []), "--ratio", "1.0", "--seed", "11",
         *(["--out", str(labels)] if command == "export" else [])],
        monkeypatch, capsys,
    )
    assert code == 1
    assert out == ""
    assert f"--mode {mode}" in err and "--domain" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sample", "export"])
def test_misspelt_domain_is_usage_error_before_the_load(monkeypatch, capsys, tmp_path, command):
    # The corpus path does not exist, so only a check made before the load exits 1.
    code, out, err = _run(
        [command, "--corpus", str(tmp_path / "nowhere"), "--mode", "ct", "--domain", "hotell",
         "--ratio", "1.0", "--seed", "11",
         *(["--out", str(tmp_path / "labels.jsonl")] if command == "export" else [])],
        monkeypatch, capsys,
    )
    assert code == 1
    assert out == ""
    assert "argument --domain: invalid choice: 'hotell'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["parse", "eval"])
@pytest.mark.parametrize("flag", [["--order", "shuffled"], ["--seed", "3"], ["--no-paraphrase"],
                                  ["--no-dontcare-concat"]])
def test_parse_and_eval_take_no_order_or_seed(monkeypatch, capsys, tmp_path, command, flag):
    argv = [command, *flag]
    if command == "eval":
        argv += ["--corpus", str(FIXTURE_CORPUS), "--predictions", str(tmp_path / "p.jsonl"),
                 "--out", str(tmp_path / "r.json")]
    code, out, err = _run(argv, monkeypatch, capsys, stdin=json.dumps({"summary": ""}))
    if command == "eval" and flag in (["--no-paraphrase"], ["--no-dontcare-concat"]):
        # eval's gold render reads it: the run gets as far as the missing predictions file.
        assert code == 2 and "p.jsonl" in err
        return
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in err


def test_fuzz_takes_no_all_configs(monkeypatch, capsys):
    # fuzz always rotates the four natural configs and the flat one.
    code, out, err = _run(["fuzz", "--trials", "5", "--all-configs"], monkeypatch, capsys)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --all-configs" in err


def test_export_of_an_empty_split_exits_2_without_output(monkeypatch, capsys, tmp_path):
    labels = tmp_path / "labels.jsonl"
    code, out, err = _run(
        ["export", "--corpus", str(FIXTURE_CORPUS), "--mode", "md",
         "--ratio", "0.01", "--seed", "11", "--out", str(labels)],
        monkeypatch, capsys,
    )
    assert code == 2
    assert "ratio 0.01 selects none of 7 eligible" in err
    assert not labels.exists() and list(tmp_path.iterdir()) == []


def test_fuzz_failure_names_slot_and_terminator(monkeypatch, capsys, tmp_path):
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["value_pools"]["restaurant-name"] = ["milk and honey"]
    schema = tmp_path / "schema.yaml"
    schema.write_text(yaml.safe_dump(doc, sort_keys=False))
    code, out, err = _run(
        ["--ontology", str(schema), "fuzz", "--trials", "50", "--seed", "0"], monkeypatch, capsys
    )
    assert code == 3
    assert "round-trips ok" in out
    failure = err.splitlines()[0]
    assert failure.startswith("round-trip failure at seed ")
    assert "restaurant-name: 'milk and honey' reads back as 'milk' (cut at 'and')" in failure


@pytest.mark.parametrize("slot, template, code, message", [
    ("hotel-book people", "for {v} {unit} in all", 0, "300/300 round-trips ok"),
    ("hotel-name", "called {v} as {a} guest", 2,
     "slot 'hotel-name': text after {v} holds no brace but {unit}"),
    ("hotel-area", "located in the {v} {unit}", 2,
     "slot 'hotel-area': {unit} hole needs unit [singular, plural]"),
], ids=["text-after-unit", "article-after-value", "unit-without-unit"])
def test_fuzz_over_a_custom_template(monkeypatch, capsys, tmp_path, slot, template, code, message):
    # Each schema used to load and fail a share of the trials with no word on why.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"]["hotel"]["slots"][slot]["template"] = template
    schema = tmp_path / "schema.yaml"
    schema.write_text(yaml.safe_dump(doc, sort_keys=False))
    got, out, err = _run(["--ontology", str(schema), "fuzz", "--trials", "300"], monkeypatch, capsys)
    assert got == code, err
    assert message in (out if code == 0 else err)


def test_console_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import statesum

    # The child imports statesum from where this process did, installed or not.
    source_root = str(Path(statesum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "statesum.cli", "fuzz", "--trials", "5", "--seed", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "5/5 round-trips ok" in proc.stdout


def test_eval_missing_predictions_exits_2(monkeypatch, capsys, tmp_path):
    code, _, err = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions",
         str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2


def test_parse_without_summary_exits_2(monkeypatch, capsys):
    code, _, err = _run(["parse"], monkeypatch, capsys, stdin=json.dumps({"text": "x"}))
    assert code == 2
    assert "'summary'" in err and "field" in err


@pytest.mark.parametrize("payload", [{"summary": 5}, {"summary": None}, 5, None])
def test_parse_non_string_summary_exits_2(monkeypatch, capsys, payload):
    code, out, err = _run(["parse"], monkeypatch, capsys, stdin=json.dumps(payload))
    assert code == 2
    assert out == ""
    assert "parse input must be a JSON string or an object with a string 'summary'" in err


def test_schema_with_non_integer_position_exits_2(monkeypatch, capsys, tmp_path):
    schema = tmp_path / "schema.yaml"
    schema.write_text(
        "domains:\n"
        "  attraction:\n"
        "    noun_phrase: an attraction\n"
        "    slots:\n"
        "      attraction-name: {position: abc, template: 'called {v}', dontcare_noun: the name}\n"
    )
    code, _, err = _run(
        ["--ontology", str(schema), "synth"], monkeypatch, capsys, stdin=json.dumps({})
    )
    assert code == 2
    assert "slot 'attraction-name': unknown key(s) position" in err


@pytest.mark.parametrize("template", ["called {v} {where}", "called {v} }", "called {v[0]}"])
def test_schema_with_unknown_template_hole_exits_2(monkeypatch, capsys, tmp_path, template):
    schema = tmp_path / "schema.yaml"
    schema.write_text(
        "domains:\n"
        "  attraction:\n"
        "    noun_phrase: an attraction\n"
        "    slots:\n"
        f"      attraction-name: {{template: '{template}', dontcare_noun: the name}}\n"
    )
    state = {"attraction-name": "byard art"}
    code, _, err = _run(
        ["--ontology", str(schema), "synth"], monkeypatch, capsys, stdin=json.dumps(state)
    )
    assert code == 2
    assert "'attraction-name': template holes must be {v}, {a} or {unit}" in err


_ATTRACTION_DOMAIN = (
    "  attraction:\n"
    "    noun_phrase: an attraction\n"
)
_NAME_SLOT = "attraction-name: {template: 'called {v}', dontcare_noun: the name}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("domains: [attraction]\n", "domains must be a mapping"),
        (
            "domains:\n" + _ATTRACTION_DOMAIN + "    slots: [attraction-name, attraction-area]\n",
            "'attraction': slots must be a mapping",
        ),
        (
            "domains:\n" + _ATTRACTION_DOMAIN + f"    slots:\n      {_NAME_SLOT}\n"
            "value_pools: [attraction-name]\n",
            "value_pools must map slot names to lists",
        ),
        (
            "domains:\n" + _ATTRACTION_DOMAIN + f"    slots:\n      {_NAME_SLOT}\n"
            "value_pools:\n  attraction-name: byard art\n",
            "value_pools must map slot names to lists",
        ),
        *(  # a misspelt slot key would otherwise fall back to its default
            (
                "domains:\n" + _ATTRACTION_DOMAIN + "    slots:\n      "
                + _NAME_SLOT[:-1] + f", {key}: {value}}}\n",
                f"slot 'attraction-name': unknown key(s) {key}",
            )
            for key, value in (("knd", "count"), ("clasue", "true"), ("front_when_a", "true"))
        ),
        # SafeLoader's own mapping constructor rejects an unhashable key; the strict one
        # must too, or the load ends in a TypeError.
        ("domains:\n  ? [a, b]\n  : 1\n", "unhashable key at line 2 in schema"),
    ],
    ids=["domains-list", "slots-list", "value-pools-list", "value-pool-string",
         "knd", "clasue", "front_when_a", "unhashable-key"],
)
def test_schema_with_non_mapping_section_exits_2(monkeypatch, capsys, tmp_path, text, message):
    schema = tmp_path / "schema.yaml"
    schema.write_text(text)
    code, _, err = _run(
        ["--ontology", str(schema), "synth"], monkeypatch, capsys, stdin=json.dumps({})
    )
    assert code == 2
    assert message in err


@pytest.mark.parametrize(
    "domain, slot, key, value, message",
    [
        *(
            ("hotel", "hotel-stars", "unit", unit,
             "slot 'hotel-stars': unit must be a list of two non-empty strings")
            for unit in (["star"], {"a": 1}, "star", ["star", ""], [1, 2])
        ),
        ("hotel", "hotel-parking", "clause", "false",
         "slot 'hotel-parking': clause must be true or false"),
        ("attraction", "attraction-type", "front_when_an", "true",
         "slot 'attraction-type': front_when_an must be true or false"),
    ],
    ids=["unit-one-word", "unit-mapping", "unit-string", "unit-empty-plural", "unit-numbers",
         "clause-string", "front_when_an-string"],
)
def test_schema_with_mistyped_slot_value_exits_2(
    monkeypatch, capsys, tmp_path, domain, slot, key, value, message
):
    # All but the empty plural used to load: a unit string gave the unit words "s" and
    # "t", a one-word unit crashed the renderer, and the string "false" read as true.
    doc = yaml.safe_load(resources.files("statesum.data").joinpath("multiwoz_en.yaml").read_text())
    doc["domains"][domain]["slots"][slot][key] = value
    schema = tmp_path / "schema.yaml"
    schema.write_text(yaml.safe_dump(doc, sort_keys=False))
    code, out, err = _run(
        ["--ontology", str(schema), "synth"], monkeypatch, capsys,
        stdin=json.dumps({"hotel-stars": "4", "hotel-parking": "yes"}),
    )
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("line", ["5", "null", "[1]", '"text"'])
def test_eval_non_object_prediction_line_exits_2(monkeypatch, capsys, tmp_path, line):
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"dialogue_id": "SNG0001.json", "turn_index": 0, "predicted_summary": ""})
        + "\n" + line + "\n"
    )
    code, _, err = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions", str(predictions),
         "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2
    assert "line 2: expected a JSON object" in err


@pytest.mark.parametrize("summary", [None, ["a", "b"], 5])
def test_eval_non_string_predicted_summary_exits_2(monkeypatch, capsys, tmp_path, summary):
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"dialogue_id": "SNG0001.json", "turn_index": 0, "predicted_summary": ""}) + "\n"
        + json.dumps({"dialogue_id": "SNG0001.json", "turn_index": 1,
                      "predicted_summary": summary}) + "\n"
    )
    code, _, err = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions", str(predictions),
         "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2
    assert "line 2: predicted_summary is not a string" in err


@pytest.mark.parametrize("dialogue_id", [5, None, ["x"]])
def test_eval_non_string_dialogue_id_exits_2(monkeypatch, capsys, tmp_path, dialogue_id):
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"dialogue_id": "SNG0001.json", "turn_index": 0, "predicted_summary": ""}) + "\n"
        + json.dumps({"dialogue_id": dialogue_id, "turn_index": 0,
                      "predicted_summary": ""}) + "\n"
    )
    code, _, err = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions", str(predictions),
         "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2
    assert "line 2: dialogue_id is not a string" in err


def test_eval_names_the_turn_whose_gold_state_the_schema_rejects(monkeypatch, capsys, tmp_path):
    # The loader keeps any raw book key, so "trainID" loads as the off-schema
    # slot "train-book trainid" in every SNG0003 state from its first train block.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    raw = json.loads((FIXTURE_CORPUS / "data.json").read_text())
    for entry in raw["SNG0003.json"]["log"]:
        train = entry.get("metadata", {}).get("train")
        if train:
            train["book"]["trainID"] = "TR1234"
    (corpus / "data.json").write_text(json.dumps(raw))
    for name in ("valListFile.json", "testListFile.json"):
        (corpus / name).write_text((FIXTURE_CORPUS / name).read_text())
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"dialogue_id": "SNG0003.json", "turn_index": 1, "predicted_summary": ""}) + "\n"
    )
    code, _, err = _run(
        ["eval", "--corpus", str(corpus), "--predictions", str(predictions),
         "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2
    assert err.strip() == (
        "error: SNG0003.json/1: gold state rejected by the schema: "
        "unknown slot 'train-book trainid'"
    )
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("turn_index", [None, "first", 1.9, True])
def test_eval_non_integer_turn_index_exits_2(monkeypatch, capsys, tmp_path, turn_index):
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text(
        json.dumps({"dialogue_id": "SNG0001.json", "turn_index": 0, "predicted_summary": ""}) + "\n"
        + json.dumps({"dialogue_id": "SNG0001.json", "turn_index": turn_index,
                      "predicted_summary": ""}) + "\n"
    )
    code, _, err = _run(
        ["eval", "--corpus", str(FIXTURE_CORPUS), "--predictions", str(predictions),
         "--out", str(tmp_path / "r.json")],
        monkeypatch, capsys,
    )
    assert code == 2
    assert "line 2: turn_index" in err and "not an integer" in err


def test_programming_error_propagates(monkeypatch):
    def broken(args, ontology):
        raise KeyError("bug")

    monkeypatch.setitem(cli._COMMANDS, "fuzz", broken)
    with pytest.raises(KeyError, match="bug"):
        run(["fuzz", "--trials", "1"])
