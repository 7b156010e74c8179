"""The benchmark imports library names and patches functions by name; keep those names alive."""

import hashlib
import importlib.util
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from statesum import (
    TemplateConfig,
    default_ontology,
    evaluate_run,
    export_training_file,
    load_multiwoz,
    sample_fewshot,
)

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
# sha256 of each seed-1 job's output. A change that alters outputs on purpose updates
# the pin in the same diff; any other change keeps these bytes.
OUTPUT_SHA256 = {
    "eval-exact": "a1b3145fc2453b824fc54cf2e1bfe76b96e13b9be2e039fd3cdc2dace5fcbd95",
    "eval-noisy": "4ceb77019710078283d7df86b78378978121c87f18dbe2a2bc0031a314055e10",
    "export-md": "3a61f0944148c78b5f544a34913cee3c0091be1c2c34d2442a8c931dff1375f3",
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses resolve their annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_points_exist(monkeypatch):
    job = _load("job", monkeypatch)
    assert job.TRACE_POINTS
    for owner, attr, name in job.TRACE_POINTS:
        assert attr in owner.__dict__, (owner, attr, name)


@pytest.mark.parametrize("workload", ["eval-noisy", "eval-exact", "export-md"])
def test_generated_workload_passes_the_benchmark_check(tmp_path, monkeypatch, workload):
    # eval-noisy's generator reads SlotSpec.bare_name and Ontology.domain_of;
    # eval-exact scores only equal pairs, which every state score must count right;
    # export-md loads a 17 MB archive, so the streamed loader meets the label check.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "gen.py"), "--workload", workload, "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    check = _load("check", monkeypatch)
    ont = default_ontology()
    corpus = load_multiwoz(tmp_path / "corpus")
    expected = json.loads((tmp_path / "expected.json").read_text("utf-8"))
    if workload == "export-md":
        cfg, skipped = TemplateConfig(domain_order="shuffled"), []
        split = sample_fewshot(corpus, "md", ratio=1.0, seed=1)
        written = export_training_file(split, corpus, ont, cfg, tmp_path / "labels.jsonl", skipped)
        verdict = check.check_export(tmp_path, expected, ont, cfg, written, len(skipped))
        assert (written, len(skipped)) == (14646, 71)
        # check_export reads no history: rebuild each from the raw log, without the library.
        with open(tmp_path / "corpus" / "data.json", encoding="utf-8") as handle:
            texts = {
                did: [""] + [entry["text"] for entry in raw["log"]]
                for did, raw in json.load(handle).items()
            }
        records = (tmp_path / "labels.jsonl").read_text("utf-8").splitlines()
        assert len(records) == written
        for record in map(json.loads, records):
            said = texts[record["dialogue_id"]][: 2 * record["turn_index"] + 2]
            roles = itertools.cycle(("system", "user"))
            assert record["history"] == "\n".join(f"{r}: {t}" for r, t in zip(roles, said)), record
    else:
        evaluate_run(tmp_path / "predictions.jsonl", corpus, ont, out=tmp_path / "report.json")
        verdict = check.check_eval(ROOT, tmp_path, expected, ont)
        assert verdict.attempted == 5000
    assert verdict.correct, verdict.problems[:5]
    output = tmp_path / ("labels.jsonl" if workload == "export-md" else "report.json")
    assert hashlib.sha256(output.read_bytes()).hexdigest() == OUTPUT_SHA256[workload]
