"""The measured process: runs one workload's job repeatedly from files on disk.

    python3 perfbench/job.py --workload eval-noisy --dir DIR --seconds 20 --seed 1 [--trace]

Each repetition is timed from the ``load_multiwoz`` call until the output file
is written. Before each one the previous corpus is released and ``gc.collect()``
runs, so every repetition starts from the same heap. Prints one JSON object.

With ``--trace`` the run alternates untraced and traced repetitions. A traced
repetition replaces each public function the job calls into with a timing
wrapper at the module attribute the job looks it up through, records one span
per call (name, parent, start, end) in memory, and restores the originals
afterwards. Once the repetition's clock has stopped its spans are written to
``DIR/spans.jsonl`` and dropped, so the file ends with the last traced one.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from statesum import TemplateConfig, corpus, default_ontology, destate, metrics, summarize

EXPORT_CFG = TemplateConfig(domain_order="shuffled")


def run_eval(work: Path, ont, seed: int) -> dict:
    loaded = corpus.load_multiwoz(work / "corpus")
    report = metrics.evaluate_run(work / "predictions.jsonl", loaded, ont, out=work / "report.json")
    return {"turns": report.n_turns, "output": work / "report.json"}


def run_export(work: Path, ont, seed: int) -> dict:
    loaded = corpus.load_multiwoz(work / "corpus")
    split = corpus.sample_fewshot(loaded, "md", ratio=1.0, seed=seed)
    skipped: list[str] = []
    written = corpus.export_training_file(
        split, loaded, ont, EXPORT_CFG, work / "labels.jsonl", skipped
    )
    return {"turns": written + len(skipped), "written": written, "skipped": len(skipped),
            "output": work / "labels.jsonl"}


JOBS = {"eval-exact": run_eval, "eval-noisy": run_eval, "export-md": run_export}


# -- tracing -----------------------------------------------------------------


class Tracer:
    """In-memory spans: (name, parent index or -1, start, end)."""

    def __init__(self):
        self.spans: list = []
        self.counters = {"pattern_applications": 0, "diagnosed": 0}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()

        return traced

    def counting_parse(self, parse):
        counters = self.counters

        @functools.wraps(parse)
        def counted(extractor, *args, **kwargs):
            before = extractor.pattern_applications
            result = parse(extractor, *args, **kwargs)
            counters["pattern_applications"] += extractor.pattern_applications - before
            counters["diagnosed"] += bool(result.diagnostics)
            return result

        return counted


# (owner, attribute, span name): every place a job looks a traced function up.
TRACE_POINTS = (
    (corpus, "load_multiwoz", "corpus.load_multiwoz"),
    (corpus, "sample_fewshot", "corpus.sample_fewshot"),
    (corpus, "export_training_file", "corpus.export_training_file"),
    (corpus, "synthesize_labels", "summarize.synthesize_labels"),
    (corpus, "reserved_collisions", "destate.reserved_collisions"),
    (summarize, "state_to_summary", "summarize.state_to_summary"),
    (summarize, "validate_state", "ontology.validate_state"),
    (metrics, "evaluate_run", "metrics.evaluate_run"),
    (metrics, "load_predictions", "corpus.load_predictions"),
    (metrics, "state_to_summary", "summarize.state_to_summary"),
    (metrics, "classify_errors", "metrics.classify_errors"),
    (metrics, "slot_accuracy", "metrics.slot_accuracy"),
    (destate.StateExtractor, "parse", "destate.parse"),
)


@contextmanager
def installed(tracer: Tracer):
    originals = []
    try:
        for owner, attr, name in TRACE_POINTS:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            fn = tracer.counting_parse(original) if name == "destate.parse" else original
            setattr(owner, attr, tracer.wrap(name, fn))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, job_s: float, result: dict) -> dict:
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    child: dict[str, float] = {}
    spans = tracer.spans
    for name, parent, start, end in spans:
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + end - start
        if parent >= 0:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + end - start
    own = {name: total[name] - child.get(name, 0.0) for name in total}
    turns = result["turns"]

    def n(name):
        return calls.get(name, 0)

    def per_call_us(name, times):
        return times.get(name, 0.0) / n(name) * 1e6 if n(name) else 0.0

    parses = n("destate.parse")
    written, skipped = result.get("written", 0), result.get("skipped", 0)
    accounted = sum(own.values())
    return {
        "corpus.load_multiwoz.s": total.get("corpus.load_multiwoz", 0.0),
        "corpus.load_multiwoz.us_per_turn": total.get("corpus.load_multiwoz", 0.0) / turns * 1e6,
        "corpus.load_predictions.s": total.get("corpus.load_predictions", 0.0),
        "corpus.sample_fewshot.s": total.get("corpus.sample_fewshot", 0.0),
        "corpus.export_training_file.self_s": own.get("corpus.export_training_file", 0.0),
        "corpus.export.written_share": written / (written + skipped) if written + skipped else 0.0,
        "corpus.export.skipped": skipped,
        "summarize.synthesize_labels.self_s": own.get("summarize.synthesize_labels", 0.0),
        "summarize.state_to_summary.calls": n("summarize.state_to_summary"),
        "summarize.state_to_summary.self_us": per_call_us("summarize.state_to_summary", own),
        "ontology.validate_state.calls": n("ontology.validate_state"),
        "ontology.validate_state.us": per_call_us("ontology.validate_state", total),
        "destate.parse.calls": parses,
        "destate.parse.us": per_call_us("destate.parse", total),
        "destate.pattern_applications_per_parse":
            tracer.counters["pattern_applications"] / parses if parses else 0.0,
        "destate.parse.diagnosed_share": tracer.counters["diagnosed"] / parses if parses else 0.0,
        "destate.reserved_collisions.calls": n("destate.reserved_collisions"),
        "destate.reserved_collisions.us": per_call_us("destate.reserved_collisions", total),
        "metrics.evaluate_run.self_us_per_turn":
            own.get("metrics.evaluate_run", 0.0) / turns * 1e6,
        "metrics.classify_errors.calls": n("metrics.classify_errors"),
        "metrics.classify_errors.us": per_call_us("metrics.classify_errors", total),
        "metrics.slot_accuracy.s": total.get("metrics.slot_accuracy", 0.0),
        "trace.spans": len(spans),
        "trace.accounted_s": accounted,
        "trace.unaccounted_share": (job_s - accounted) / job_s,
    }


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, parent, start, end) in enumerate(spans):
            handle.write(json.dumps({"id": index, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


# -- repetitions --------------------------------------------------------------


def one_rep(job, work: Path, ont, seed: int) -> tuple[float, dict]:
    gc.collect()
    started = time.perf_counter()
    result = job(work, ont, seed)
    elapsed = time.perf_counter() - started
    result["digest"] = hashlib.sha256(result.pop("output").read_bytes()).hexdigest()
    return elapsed, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(JOBS), required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    job, ont = JOBS[args.workload], default_ontology()
    times, traced_times, layers, results = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not times or (args.trace and not traced_times):
        if args.trace and len(traced_times) < len(times):
            tracer = Tracer()
            with installed(tracer):
                elapsed, result = one_rep(job, args.dir, ont, args.seed)
            traced_times.append(elapsed)
            layers.append(layer_metrics(tracer, elapsed, result))
            write_spans(args.dir / "spans.jsonl", tracer.spans)
            del tracer
        else:
            elapsed, result = one_rep(job, args.dir, ont, args.seed)
            times.append(elapsed)
        results.append(result)

    out = {
        "times": times,
        "traced_times": traced_times,
        "results": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if layers:
        out["layers"] = {k: statistics.median_low(rep[k] for rep in layers) for k in layers[0]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
