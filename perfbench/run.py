"""statesum benchmark: one workload, end to end, from files on disk.

    python3 perfbench/run.py --workload eval-noisy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Steps, each in its own process:

1. ``gen.py`` writes the seeded inputs (a raw 2.1 archive, predictions) under
   ``.perfbench_work/`` in the checkout.
2. Set-up probe: fresh interpreters import statesum, load the built-in schema
   and build a ``StateExtractor``; ``setup_s`` is their median wall time.
3. ``job.py`` repeats the workload's job for ``--seconds`` and reports the
   job times and its peak resident memory (``--trace 1``: alternating
   untraced and traced repetitions, per-layer metrics from the traced ones).
4. The output of the last repetition is checked against values computed
   independently from the generator's record (``check.py``); every repetition
   must have written byte-identical output.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` count turns; ``metrics`` holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. Any check failure
exits 1. ``--inject-fault`` alters one report field (scoring workloads) or
corrupts one label (export) before the check, to show the check catches it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("eval-exact", "eval-noisy", "export-md")
SETUP_PROBES = 11
SETUP_CODE = (
    "import statesum\n"
    "from statesum.destate import StateExtractor\n"
    "StateExtractor(statesum.load_ontology())\n"
)
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"turns_per_s": "turns/s", "setup_s": "s", "peak_rss_mb": "MB"}


# Per-layer metrics of a --trace 1 run, in report order, with their units.
LAYER_UNITS = {
    "corpus.load_multiwoz.s": "s",
    "corpus.load_multiwoz.us_per_turn": "us/turn",
    "corpus.load_predictions.s": "s",
    "corpus.sample_fewshot.s": "s",
    "corpus.export_training_file.self_s": "s",
    "corpus.export.written_share": "ratio",
    "corpus.export.skipped": "count",
    "summarize.synthesize_labels.self_s": "s",
    "summarize.state_to_summary.calls": "count",
    "summarize.state_to_summary.self_us": "us",
    "ontology.validate_state.calls": "count",
    "ontology.validate_state.us": "us",
    "destate.parse.calls": "count",
    "destate.parse.us": "us",
    "destate.pattern_applications_per_parse": "count/parse",
    "destate.parse.diagnosed_share": "ratio",
    "destate.reserved_collisions.calls": "count",
    "destate.reserved_collisions.us": "us",
    "metrics.evaluate_run.self_us_per_turn": "us/turn",
    "metrics.classify_errors.calls": "count",
    "metrics.classify_errors.us": "us",
    "metrics.slot_accuracy.s": "s",
    "trace.spans": "count",
    "trace.accounted_s": "s",
    "trace.unaccounted_share": "ratio",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_share": "ratio",
    "workload.turns": "count",
    "workload.pred_equals_gold_share": "ratio",
    "workload.repeat_state_share": "ratio",
    "workload.multi_domain_share": "ratio",
    "workload.mean_slots": "slots/turn",
    "workload.delimiter_name_share": "ratio",
}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_child(argv: list[str], env: dict, timeout: float) -> str:
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{Path(argv[1]).name} failed with exit code {done.returncode}")
    return done.stdout


def setup_seconds(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=env)
        # A blocking wait: Popen.wait(timeout=...) polls in sleeps of up to
        # 50 ms, which would round every probe up to that grain.
        guard = threading.Timer(60, probe.kill)
        guard.start()
        returncode = probe.wait()
        times.append(time.perf_counter() - started)
        guard.cancel()
        if returncode != 0:
            raise SystemExit(f"set-up probe failed with exit code {returncode}")
    return times


def inject_fault(workload: str, work: Path) -> None:
    if workload == "export-md":
        path = work / "labels.jsonl"
        lines = path.read_text("utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["gold_summary"] = record["gold_summary"].replace(" for ", " from ", 1) + " x"
        lines[0] = json.dumps(record, ensure_ascii=False) + "\n"
        path.write_text("".join(lines), "utf-8")
    else:
        path = work / "report.json"
        report = json.loads(path.read_text("utf-8"))
        report["error_counts"]["wrong_slot"] += 1
        path.write_text(json.dumps(report, indent=2) + "\n", "utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "statesum" / "__init__.py").is_file():
        print(f"error: {src}/statesum not found; run from the root of a statesum checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import statesum
    from statesum import TemplateConfig, default_ontology

    if not Path(statesum.__file__).resolve().is_relative_to(src):
        print(f"error: statesum imported from {statesum.__file__}, not {src}", file=sys.stderr)
        return 2
    import check

    env = dict(os.environ, PYTHONPATH=str(src))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    py = sys.executable

    run_child([py, str(HERE / "gen.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(work)], env, timeout=120)
    expected = json.loads((work / "expected.json").read_text("utf-8"))
    properties = expected["properties"]

    setup = setup_seconds(env)
    job_argv = [py, str(HERE / "job.py"), "--workload", args.workload, "--dir", str(work),
                "--seconds", str(args.seconds), "--seed", str(args.seed)]
    if args.trace:
        job_argv.append("--trace")
    job = json.loads(run_child(job_argv, env, timeout=args.seconds + 120).splitlines()[-1])

    if args.inject_fault:
        inject_fault(args.workload, work)
    ont = default_ontology()
    last = job["results"][-1]
    if args.workload == "export-md":
        verdict = check.check_export(work, expected, ont, TemplateConfig(domain_order="shuffled"),
                                     last["written"], last["skipped"])
    else:
        verdict = check.check_eval(root, work, expected, ont)
    digests = {r["digest"] for r in job["results"]}
    if len(digests) != 1:
        verdict.problems.append(f"repetitions wrote {len(digests)} different outputs")

    times = job["times"]
    turns = last["turns"]
    rates = [turns / t for t in times]
    q1, q3 = quartiles(rates)
    failed_share = verdict.failed / verdict.attempted
    print(f"workload {args.workload} seed {args.seed}: {turns} turns per repetition")
    print(f"  turns_per_s   {statistics.median(rates):.1f} turns/s "
          f"(median of {len(rates)}, quartiles {q1:.1f}-{q3:.1f})")
    print(f"  setup_s       {statistics.median(setup):.4f} s (median of {len(setup)})")
    print(f"  peak_rss_mb   {job['peak_rss_mb']:.1f} MB")
    print(f"  failed_share  {failed_share:.6f} ratio ({verdict.failed}/{verdict.attempted} turns)")
    print("  properties    " + ", ".join(f"{k}={v:.4g}" for k, v in properties.items()))
    for problem in verdict.problems:
        print(f"  CHECK FAILED: {problem}")

    if args.trace:
        traced, untraced = statistics.median(job["traced_times"]), statistics.median(times)
        metrics = dict(job["layers"])
        metrics["trace.job_s"] = traced
        metrics["trace.untraced_job_s"] = untraced
        metrics["trace.overhead_share"] = (traced - untraced) / untraced
        metrics.update({f"workload.{k}": v for k, v in properties.items()})
        gap = abs(metrics["trace.accounted_s"] - untraced) / untraced
        print(f"  tracing overhead {metrics['trace.overhead_share']:.2%}; per-layer spans "
              f"account for {metrics['trace.accounted_s']:.3f} s against {untraced:.3f} s "
              f"untraced (gap {gap:.2%}); spans in {work / 'spans.jsonl'}")
        result_metrics = {k: {"value": metrics[k], "unit": unit} for k, unit in LAYER_UNITS.items()}
    else:
        values = {
            "turns_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": job["peak_rss_mb"],
        }
        result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for bulky in ("corpus", "predictions.jsonl", "labels.jsonl", "expected.json"):
        path = work / bulky
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)

    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": result_metrics,
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
