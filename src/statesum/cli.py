"""Command-line surface: synth, parse, sample, export, eval, fuzz.

Every subcommand is a thin wrapper over the library with the same arguments.
Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 round-trip
or invariant failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys

from . import __version__
from .corpus import MODES, RATIOS, export_training_file, load_multiwoz, sample_fewshot, write_atomic
from .destate import parse_summary, reserved_collisions
from .errors import StatesumError
from .metrics import evaluate_run
from .ontology import DOMAIN_NAMES, TemplateConfig, load_ontology, random_state
from .summarize import state_to_summary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3

DATA_DIR_ENV = "DS2_DATA_DIR"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_template_flags(parser, ordered: bool):
    parser.add_argument("--unnatural", action="store_true",
                        help="use the flat '{value} as {slot} of {domain}' format")
    parser.add_argument("--no-paraphrase", action="store_true",
                        help="repeat the same sentence subject instead of paraphrasing")
    parser.add_argument("--no-dontcare-concat", action="store_true",
                        help="emit dontcare as a separate sentence")
    if ordered:  # parse and eval read no order: gold summaries render in canonical order
        parser.add_argument("--order", choices=["canonical", "shuffled"], default="canonical",
                            help="domain sentence order (default: canonical)")
        parser.add_argument("--seed", type=int, default=0, help="seed for any shuffling")


def _config_from(args) -> TemplateConfig:
    return TemplateConfig(
        naturalness=not args.unnatural,
        paraphrasing=not args.no_paraphrase,
        dontcare_concat=not args.no_dontcare_concat,
        domain_order=getattr(args, "order", "canonical"),
    )


def _add_corpus_flags(parser):
    parser.add_argument("--corpus", help=f"corpus directory or zip (default: ${DATA_DIR_ENV})")


def _corpus_from(args):
    path = args.corpus or os.environ.get(DATA_DIR_ENV)
    if not path:
        raise UsageError(f"--corpus is required (or set ${DATA_DIR_ENV})")
    return load_multiwoz(path)


def _split_from(args):
    """The corpus and its few-shot split; a wrong mode/domain pair fails before the load."""
    if (args.mode == "md") != (args.domain is None):
        need = "takes no" if args.mode == "md" else "needs a"
        raise UsageError(f"--mode {args.mode} {need} --domain")
    corpus = _corpus_from(args)
    return corpus, sample_fewshot(corpus, args.mode, args.domain, args.ratio, args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statesum", description=__doc__)
    parser.add_argument("--ontology", help="schema file (default: built-in)")
    parser.add_argument("-V", "--version-info", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="state JSON on stdin -> summary JSON on stdout")
    _add_template_flags(synth, ordered=True)

    parse = commands.add_parser("parse", help="summary JSON on stdin -> state JSON on stdout")
    # One grammar reads every natural variant, so the flat format is the only choice.
    parse.add_argument("--unnatural", action="store_true",
                       help="read the flat '{value} as {slot} of {domain}' format")

    sample = commands.add_parser("sample", help="print a few-shot split manifest")
    _add_corpus_flags(sample)
    sample.add_argument("--mode", choices=MODES, required=True)
    sample.add_argument("--domain", choices=DOMAIN_NAMES, help="target domain (cd/ct modes)")
    sample.add_argument("--ratio", type=float, choices=RATIOS, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--out", help="write the manifest here instead of stdout")

    export = commands.add_parser("export", help="write the training-label JSONL for a split")
    _add_corpus_flags(export)
    export.add_argument("--mode", choices=MODES, required=True)
    export.add_argument("--domain", choices=DOMAIN_NAMES)
    export.add_argument("--ratio", type=float, choices=RATIOS, required=True)
    _add_template_flags(export, ordered=True)
    export.add_argument("--out", required=True)

    evaluate = commands.add_parser("eval", help="score a prediction file and write a report")
    _add_corpus_flags(evaluate)
    evaluate.add_argument("--predictions", required=True)
    _add_template_flags(evaluate, ordered=False)
    evaluate.add_argument("--out", required=True)
    evaluate.add_argument("--diagnostics", help="optional per-turn diagnostics JSONL")

    fuzz = commands.add_parser("fuzz", help="run seeded round-trip trials, rotating five configs")
    fuzz.add_argument("--trials", type=int, default=10000)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--max-domains", type=int, help="default: every schema domain")
    return parser


def _cmd_synth(args, ontology) -> int:
    state = json.load(sys.stdin)
    cfg = _config_from(args)
    rng = random.Random(args.seed) if args.order == "shuffled" else None
    summary = state_to_summary(state, ontology, cfg, rng)
    issues = reserved_collisions(state, ontology, cfg, summary)
    if issues:  # print no summary that would parse back to another state
        print(f"round-trip failure: {'; '.join(issues)}; summary {summary!r}", file=sys.stderr)
        return EXIT_INVARIANT
    json.dump({"summary": summary}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_parse(args, ontology) -> int:
    payload = json.load(sys.stdin)
    if isinstance(payload, dict) and "summary" not in payload:
        raise StatesumError("parse input has no 'summary' field")
    summary = payload["summary"] if isinstance(payload, dict) else payload
    if not isinstance(summary, str):
        raise StatesumError("parse input must be a JSON string or an object with a string 'summary'")
    result = parse_summary(summary, ontology, TemplateConfig(naturalness=not args.unnatural))
    json.dump({"state": result.state, "diagnostics": result.diagnostics}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_sample(args, ontology) -> int:
    _, split = _split_from(args)
    manifest = json.dumps(split.to_dict(), indent=2) + "\n"
    if args.out:
        write_atomic(args.out, manifest)
    else:
        sys.stdout.write(manifest)
    return EXIT_OK


def _cmd_export(args, ontology) -> int:
    corpus, split = _split_from(args)
    skipped: list[str] = []
    written = export_training_file(split, corpus, ontology, _config_from(args), args.out, skipped)
    print(f"wrote {written} records to {args.out} ({len(skipped)} turns skipped)")
    return EXIT_OK


def _cmd_eval(args, ontology) -> int:
    corpus = _corpus_from(args)
    report = evaluate_run(
        args.predictions, corpus, ontology, _config_from(args),
        out=args.out, diagnostics_out=args.diagnostics,
    )
    print(
        f"scored {report.n_turns} turns: JGA {report.all_domain_jga:.4f}, "
        f"BLEU-4 {report.bleu4:.4f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_fuzz(args, ontology) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if args.max_domains is not None and not 1 <= args.max_domains <= len(ontology.domains):
        raise UsageError(f"--max-domains must be in 1..{len(ontology.domains)}")
    configs = [TemplateConfig(paraphrasing=p, dontcare_concat=c) for p in (True, False)
               for c in (True, False)] + [TemplateConfig(naturalness=False)]
    failures = 0
    for seed in range(args.seed, args.seed + args.trials):
        state = random_state(ontology, seed=seed, max_domains=args.max_domains)
        cfg = configs[(seed - args.seed) % len(configs)]
        summary = state_to_summary(state, ontology, cfg)
        # An exact round trip that comes with a diagnostic fails too: no silent parse.
        issues = reserved_collisions(state, ontology, cfg, summary)
        if issues:
            failures += 1
            print(f"round-trip failure at seed {seed}: {'; '.join(issues)}; summary {summary!r}",
                  file=sys.stderr)
    print(f"{args.trials - failures}/{args.trials} round-trips ok")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


_COMMANDS = {
    "synth": _cmd_synth,
    "parse": _cmd_parse,
    "sample": _cmd_sample,
    "export": _cmd_export,
    "eval": _cmd_eval,
    "fuzz": _cmd_fuzz,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        ontology = load_ontology(args.ontology)
        return _COMMANDS[args.command](args, ontology)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StatesumError, OSError, json.JSONDecodeError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
