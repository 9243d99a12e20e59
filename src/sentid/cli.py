"""Command-line interface.

Subcommands: convert, train, predict, decode, augment, evaluate, pipeline.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 internal error.
"""

import argparse
import glob
import json
import os
import sys
import traceback

from . import augment as augment_mod
from . import corpus as corpus_mod
from . import decode as decode_mod
from . import evaluation, model as model_mod
from . import pipeline as pipeline_mod
from .fileio import write_json
from .labels import GRANULARITIES
from .pipeline import ConfigError

CLI_METHODS = {"eos": "eos", "eos-force": "eos_force", "bosEos": "bos_eos"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _from_flags(cls, args, **flags):
    """Config `cls` from the flags given as field=dest; omitted flags keep their field defaults."""
    values = {f: getattr(args, d) for f, d in flags.items() if getattr(args, d) is not None}
    try:
        return cls(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# the augment flags of `train` and `augment`, as AugmentConfig field=dest
AUGMENT_FLAGS = {"p_cc": "pcc", "p_da": "pda", "p_tr": "ptr", "max_tokens": "max_tokens"}


def _add_augment_flags(p) -> None:
    for flag, kind in (("--pcc", float), ("--pda", float), ("--ptr", float), ("--max-tokens", int)):
        p.add_argument(flag, type=kind)


def _load_rules(source: str) -> corpus_mod.RelationRuleSet:
    if source in ("", "default"):
        return corpus_mod.DEFAULT_RULES
    return corpus_mod.RelationRuleSet.from_file(source)


def cmd_convert(args) -> int:
    rules = _load_rules(args.rules)
    if os.path.isdir(args.input):
        paths = sorted(glob.glob(os.path.join(args.input, "*.conllu")))
        if not paths:
            raise FileNotFoundError(f"no .conllu files under {args.input}")
    else:
        paths = [args.input]
    sents = []
    for p in paths:
        sents.extend(corpus_mod.parse_conllu_file(p))
    corp = corpus_mod.convert_treebank(sents, rules)
    corp.save(args.output)
    if args.stats:
        write_json(args.stats, corpus_mod.compute_stats(corp).to_dict())
    print(f"converted {len(sents)} sentences -> {len(corp.units)} units ({args.output})")
    return 0


def cmd_train(args) -> int:
    aug_cfg = _from_flags(augment_mod.AugmentConfig, args, **AUGMENT_FLAGS)
    model_cfg = _from_flags(
        model_mod.ModelConfig, args, window_radius="window", hash_dim="hash_dim",
        epochs="epochs", learning_rate="lr", include_uni="uni",
    )
    corp = corpus_mod.Corpus.load(args.corpus)
    model = model_mod.train(corp, aug_cfg, seed=args.seed, model_cfg=model_cfg)
    model_mod.save_model(model, args.out)
    print(f"trained {len(model.head_names)} heads on {len(corp.units)} units -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    model = model_mod.load_model(args.model)
    with open(args.input, encoding="utf-8") as f:
        docs = [line.split() for line in f if line.strip()]
    pairs = list(zip(docs, model_mod.predict(model, docs)))
    model_mod.write_prob_documents(args.out, pairs)
    print(f"wrote probabilities for {len(pairs)} documents -> {args.out}")
    return 0


def cmd_decode(args) -> int:
    cfg = _from_flags(decode_mod.DecoderConfig, args, candidate_threshold="threshold")
    interp = _from_flags(model_mod.InterpConfig, args, lam="lam")
    if args.probs == "-":
        matrices = model_mod.read_prob_matrices(sys.stdin, "<stdin>")
    else:
        with open(args.probs, encoding="utf-8") as f:
            matrices = model_mod.read_prob_matrices(f, args.probs)
    results = pipeline_mod.decode_documents(matrices, CLI_METHODS[args.method], cfg, interp)
    if args.out:
        decode_mod.write_span_file(args.out, results)
    else:
        for r in results:
            print(decode_mod.span_record(r))
    return 0


def cmd_augment(args) -> int:
    cfg = _from_flags(augment_mod.AugmentConfig, args, **AUGMENT_FLAGS)
    corp = corpus_mod.Corpus.load(args.corpus)
    examples = augment_mod.generate_examples(corp, cfg, seed=args.seed, count=args.count)
    augment_mod.write_examples(args.out, examples)
    print(f"wrote {len(examples)} examples -> {args.out}")
    return 0


def format_report(report: evaluation.EvalReport) -> str:
    lines = [f"{'label':<8}{'prec':>8}{'recall':>8}{'f1':>8}{'support':>9}"]
    for lab in evaluation.LABELS:
        if lab in report.per_label:
            s = report.per_label[lab]
            lines.append(
                f"{lab:<8}{100 * s.precision:>8.2f}{100 * s.recall:>8.2f}"
                f"{100 * s.f1:>8.2f}{s.support:>9d}"
            )
    lines.append(f"{'macro':<8}{'':>16}{100 * report.macro_f1:>8.2f}")
    lines.append(f"{'weighted':<8}{'':>16}{100 * report.weighted_f1:>8.2f}")
    lines.append(
        f"{'span':<8}{100 * report.span_precision:>8.2f}{100 * report.span_recall:>8.2f}"
        f"{100 * report.span_f1:>8.2f}"
    )
    if report.flags:
        lines.append(f"flags: {', '.join(report.flags)}")
    return "\n".join(lines)


def format_aggregate(agg: evaluation.AggregateReport) -> str:
    lines = [f"{'metric':<16}{'mean':>8}  {'std':>6}   (n={agg.n_runs}, {agg.granularity}-level)"]
    for name, stat in agg.metrics.items():
        lines.append(f"{name:<16}{100 * stat.mean:>8.2f} ±{100 * stat.std:>6.2f}")
    for lab, stat in agg.label_f1.items():
        lines.append(f"{lab + '-f1':<16}{100 * stat.mean:>8.2f} ±{100 * stat.std:>6.2f}")
    return "\n".join(lines)


def cmd_evaluate(args) -> int:
    if args.aggregate:
        paths = sorted(glob.glob(os.path.join(args.aggregate, "report_*.json")))
        if not paths:
            raise FileNotFoundError(f"no report_*.json files under {args.aggregate}")
        reports = []
        for p in paths:
            with open(p, encoding="utf-8") as f:
                try:
                    reports.append(evaluation.EvalReport.from_dict(json.load(f)))
                # RecursionError: JSON nested too deeply for the parser
                except (ValueError, RecursionError) as exc:
                    raise ValueError(f"{p}: {exc}") from exc
        agg = evaluation.aggregate(reports)  # first: mixed granularities keep their error
        # a pipeline report's name gives its setting; other names are pooled as they are
        pairs = {pipeline_mod.report_setting(os.path.basename(p)) for p in paths} - {None}
        if len(pairs) > 1:
            raise ValueError(f"mixed (setting, method) pairs {sorted(pairs)}")
        print(format_aggregate(agg))
        if args.out:
            write_json(args.out, agg.to_dict())
        return 0
    corp = corpus_mod.Corpus.load(args.gold)
    results = decode_mod.read_span_file(args.pred)
    gold_docs = corpus_mod.gold_documents(corp.units, [r.n for r in results])
    report = evaluation.evaluate_documents(
        ((gold, res.labels, words) for (gold, words), res in zip(gold_docs, results)),
        args.granularity,
    )
    print(format_report(report))
    if args.out:
        write_json(args.out, report.to_dict())
    return 0


def cmd_pipeline(args) -> int:
    cfg = pipeline_mod.load_config(args.config, seed=args.seed, output_dir=args.output_dir)
    aggregates = pipeline_mod.run_pipeline(cfg, parallel_seeds=args.parallel_seeds)
    for (setting, gran), agg in aggregates.items():
        print(f"== p_cc={setting} {gran}-level ({cfg.method}) ==")
        print(format_aggregate(agg))
    return 0


def _convert_args(p) -> None:
    p.add_argument("--input", required=True, help="conllu file or directory")
    p.add_argument("--rules", default="default", help="relation rules JSON or 'default'")
    p.add_argument("--output", required=True)
    p.add_argument("--stats", default="", help="also write corpus statistics JSON")
    p.set_defaults(func=cmd_convert)


def _train_args(p) -> None:
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=int)
    p.add_argument("--uni", action="store_const", const=True,
                   help="also train unidirectional heads")
    _add_augment_flags(p)
    p.add_argument("--hash-dim", type=int)
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_train)


def _predict_args(p) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="one whitespace-tokenized document per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)


def _decode_args(p) -> None:
    p.add_argument("--probs", required=True, help="probability file or - for stdin")
    p.add_argument("--method", required=True, choices=tuple(CLI_METHODS))
    p.add_argument("--threshold", type=float, help="candidate threshold c")
    p.add_argument("--lambda", dest="lam", type=float, help="unidirectional interpolation weight")
    p.add_argument("--out", default="", help="span file (default: stdout)")
    p.set_defaults(func=cmd_decode)


def _augment_args(p) -> None:
    p.add_argument("--corpus", required=True)
    _add_augment_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)


def _evaluate_args(p) -> None:
    p.add_argument("--gold", help="gold corpus JSONL")
    p.add_argument("--pred", help="predicted span file")
    p.add_argument("--granularity", default="word", choices=GRANULARITIES)
    p.add_argument("--aggregate", default="", help="aggregate report_*.json files in a directory")
    p.add_argument("--out", default="", help="also write the JSON report here")
    p.set_defaults(func=cmd_evaluate)


def _pipeline_args(p) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default="")
    p.add_argument("--seed", type=int, default=None, help="run a single seed instead of the configured list")
    p.add_argument("--parallel-seeds", action="store_true")
    p.set_defaults(func=cmd_pipeline)


# subcommand -> (help, adds its arguments), in the order help lists them
COMMANDS = {
    "convert": ("CoNLL-U treebank to benchmark corpus", _convert_args),
    "train": ("train the begin/end probability model", _train_args),
    "predict": ("write per-token probabilities", _predict_args),
    "decode": ("extract spans from a probability file", _decode_args),
    "augment": ("emit concatenated/augmented examples", _augment_args),
    "evaluate": ("score predicted spans against a gold corpus", _evaluate_args),
    "pipeline": ("run the full multi-seed experiment", _pipeline_args),
}


def build_parser(command=None) -> _Parser:
    """The parser of every subcommand, or of `command` alone when it names one.

    A subcommand's parser does not depend on the others, so parsing a
    command line that starts with `command` gives the same result, help and
    errors either way.
    """
    parser = _Parser(prog="sentid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in COMMANDS else COMMANDS
    for name in names:
        help_, add_arguments = COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_))
    return parser


# OSError: any file-system error (a missing file, a directory given as a file, ...)
DATA_ERRORS = (ValueError, OSError, pipeline_mod.PipelineError)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if args.command == "evaluate" and not args.aggregate:
            if not args.gold or not args.pred:
                raise UsageError("evaluate requires --gold and --pred (or --aggregate)")
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
