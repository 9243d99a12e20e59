#!/usr/bin/env python3
"""Benchmark of the sentid batch pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload train_loop --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced
    python3 perfbench/run.py --write-manifest        # regenerate BENCHMARK.json

Each workload is a closed loop with one client: it runs one batch job at a
time, each in a fresh interpreter, until ``--seconds`` have passed, so at
most one core is busy.  Inputs are generated from ``--seed`` before timing
and the program sees only those files.  With ``--trace 0`` no job is
traced and the end-to-end metrics are medians over jobs; job time is
reported relative to a fixed reference computation that each job process
times just before its job (``job.py``), and the table also prints job time
and throughput in seconds.  With ``--trace 1`` untraced and traced jobs
alternate, and the per-layer metrics (medians over traced jobs) plus the
tracing overhead are reported.  Every job's outputs
are checked (see ``checks.py``); a job that raises, exits non-zero or fails
a check counts as failed.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Working files go to
``.bench_work/`` under the repository root; a traced run leaves its spans
in ``spans.jsonl`` there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import gen
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
JOB = os.path.join(HERE, "job.py")

RUN_SECONDS = 38
MIN_JOBS = 3
RUN_BUDGET_S = 150.0  # a run must end well inside 180 s, even if a job hangs
LAM = 0.5  # InterpConfig default, used by the pipeline and the decode CLI
C = 0.1  # candidate threshold default, used by the pipeline and the decode CLI

# Jobs are kept short (0.3-0.45 s of work on a quiet 2-vCPU host), so a run
# holds 30-45 of them.
TRAIN_UNITS, TRAIN_EVAL_UNITS, TRAIN_EPOCHS, TRAIN_EVAL_PCC = 150, 40, 2, (0.5,)
LABEL_MODEL_UNITS, LABEL_DOC_UNITS, LABEL_UNITS_PER_DOC = 600, 150, 4
EXT_UNITS, EXT_DOCS = 6000, 3

# Why each workload exists, with its input sizes; {tokens} is filled in by write_manifest.
WORKLOADS = {
    "train_loop": "paper's experiment loop: run_pipeline on CoNLL-U, 1 seed, bos_eos, word+char; "
    f"{TRAIN_UNITS} train units x {TRAIN_EPOCHS} epochs, {TRAIN_EVAL_UNITS} eval units "
    "({tokens} tokens); training-bound",
    "label_docs": "label my documents: CLI predict, decode bosEos, evaluate word+char, uni-head model; "
    f"{LABEL_DOC_UNITS} units in ~{LABEL_DOC_UNITS // LABEL_UNITS_PER_DOC} short docs "
    "({tokens} tokens); no SGD",
    "decode_ext": "encoder output: run_pipeline on a uni=1 probability file; "
    f"{EXT_UNITS} units in {EXT_DOCS} long docs "
    "({tokens} tokens); reads, DP, char scoring; no model kernels",
}
LOOP = "closed loop, 1 client, fresh process per job"

# name -> (unit, better, bound)
END_TO_END = {
    # Job time / reference time, median over jobs.  On a shared 2-vCPU host a
    # job runs up to twice as slow while a neighbour keeps the core busy, and
    # the busy share drifts over minutes.  Over 10 runs of the same code the
    # quartile spread (over the median) was 17-43% for the median job time,
    # 7-32% for the fastest job and 2-5% for this ratio.
    "wall_ref_ratio": ("ratio", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    # Deterministic per seed, but it moves from seed to seed: on train_loop a
    # few seeds' models miss several of the ~26 gold spans (F1 0.8-0.95 where
    # most seeds score 1.0), so its quartile spread over 10 seeds reaches ~0.09.
    "span_f1": ("ratio", "higher", 0.25),
    "success_ratio": ("ratio", "higher", 0.01),
}


def per_layer_units() -> dict:
    units = {}
    for name in tracing.layer_metric_names():
        units[name] = "count" if name.endswith("_calls") else "s"
    units.update({name: "count" for name in tracing.COUNTS})
    units.update({name: "ratio" for name in tracing.RATIOS})
    units.update({f"stage.{s}_s": "s" for s in tracing.STAGES})
    units["uncovered_ratio"] = "ratio"
    units["trace_overhead_ratio"] = "ratio"
    return units


@dataclass
class Prepared:
    tokens: int  # tokens processed by one job
    spec: Callable  # out dir -> job spec
    span_checks: Callable  # out dir -> [(span file, probability file)]
    gold_units: list
    report: str  # word-level report, relative to the out dir
    layers: tuple  # layers every traced job must record calls in


def prepare_train_loop(work, seed, env) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    train_units, eval_units = gen.make_units(TRAIN_UNITS, rng), gen.make_units(TRAIN_EVAL_UNITS, rng)
    train_path, eval_path = os.path.join(work, "train.conllu"), os.path.join(work, "eval.conllu")
    for path, units in ((train_path, train_units), (eval_path, eval_units)):
        gen.write_conllu(path, units)
        gen.check_conllu(path, units)

    def spec(out):
        return {"config": {
            "seeds": [seed],
            "method": "bos_eos",
            "granularities": ["word", "char"],
            "paths": {"treebank_train": train_path, "treebank_eval": eval_path, "output_dir": out},
            "model": {"epochs": TRAIN_EPOCHS},
            "eval": {"p_cc_values": list(TRAIN_EVAL_PCC)},
        }}

    tags = [str(p).replace(".", "_") for p in TRAIN_EVAL_PCC]
    eval_tokens = gen.token_count(eval_units)
    return Prepared(
        tokens=gen.token_count(train_units) * TRAIN_EPOCHS + 2 * eval_tokens * len(TRAIN_EVAL_PCC),
        spec=spec,
        span_checks=lambda out: [
            (os.path.join(out, f"spans_seed{seed}_pcc{t}_bos_eos.jsonl"),
             os.path.join(out, f"probs_seed{seed}_pcc{t}.tsv"))
            for t in tags
        ],
        gold_units=eval_units,
        report=f"report_seed{seed}_pcc{tags[0]}_word_bos_eos.json",
        layers=("kernels.window_indices", "kernels.sgd_rows", "kernels.score_rows",
                "kernels.dp_decode", "augment.example_stream", "model.train", "model.hash",
                "model.predict", "model.save_model", "model.write_probs",
                "decode.decode_document", "decode.write_spans", "evaluation.add_labels",
                "evaluation.to_granularity", "evaluation.report", "corpus.parse_conllu",
                "corpus.convert_treebank"),
    )


def prepare_label_docs(work, seed, env) -> Prepared:
    rng = np.random.default_rng([seed, 2])
    model_corpus = os.path.join(work, "model_train.jsonl")
    gen.write_corpus(model_corpus, gen.make_units(LABEL_MODEL_UNITS, rng))
    model = os.path.join(work, "model.bin")
    subprocess.run(
        [sys.executable, "-m", "sentid.cli", "train", "--corpus", model_corpus, "--out", model,
         "--epochs", "2", "--uni", "--seed", str(seed)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    doc_units = gen.make_units(LABEL_DOC_UNITS, rng)
    docs_path, gold_path = os.path.join(work, "docs.txt"), os.path.join(work, "gold.jsonl")
    gen.write_documents(docs_path, gen.split_documents(doc_units, rng, LABEL_UNITS_PER_DOC))
    gen.write_corpus(gold_path, doc_units)

    def spec(out):
        probs, spans = os.path.join(out, "probs.tsv"), os.path.join(out, "spans.jsonl")
        return {"cli": [
            ["predict", "--model", model, "--input", docs_path, "--out", probs],
            ["decode", "--probs", probs, "--method", "bosEos", "--out", spans],
        ] + [
            ["evaluate", "--gold", gold_path, "--pred", spans, "--granularity", g,
             "--out", os.path.join(out, f"report_{g}.json")]
            for g in ("word", "char")
        ]}

    return Prepared(
        tokens=2 * gen.token_count(doc_units),
        spec=spec,
        span_checks=lambda out: [(os.path.join(out, "spans.jsonl"), os.path.join(out, "probs.tsv"))],
        gold_units=doc_units,
        report="report_word.json",
        layers=("kernels.window_indices", "kernels.score_rows", "kernels.dp_decode",
                "model.hash", "model.predict", "model.load_model", "model.write_probs",
                "model.read_probs", "model.interpolate", "decode.decode_document",
                "decode.write_spans", "decode.read_spans", "evaluation.add_labels",
                "evaluation.to_granularity", "evaluation.report", "corpus.load"),
    )


def prepare_decode_ext(work, seed, env) -> Prepared:
    rng = np.random.default_rng([seed, 3])
    units = gen.make_units(EXT_UNITS, rng)
    bounds = np.linspace(0, EXT_UNITS, EXT_DOCS + 1).astype(int)
    docs = [units[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    corpus_path, probs_path = os.path.join(work, "eval.jsonl"), os.path.join(work, "probs.tsv")
    gen.write_corpus(corpus_path, units)
    gen.write_probs(probs_path, docs, rng)

    def spec(out):
        return {"config": {
            "seeds": [seed],
            "method": "bos_eos",
            "granularities": ["word", "char"],
            "paths": {"eval_corpus": corpus_path, "probs": probs_path, "output_dir": out},
        }}

    return Prepared(
        tokens=gen.token_count(units),
        spec=spec,
        span_checks=lambda out: [(os.path.join(out, f"spans_seed{seed}_ext_bos_eos.jsonl"), probs_path)],
        gold_units=units,
        report=f"report_seed{seed}_ext_word_bos_eos.json",
        layers=("kernels.dp_decode", "model.read_probs", "model.interpolate",
                "decode.decode_document", "decode.write_spans", "evaluation.add_labels",
                "evaluation.to_granularity", "evaluation.report", "corpus.load"),
    )


PREPARE = {
    "train_loop": prepare_train_loop,
    "label_docs": prepare_label_docs,
    "decode_ext": prepare_decode_ext,
}


@dataclass
class Job:
    traced: bool
    ok: bool
    result: dict
    digest: str = ""


def run_workload(root, workload, seed, seconds, trace) -> tuple:
    """Prepare inputs, run the closed loop, check outputs.

    Returns the result object and, for the table, the tokens of one job and
    the wall and reference times of the untraced jobs that passed.
    """
    started = time.perf_counter()
    src = os.path.join(root, "src")
    work = os.path.join(root, ".bench_work", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=src)
    prepared = PREPARE[workload](work, seed, env)
    # compile the package's bytecode once, as an installed package would have it
    subprocess.run([sys.executable, "-c", "import sentid"], env=env, check=True, timeout=60)

    jobs = []
    ref = None  # (digest, out dir) of the first job that ran to completion
    measure_start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - measure_start < seconds:
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        if remaining <= 0:
            break
        k = len(jobs)
        job = _run_job(root, work, env, prepared, k, traced=bool(trace) and k % 2 == 1,
                       timeout=remaining)
        jobs.append(job)
        if not job.ok:
            continue
        out = os.path.join(work, "jobs", str(k), "out")
        job.digest = checks.tree_digest(out)
        if ref is None:
            ref = (job.digest, out)
        else:
            shutil.rmtree(out)

    # Outputs identical to the reference pass or fail its checks with it.
    problems = []
    span_f1 = None
    if ref is not None:
        for span_path, probs_path in prepared.span_checks(ref[1]):
            problems += checks.check_spans(span_path, probs_path, prepared.gold_units, LAM, C)
        with open(os.path.join(ref[1], prepared.report), encoding="utf-8") as f:
            span_f1 = json.load(f)["span_f1"]
    for k, job in enumerate(jobs):
        if job.ok and job.digest != ref[0]:
            problems.append(f"job {k}: outputs differ from the first completed job's")
            job.ok = False
        elif job.ok and problems:
            job.ok = False
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    _merge_spans(work, len(jobs))

    ok = [j for j in jobs if j.ok]
    failed = len(jobs) - len(ok)
    plain = [j.result for j in ok if not j.traced]
    if trace:
        metrics = _layer_metrics(ok)
    else:
        values = {
            "wall_ref_ratio": _ref_ratio(plain),
            "peak_rss_mb": _median([j.result["peak_rss_mb"] for j in ok]),
            "setup_s": _median([j.result["setup_s"] for j in ok]),
            "span_f1": span_f1,
            "success_ratio": len(ok) / len(jobs),
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    seconds = {"tokens": prepared.tokens, "wall_s": [r["wall_s"] for r in plain],
               "ref_s": [r["ref_s"] for r in plain]}
    return {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}, seconds


def _run_job(root, work, env, prepared, k, traced, timeout) -> Job:
    jdir = os.path.join(work, "jobs", str(k))
    out = os.path.join(jdir, "out")
    os.makedirs(out)
    spec = prepared.spec(out)
    spec.update(trace=traced, run_id=k, result=os.path.join(jdir, "result.json"),
                spans=os.path.join(jdir, "spans.jsonl"))
    spec_path = os.path.join(jdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as f:
        json.dump(spec, f)
    with open(os.path.join(jdir, "log.txt"), "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, JOB, spec_path, repr(time.perf_counter())],
                                  cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"job {k} timed out", file=sys.stderr)
            return Job(traced, False, {})
    if proc.returncode != 0:
        print(f"job {k} exited with code {proc.returncode}, see {jdir}/log.txt", file=sys.stderr)
        return Job(traced, False, {})
    with open(spec["result"], encoding="utf-8") as f:
        result = json.load(f)
    if traced:
        silent = [L for L in prepared.layers if result["layers"][f"{L}_calls"] == 0]
        if silent:
            print(f"job {k}: declared layers recorded no calls: {silent}", file=sys.stderr)
            return Job(traced, False, result)
    return Job(traced, True, result)


def _merge_spans(work, n_jobs) -> None:
    with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as merged:
        for k in range(n_jobs):
            path = os.path.join(work, "jobs", str(k), "spans.jsonl")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as f:
                    shutil.copyfileobj(f, merged)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _ref_ratio(results):
    """Median over jobs of job time / reference time."""
    return _median([r["wall_s"] / r["ref_s"] for r in results])


def _quantile(values, q):
    """The q-quantile of values, interpolated between order statistics; None if empty."""
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _layer_metrics(jobs) -> dict:
    units = per_layer_units()
    traced = [j.result for j in jobs if j.traced]
    plain = [j.result for j in jobs if not j.traced]
    values = {}
    for name in units:
        if name in ("uncovered_ratio", "trace_overhead_ratio"):
            continue
        values[name] = _median([r["layers"][name] for r in traced])
    values["uncovered_ratio"] = _median(
        [1.0 - r["layers"]["covered_s"] / r["wall_s"] for r in traced])
    traced_ratio, plain_ratio = _ref_ratio(traced), _ref_ratio(plain)
    values["trace_overhead_ratio"] = traced_ratio / plain_ratio if traced_ratio and plain_ratio else None
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def format_table(workload, trace, result, seconds) -> str:
    lines = [f"== {workload} ({'traced' if trace else 'untraced'}): "
             f"{result['attempted']} jobs, {result['failed']} failed, "
             f"failed_ratio {result['failed'] / result['attempted']:.3f} =="]
    metrics = result["metrics"]
    if not trace:
        for name, m in metrics.items():
            lines.append(f"  {name:<16}{_fmt(m['value']):>14} {m['unit']}")
        walls = seconds["wall_s"]
        median = _median(walls)
        lines.append(f"  job wall_s over {len(walls)} jobs: min {_fmt(min(walls, default=None))}, "
                     f"median {_fmt(median)}, p90 {_fmt(_quantile(walls, 0.9))}; "
                     f"median ref_s {_fmt(_median(seconds['ref_s']))}")
        lines.append(f"  tokens_per_s at the median job: {_fmt(seconds['tokens'] / median if median else None)}")
        return "\n".join(lines)
    lines.append(f"  {'layer':<28}{'total_s':>10}{'self_s':>10}{'calls':>9}")
    for layer in tracing.LAYERS:
        total, own, calls = (metrics[f"{layer}{s}"]["value"] for s in ("_s", "_self_s", "_calls"))
        lines.append(f"  {layer:<28}{_fmt(total):>10}{_fmt(own):>10}{_fmt(calls):>9}")
    layer_names = set(tracing.layer_metric_names())
    for name, m in metrics.items():
        if name not in layer_names:
            lines.append(f"  {name:<28}{_fmt(m['value']):>10} {m['unit']}")
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, int) or float(v).is_integer():
        return str(int(v))
    return f"{v:.4g}"


def write_manifest(root) -> None:
    rng = np.random.default_rng(0)
    units = {"train_loop": TRAIN_UNITS + TRAIN_EVAL_UNITS, "label_docs": LABEL_DOC_UNITS,
             "decode_ext": EXT_UNITS}
    # input tokens of one draw; the fixed SU share keeps other seeds within a few percent
    tokens = {name: gen.token_count(gen.make_units(n, rng)) for name, n in units.items()}
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why.format(tokens=f"~{tokens[name] / 1000:.1f}k") + f"; {LOOP}"}
            for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "higher" if name == "decode.pruned_ratio" else "lower"}
            for name, unit in per_layer_units().items()
        ],
    }
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args()
    root = os.getcwd()
    if args.write_manifest:
        write_manifest(root)
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(root, "src", "sentid", "__init__.py")):
        print("error: run from the repository root (src/sentid not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.workload != "all":
        result, seconds = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        print(format_table(args.workload, args.trace, result, seconds))
        print(json.dumps(result))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, seconds = run_workload(root, workload, args.seed, args.seconds, trace)
            print(format_table(workload, trace, result, seconds), flush=True)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
