"""End-to-end experiment loop: train, predict, decode, evaluate, aggregate.

A run reads its inputs once and shares them with every seed; each seed runs
the full chain on freshly drawn evaluation inputs, and reports are
aggregated across seeds per (evaluation p_cc, granularity).  Every stage
output is a pure function of its inputs, the configuration, and the seed, so
re-running a stage reproduces its artifacts byte for byte; trained models
are cached in the output directory under a fingerprint of (corpus, config,
seed) and reused when present.
"""

import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace
from itertools import repeat

from . import decode as decode_mod
from . import evaluation, model as model_mod
from .augment import AugmentConfig, example_stream
from .corpus import (
    Corpus,
    RelationRuleSet,
    convert_treebank,
    gold_documents,
    gold_word_labels,
    parse_conllu_file,
)
from .decode import DecoderConfig, decode_document, write_span_file
from .fileio import check_types, write_json
from .labels import GRANULARITIES
from .model import InterpConfig, ModelConfig, interpolate


class ConfigError(ValueError):
    """Bad pipeline configuration (reported with the offending key path)."""


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):  # a worker process sends the error back pickled
        return type(self), (self.stage, self.cause)


@dataclass(frozen=True)
class PipelinePaths:
    train_corpus: str = ""
    eval_corpus: str = ""
    treebank_train: str = ""
    treebank_eval: str = ""
    probs: str = ""
    output_dir: str = "runs"


def _no_repeats(key: str, what: str, values: tuple) -> None:
    """Raise ConfigError at the first value equal to an earlier one (by ==: 1 repeats 1.0)."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {what} {v!r} is given more than once")


@dataclass(frozen=True)
class PipelineConfig:
    seeds: tuple
    method: str = "bos_eos"
    granularities: tuple = ("word", "char")
    paths: PipelinePaths = PipelinePaths()
    rules: RelationRuleSet = RelationRuleSet()
    augment: AugmentConfig = AugmentConfig()
    model: ModelConfig = ModelConfig()
    interp: InterpConfig = InterpConfig()
    decoder: DecoderConfig = DecoderConfig()
    eval_p_cc: tuple = (0.5, 0.0)

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds: at least one seed is required")
        # a repeated seed would pool one model's reports as if they were runs
        _no_repeats("seeds", "seed", self.seeds)
        # every seed would decode the same file into the same reports
        if self.paths.probs and len(self.seeds) > 1:
            raise ConfigError(f"seeds: a run on paths.probs takes one seed, got {len(self.seeds)}")
        if self.method not in decode_mod.METHODS:
            raise ConfigError(f"method: {self.method!r} not in {decode_mod.METHODS}")
        for g in self.granularities:
            if g not in GRANULARITIES:
                raise ConfigError(f"granularities: unknown granularity {g!r}")
        for p in self.eval_p_cc:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"eval.p_cc_values: {p} not in [0, 1]")
        # a repeated setting would be run twice, into the same files
        _no_repeats("granularities", "granularity", self.granularities)
        _no_repeats("eval.p_cc_values", "p_cc", self.eval_p_cc)
        # a split's corpus comes from one source: a corpus file is never a cache
        for corpus, treebank in (
            ("train_corpus", "treebank_train"), ("eval_corpus", "treebank_eval")
        ):
            if getattr(self.paths, corpus) and getattr(self.paths, treebank):
                raise ConfigError(f"paths: set paths.{corpus} or paths.{treebank}, not both")


# top-level keys; a section's keys are the fields of its config dataclass
_SECTION_KEYS = {
    "version": None,
    "seeds": None,
    "method": None,
    "granularities": None,
    **{
        f.name: {g.name for g in fields(f.default)}
        for f in fields(PipelineConfig)
        if is_dataclass(f.default)
    },
    "eval": {"p_cc_values"},
}


def _check_keys(data: dict, allowed, path: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        key = path + sorted(unknown)[0]
        raise ConfigError(f"unknown key {key!r}")


def _list_of(key: str, value, types: tuple) -> tuple:
    if not isinstance(value, (list, tuple)) or any(type(v) not in types for v in value):
        raise ConfigError(f"{key}: expected a list of {types[-1].__name__}, got {value!r}")
    return tuple(value)


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(data, _SECTION_KEYS, "")
    version = data.get("version", 1)
    if version != 1:
        raise ConfigError(f"version: unsupported config version {version!r}")
    for section, allowed in _SECTION_KEYS.items():
        if allowed is not None and section in data:
            if not isinstance(data[section], dict):
                raise ConfigError(f"{section}: expected an object")
            _check_keys(data[section], allowed, f"{section}.")
    if "seeds" not in data:
        raise ConfigError("seeds: required")

    def build(section, cls):
        values = data.get(section, {})
        try:
            check_types(cls, values)
        except ValueError as exc:
            raise ConfigError(f"{section}.{exc}") from exc
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc

    sections = {
        f.name: build(f.name, type(f.default))
        for f in fields(PipelineConfig)
        if is_dataclass(f.default)
    }
    # a top-level value the config omits keeps its PipelineConfig default
    seeds = _list_of("seeds", data["seeds"], (int,))
    if "method" in data:
        sections["method"] = data["method"]
    if "granularities" in data:
        sections["granularities"] = _list_of("granularities", data["granularities"], (str,))
    if "p_cc_values" in data.get("eval", {}):
        p_cc_values = data["eval"]["p_cc_values"]
        sections["eval_p_cc"] = _list_of("eval.p_cc_values", p_cc_values, (int, float))
    return PipelineConfig(seeds=seeds, **sections)


def load_config(path, seed: int | None = None, output_dir: str = "") -> PipelineConfig:
    """The pipeline config of a JSON file.

    A `seed` replaces the file's `seeds`, and an `output_dir` its
    `paths.output_dir`, before the config is checked, so the checks see the
    run that will be made.
    """
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # RecursionError: JSON nested too deeply for the parser
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:  # a data error (exit code 2), not a config error
        raise ValueError(f"{path}: {exc}") from exc
    # a value of the wrong type is left in place for config_from_dict to report
    if isinstance(data, dict):
        if seed is not None:
            data["seeds"] = [seed]
        if output_dir and isinstance(data.get("paths", {}), dict):
            data["paths"] = {**data.get("paths", {}), "output_dir": output_dir}
    return config_from_dict(data)


def _fingerprint(corpus: Corpus, cfg: PipelineConfig, seed: int) -> str:
    """Model cache key: training corpus content, training config, seed, model version."""
    h = hashlib.sha256()
    for rec in corpus.records():
        h.update(rec.encode("utf-8"))
    key = {
        "augment": astuple(cfg.augment),
        "model": asdict(cfg.model),
        "seed": seed,
        "version": model_mod.MODEL_VERSION,
    }
    h.update(json.dumps(key, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:12]


def _setting_tag(setting) -> str:
    """File-name tag of an evaluation setting: ext, or pcc and p_cc read as a float, '.' as '_'."""
    return "ext" if setting == "ext" else "pcc" + str(float(setting)).replace(".", "_")


# report_seed{S}_{setting}_{granularity}_{method}.json, as _decode_and_score names
# a report; the setting is _setting_tag's
_REPORT_NAME = re.compile(
    rf"report_seed-?\d+_(pcc[0-9e_-]+|ext)_(?:{'|'.join(GRANULARITIES)})"
    rf"_({'|'.join(decode_mod.METHODS)})\.json"
)


def report_setting(name: str):
    """(setting, method) of a pipeline report's file name, or None for any other name."""
    match = _REPORT_NAME.fullmatch(name)
    return match.groups() if match else None


def _eval_docs(eval_corpus: Corpus, cfg: PipelineConfig, p_cc: float, seed: int):
    """Concatenation-only evaluation inputs (gold units, no augmentation)."""
    stream_cfg = replace(cfg.augment, p_cc=p_cc)
    return list(example_stream(eval_corpus, stream_cfg, seed, epoch=0, augment=False))


def _ensure_corpus(paths: PipelinePaths, split: str, rules) -> Corpus:
    """The split's corpus file, or its treebank converted under `rules` (in memory, each run)."""
    corpus_path = getattr(paths, f"{split}_corpus")
    treebank_path = getattr(paths, f"treebank_{split}")
    if corpus_path:
        return Corpus.load(corpus_path)
    if treebank_path:
        return convert_treebank(parse_conllu_file(treebank_path), rules)
    raise FileNotFoundError(f"no corpus: set paths.{split}_corpus or paths.treebank_{split}")


@contextmanager
def _stage(name: str):
    """Raise an OSError or ValueError of the block as a PipelineError of stage `name`."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise PipelineError(name, exc) from exc


def _load_inputs(cfg: PipelineConfig) -> tuple:
    """(evaluation corpus, training corpus or None, external matrices or None)."""
    paths = cfg.paths
    with _stage("load-corpus"):
        eval_corpus = _ensure_corpus(paths, "eval", cfg.rules)
        if not paths.probs:
            train_corpus = _ensure_corpus(paths, "train", cfg.rules)
            return eval_corpus, train_corpus, None
    with _stage("load-probs"), open(paths.probs, encoding="utf-8") as f:
        return eval_corpus, None, model_mod.read_prob_matrices(f, paths.probs)


def _run_seed(cfg: PipelineConfig, seed: int, inputs: tuple) -> dict:
    """Full train/predict/decode/evaluate chain for one seed on the run's `inputs`.

    Returns {(p_cc, granularity): EvalReport}.
    """
    eval_corpus, train_corpus, matrices = inputs
    if matrices is not None:
        return _decode_and_score(
            cfg, seed, "ext", matrices,
            lambda: gold_documents(eval_corpus.units, [m.n for m in matrices]),
        )

    out_dir = cfg.paths.output_dir
    with _stage("train"):
        fp = _fingerprint(train_corpus, cfg, seed)
        model_path = os.path.join(out_dir, f"model_seed{seed}_{fp}.bin")
        if os.path.exists(model_path):
            model = model_mod.load_model(model_path)
        else:
            model = model_mod.train(
                train_corpus, cfg.augment, seed=seed, model_cfg=cfg.model
            )
            model_mod.save_model(model, model_path)

    reports = {}
    for p_cc in cfg.eval_p_cc:
        with _stage("predict"):
            docs = _eval_docs(eval_corpus, cfg, p_cc, seed)
            matrices = model_mod.predict(model, [ex.words for ex in docs])
            model_mod.write_prob_documents(
                os.path.join(out_dir, f"probs_seed{seed}_{_setting_tag(p_cc)}.tsv"),
                [(list(ex.words), m) for ex, m in zip(docs, matrices)],
            )

        reports.update(_decode_and_score(
            cfg, seed, p_cc, matrices,
            lambda: [(gold_word_labels(ex.provenance), ex.words) for ex in docs],
        ))
    return reports


def decode_documents(matrices, method: str, decoder: DecoderConfig, interp: InterpConfig) -> list:
    """Decode each document, mixing in its unidirectional columns when it has them."""
    return [
        decode_document(interpolate(m, interp) if m.has_uni else m, method, decoder)
        for m in matrices
    ]


def _decode_and_score(cfg: PipelineConfig, seed: int, setting, matrices, gold_docs) -> dict:
    """Decode and write the span file, then score it at each granularity.

    `gold_docs()` returns the (gold word labels, words) of each document; it
    is called only once the span file is written.  Returns {(setting, granularity): EvalReport}.
    """
    out_dir = cfg.paths.output_dir
    tag = f"seed{seed}_{_setting_tag(setting)}"
    with _stage("decode"):
        results = decode_documents(matrices, cfg.method, cfg.decoder, cfg.interp)
        write_span_file(os.path.join(out_dir, f"spans_{tag}_{cfg.method}.jsonl"), results)
    with _stage("evaluate"):
        scored = [(gold, res.labels, words) for (gold, words), res in zip(gold_docs(), results)]
        reports = {}
        for gran in cfg.granularities:
            report = evaluation.evaluate_documents(scored, gran)
            reports[(setting, gran)] = report
            write_json(
                os.path.join(out_dir, f"report_{tag}_{gran}_{cfg.method}.json"), report.to_dict()
            )
        return reports


def run_pipeline(cfg: PipelineConfig, parallel_seeds: bool = False) -> dict:
    """Run every seed and aggregate; returns {(p_cc, gran): AggregateReport}."""
    os.makedirs(cfg.paths.output_dir, exist_ok=True)
    inputs = _load_inputs(cfg)
    if parallel_seeds and len(cfg.seeds) > 1:
        # imported here so that `import sentid` does not load the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(cfg.seeds), os.cpu_count() or 1)) as pool:
            per_seed = list(pool.map(_run_seed, repeat(cfg), cfg.seeds, repeat(inputs)))
    else:
        per_seed = [_run_seed(cfg, s, inputs) for s in cfg.seeds]

    aggregates = {}
    for key in per_seed[0]:
        agg = evaluation.aggregate([r[key] for r in per_seed])
        aggregates[key] = agg
        setting, gran = key
        path = os.path.join(
            cfg.paths.output_dir, f"aggregate_{_setting_tag(setting)}_{gran}_{cfg.method}.json"
        )
        write_json(path, agg.to_dict())
    return aggregates
