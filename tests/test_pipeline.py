"""Pipeline configuration and end-to-end stage orchestration."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sentid
from sentid import model as model_mod
from sentid import pipeline as pipeline_mod
from sentid.cli import CLI_METHODS
from sentid.cli import main as cli_main
from sentid.corpus import Corpus
from sentid.model import ProbMatrix, write_prob_documents
from sentid.decode import METHODS
from sentid.labels import GRANULARITIES
from sentid.pipeline import (
    ConfigError,
    PipelineError,
    _setting_tag,
    config_from_dict,
    load_config,
    report_setting,
    run_pipeline,
)

from synth import synthetic_corpus


def external_probs(tmp_path, evalc, uni: bool, seed: int = 0):
    """A random probability file whose documents are consecutive units of `evalc`."""
    rng = np.random.default_rng(seed)
    docs = []
    k = 0
    units = evalc.units
    while k < len(units):
        step = min(int(rng.integers(2, 5)), len(units) - k)
        chunk = units[k : k + step]
        k += step
        words = [w for u in chunk for w in u.words]
        n = len(words)
        docs.append((words, ProbMatrix(*(rng.random(n) for _ in range(4 if uni else 2)))))
    probs_path = tmp_path / "ext.tsv"
    write_prob_documents(probs_path, docs)
    return probs_path


def base_config(tmp_path, **overrides):
    train = synthetic_corpus(160, seed=100)
    evalc = synthetic_corpus(80, seed=200)
    train_path = tmp_path / "train.jsonl"
    eval_path = tmp_path / "eval.jsonl"
    train.save(train_path)
    evalc.save(eval_path)
    data = {
        "version": 1,
        "seeds": [0, 1],
        "method": "bos_eos",
        "granularities": ["word", "char"],
        "paths": {
            "train_corpus": str(train_path),
            "eval_corpus": str(eval_path),
            "output_dir": str(tmp_path / "runs"),
        },
        "model": {"window_radius": 2, "hash_dim": 2**13, "epochs": 2},
        "eval": {"p_cc_values": [0.5]},
    }
    data.update(overrides)
    return data


def treebank_config(tmp_path) -> dict:
    """A one-seed config whose training and evaluation corpora come from a toy treebank."""
    blocks = []
    for k in range(30):
        blocks.append(
            f"1\tThe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
            f"2\tcat{k % 5}\t_\t_\t_\t_\t3\tnsubj\t_\t_\n"
            f"3\tslept\t_\t_\t_\t_\t0\troot\t_\tSpaceAfter=No\n"
            f"4\t.\t_\t_\t_\t_\t3\tpunct\t_\t_"
        )
        blocks.append(f"1\t{k:02d}/01\t_\t_\t_\t_\t0\troot\t_\t_")
    treebank = tmp_path / "toy.conllu"
    treebank.write_text("\n\n".join(blocks) + "\n")
    return {
        "seeds": [0],
        "granularities": ["word"],
        "paths": {
            "treebank_train": str(treebank),
            "treebank_eval": str(treebank),
            "output_dir": str(tmp_path / "runs"),
        },
        "model": {"window_radius": 2, "hash_dim": 2**12, "epochs": 1},
        "eval": {"p_cc_values": [0.5]},
    }


def probs_config(tmp_path) -> dict:
    """A one-seed config that decodes an external probability file against an evaluation corpus."""
    evalc = synthetic_corpus(12, seed=5)
    eval_path = tmp_path / "eval.jsonl"
    evalc.save(eval_path)
    return {
        "seeds": [0],
        "granularities": ["word"],
        "paths": {
            "eval_corpus": str(eval_path),
            "probs": str(external_probs(tmp_path, evalc, uni=True)),
            "output_dir": str(tmp_path / "runs"),
        },
    }


SOURCES = {
    "corpus": base_config,
    "treebank": treebank_config,
    "probs": probs_config,
}
# the sources a run of several seeds can take: a probs run takes one seed
MULTI_SEED_SOURCES = sorted(set(SOURCES) - {"probs"})


def artifacts(directory) -> dict:
    """{file name: bytes} of every file a run wrote to `directory`."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestConfig:
    def test_defaults(self, tmp_path):
        cfg = config_from_dict({"seeds": [1]})
        assert cfg.augment.p_cc == 0.5
        assert cfg.augment.p_da == 0.3
        assert cfg.augment.p_tr == 0.1
        assert cfg.interp.lam == 0.5
        assert cfg.decoder.candidate_threshold == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"seeds": [1], "bogus": 2})
        with pytest.raises(ConfigError, match="decoder.thresold"):
            config_from_dict({"seeds": [1], "decoder": {"thresold": 0.1}})

    def test_section_keys_are_dataclass_fields(self):
        cfg = config_from_dict(
            {"seeds": [1], "paths": {"probs": "p.tsv"}, "augment": {"end_punct_set": "."}}
        )
        assert cfg.paths.probs == "p.tsv" and cfg.augment.end_punct_set == "."
        # rng_seed was accepted and read nowhere
        with pytest.raises(ConfigError, match="augment.rng_seed"):
            config_from_dict({"seeds": [1], "augment": {"rng_seed": 3}})

    def test_seeds_required(self):
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict({})

    def test_repeated_seed_rejected(self):
        # [0, 0] used to aggregate one model's reports as two runs, with std 0
        with pytest.raises(ConfigError, match="^seeds: seed 0 is given more than once$"):
            config_from_dict({"seeds": [0, 1, 0]})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"eval": {"p_cc_values": [0.5, 0.0, 0.5]}}, "eval.p_cc_values: p_cc 0.5"),
            # compared as numbers: 1 and 1.0 are one setting
            ({"eval": {"p_cc_values": [1, 1.0]}}, "eval.p_cc_values: p_cc 1.0"),
            ({"eval": {"p_cc_values": [0, 0.0]}}, "eval.p_cc_values: p_cc 0.0"),
            ({"granularities": ["word", "char", "word"]}, "granularities: granularity 'word'"),
        ],
    )
    def test_repeated_setting_rejected(self, data, message):
        # a repeated setting used to run twice, the second pass overwriting the first's files
        with pytest.raises(ConfigError) as info:
            config_from_dict({"seeds": [1], **data})
        assert str(info.value) == f"{message} is given more than once"

    def test_bad_setting_reported_before_repeat(self):
        with pytest.raises(ConfigError, match="^granularities: unknown granularity 'x'$"):
            config_from_dict({"seeds": [1], "granularities": ["word", "word", "x"]})
        with pytest.raises(ConfigError, match=r"^eval.p_cc_values: 2 not in \[0, 1\]$"):
            config_from_dict({"seeds": [1], "eval": {"p_cc_values": [0.5, 0.5, 2]}})

    @pytest.mark.parametrize(
        "model", [{"epochs": 0}, {"learning_rate": -0.5}, {"lr_decay": 1.5}],
        ids=["zero-epochs", "negative-lr", "lr-decay-above-one"],
    )
    def test_untrainable_model_section_rejected(self, model):
        with pytest.raises(ConfigError, match=f"^model: {next(iter(model))} "):
            config_from_dict({"seeds": [1], "model": model})

    def test_lambda_range_checked(self):
        with pytest.raises(ConfigError, match="interp"):
            config_from_dict({"seeds": [1], "interp": {"lam": 1.5}})

    def test_probs_run_takes_one_seed(self, tmp_path, capsys):
        # every seed used to decode the same file: identical reports, aggregated with std 0
        data = probs_config(tmp_path)
        data["seeds"] = [0, 1]
        message = "seeds: a run on paths.probs takes one seed, got 2"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config_from_dict(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert cli_main(["pipeline", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_seed_flag_narrows_probs_run_before_checks(self, tmp_path, capsys):
        # the flag used to replace the seeds after the two-seed config was rejected (exit 1)
        data = probs_config(tmp_path)
        data["seeds"] = [0, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        out_dir = tmp_path / "elsewhere"
        argv = ["pipeline", "--config", str(cfg_path), "--seed", "1", "--output-dir", str(out_dir)]
        assert cli_main(argv) == 0
        assert "n=1" in capsys.readouterr().out
        assert sorted(p.name for p in out_dir.glob("report_*.json")) == [
            "report_seed1_ext_word_bos_eos.json"
        ]
        assert not (tmp_path / "runs").exists()

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            config_from_dict({"seeds": [1], "method": "magic"})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_load_config_round_trip(self, tmp_path):
        data = base_config(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        cfg = load_config(path)
        assert cfg.seeds == (0, 1)
        assert cfg.model.hash_dim == 2**13


class TestRunPipeline:
    def test_end_to_end_artifacts(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        aggregates = run_pipeline(cfg)
        assert (0.5, "word") in aggregates and (0.5, "char") in aggregates
        agg = aggregates[(0.5, "word")]
        assert agg.n_runs == 2
        # sentence count is granularity-invariant, so B supports agree
        char_agg = aggregates[(0.5, "char")]
        assert char_agg.label_f1.keys() == agg.label_f1.keys()
        out = tmp_path / "runs"
        names = sorted(os.listdir(out))
        assert any(n.startswith("model_seed0") for n in names)
        assert any(n.startswith("probs_seed1_pcc0_5") for n in names)
        assert any(n.startswith("spans_seed0_pcc0_5_bos_eos") for n in names)
        assert any(n.startswith("aggregate_pcc0_5_word") for n in names)

    def test_repeated_seed_byte_identical_reports(self, tmp_path):
        data = base_config(tmp_path, seeds=[7])
        cfg = config_from_dict(data)
        run_pipeline(cfg)
        artifacts = [
            tmp_path / "runs" / "report_seed7_pcc0_5_word_bos_eos.json",
            tmp_path / "runs" / "probs_seed7_pcc0_5.tsv",
            tmp_path / "runs" / "spans_seed7_pcc0_5_bos_eos.jsonl",
        ]
        first = [p.read_bytes() for p in artifacts]
        run_pipeline(cfg)  # reuses the cached model, regenerates downstream
        assert [p.read_bytes() for p in artifacts] == first

    def test_stage_error_names_stage(self, tmp_path):
        data = base_config(tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        data["paths"]["train_corpus"] = str(bad)
        with pytest.raises(PipelineError, match="load-corpus"):
            run_pipeline(config_from_dict(data))

    def test_training_to_non_finite_weights_fails_in_train(self, tmp_path):
        # this used to cache the model and fail in 'predict' on its probabilities,
        # and a rerun then failed in 'train' on loading the cached model
        data = base_config(tmp_path, seeds=[1])
        data["model"]["learning_rate"] = 1e308
        for _ in range(2):
            with pytest.raises(PipelineError) as info:
                run_pipeline(config_from_dict(data))
            assert info.value.stage == "train"
            assert "non-finite weight in head bos_bi at learning_rate 1e+308" in str(info.value)
        assert not list((tmp_path / "runs").glob("model_*.bin"))

    def test_external_probs_mode(self, tmp_path):
        evalc = synthetic_corpus(12, seed=5)
        eval_path = tmp_path / "eval.jsonl"
        evalc.save(eval_path)
        probs_path = external_probs(tmp_path, evalc, uni=False)
        data = {
            "seeds": [0],
            "granularities": ["word"],
            "paths": {
                "eval_corpus": str(eval_path),
                "probs": str(probs_path),
                "output_dir": str(tmp_path / "runs"),
            },
        }
        aggregates = run_pipeline(config_from_dict(data))
        assert ("ext", "word") in aggregates

    @pytest.mark.parametrize("uni", [False, True])
    @pytest.mark.parametrize("method", ["eos", "eos_force", "bos_eos"])
    def test_decode_command_matches_probs_mode(self, tmp_path, method, uni):
        # the CLI and the pipeline decode a probability file through one path
        evalc = synthetic_corpus(30, seed=7)
        eval_path = tmp_path / "eval.jsonl"
        evalc.save(eval_path)
        probs_path = external_probs(tmp_path, evalc, uni=uni, seed=3)
        data = {
            "seeds": [0],
            "method": method,
            "granularities": ["word"],
            "paths": {
                "eval_corpus": str(eval_path),
                "probs": str(probs_path),
                "output_dir": str(tmp_path / "runs"),
            },
            "decoder": {"candidate_threshold": 0.2},
            "interp": {"lam": 0.3},
        }
        run_pipeline(config_from_dict(data))
        cli_spans = tmp_path / "cli_spans.jsonl"
        cli_method = {v: k for k, v in CLI_METHODS.items()}[method]
        assert cli_main([
            "decode", "--probs", str(probs_path), "--method", cli_method,
            "--threshold", "0.2", "--lambda", "0.3", "--out", str(cli_spans),
        ]) == 0
        pipeline_spans = tmp_path / "runs" / f"spans_seed0_ext_{method}.jsonl"
        assert cli_spans.read_bytes() == pipeline_spans.read_bytes()

    def test_misaligned_probs_fail_in_evaluate_after_writing_spans(self, tmp_path):
        evalc = synthetic_corpus(12, seed=5)
        eval_path = tmp_path / "eval.jsonl"
        evalc.save(eval_path)
        # the probabilities cover one unit fewer than the evaluation corpus
        probs_path = external_probs(tmp_path, Corpus(evalc.units[:-1]), uni=True)
        data = {
            "seeds": [0],
            "paths": {
                "eval_corpus": str(eval_path),
                "probs": str(probs_path),
                "output_dir": str(tmp_path / "runs"),
            },
        }
        with pytest.raises(PipelineError, match="evaluate") as info:
            run_pipeline(config_from_dict(data))
        assert info.value.stage == "evaluate"
        assert (tmp_path / "runs" / "spans_seed0_ext_bos_eos.jsonl").exists()

    @pytest.mark.parametrize(
        "shape, message",
        [
            ("fewer", "predictions cover fewer tokens than the corpus"),
            ("more", "predictions cover more tokens than the corpus"),
            ("inside", "document of {cut} tokens does not align with unit boundaries"),
        ],
    )
    def test_misaligned_gold_keeps_the_walks_message(self, tmp_path, capsys, shape, message):
        """Documents are scored as the gold walk yields them; its errors stay those of
        the whole-list walk, at stage evaluate, after the span file is written, and
        `sentid evaluate` of that span file exits 2 with the same message."""
        evalc = synthetic_corpus(12, seed=5)
        eval_path = tmp_path / "eval.jsonl"
        evalc.save(eval_path)
        units = evalc.units
        words = [w for u in units for w in u.words]
        lengths = [len(u.words) for u in units]  # one document per unit
        cut = lengths[0] + 1
        assert lengths[1] > 1
        if shape == "fewer":
            lengths.pop()
        elif shape == "more":
            lengths.append(2)
            words += ["x", "y"]
        else:  # the first document ends inside the second unit
            lengths[:2] = [cut, sum(lengths[:2]) - cut]
        rng = np.random.default_rng(0)
        docs = []
        for n in lengths:
            docs.append((words[:n], ProbMatrix(rng.random(n), rng.random(n))))
            words = words[n:]
        write_prob_documents(tmp_path / "ext.tsv", docs)
        out = tmp_path / "runs"
        data = {
            "seeds": [0],
            "paths": {"eval_corpus": str(eval_path), "probs": str(tmp_path / "ext.tsv"),
                      "output_dir": str(out)},
        }
        with pytest.raises(PipelineError) as info:
            run_pipeline(config_from_dict(data))
        assert info.value.stage == "evaluate"
        assert str(info.value.cause) == message.format(cut=cut)
        assert sorted(os.listdir(out)) == ["spans_seed0_ext_bos_eos.jsonl"]
        capsys.readouterr()
        for granularity in GRANULARITIES:
            assert cli_main([
                "evaluate", "--gold", str(eval_path), "--pred",
                str(out / "spans_seed0_ext_bos_eos.jsonl"), "--granularity", granularity,
            ]) == 2
            assert capsys.readouterr().err == f"data error: {message.format(cut=cut)}\n"

    def test_treebank_only_cache_keyed_on_config(self, tmp_path, monkeypatch):
        # with no train_corpus path the cache key once was the literal "mem",
        # so a changed epochs count reloaded the old model
        data = treebank_config(tmp_path)
        trained = []
        real_train = model_mod.train

        def counting_train(*args, **kwargs):
            trained.append(kwargs["model_cfg"].epochs)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(model_mod, "train", counting_train)
        run_pipeline(config_from_dict(data))
        run_pipeline(config_from_dict(data))  # same config: cache hit
        assert trained == [1]
        data["model"]["epochs"] = 3
        run_pipeline(config_from_dict(data))
        assert trained == [1, 3]
        models = sorted((tmp_path / "runs").glob("model_seed0_*.bin"))
        assert len(models) == 2
        assert sorted(model_mod.load_model(m).config.epochs for m in models) == [1, 3]

    def test_corpus_path_is_never_a_cache(self, tmp_path, capsys):
        # a corpus path once doubled as an unkeyed cache of the converted
        # treebank: set next to the treebank, it kept the first run's
        # conversion, so a changed rules section reused the stale corpus and
        # its model, with exit 0
        data = treebank_config(tmp_path)
        run_pipeline(config_from_dict(data))
        written = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*")}
        assert written == {"toy.conllu", "runs"}
        assert not list((tmp_path / "runs").glob("*corpus*"))
        data["rules"] = {"core_arguments": [], "noncore_dependents": []}
        run_pipeline(config_from_dict(data))  # every unit is now an NSU
        assert len(list((tmp_path / "runs").glob("model_seed0_*.bin"))) == 2

        for split, treebank in (("train", "treebank_train"), ("eval", "treebank_eval")):
            both = json.loads(json.dumps(data))
            both["paths"][f"{split}_corpus"] = str(tmp_path / f"{split}.jsonl")
            message = f"paths: set paths.{split}_corpus or paths.{treebank}, not both"
            with pytest.raises(ConfigError, match=f"^{message}$"):
                config_from_dict(both)
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(both))
            assert cli_main(["pipeline", "--config", str(cfg_path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not (tmp_path / f"{split}.jsonl").exists()

    def test_import_does_not_load_process_pool(self):
        # run_pipeline imports the pool only when it runs seeds in parallel
        code = "import sys, sentid; print('concurrent.futures.process' in sys.modules)"
        src = os.path.dirname(os.path.dirname(sentid.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == "False"

    def test_parallel_seeds_matches_sequential(self, tmp_path):
        for source in MULTI_SEED_SOURCES:
            root = tmp_path / source
            root.mkdir()
            data = SOURCES[source](root)
            data["seeds"] = [0, 1]
            seq = run_pipeline(config_from_dict(data))
            data["paths"]["output_dir"] = str(root / "runs_par")
            par = run_pipeline(config_from_dict(data), parallel_seeds=True)
            assert par == seq
            assert artifacts(root / "runs_par") == artifacts(root / "runs")

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_inputs_read_once_per_run(self, tmp_path, monkeypatch, source):
        # every seed used to load or convert both corpora, and read the probability file, again
        data = SOURCES[source](tmp_path)
        data["seeds"] = [0] if source == "probs" else [0, 1, 2]
        reads = []

        def counting(name, fn):
            return lambda *args: reads.append(name) or fn(*args)

        monkeypatch.setattr(Corpus, "load", staticmethod(counting("load", Corpus.load)))
        for name in ("convert_treebank", "parse_conllu_file"):
            monkeypatch.setattr(pipeline_mod, name, counting(name, getattr(pipeline_mod, name)))
        monkeypatch.setattr(
            model_mod, "iter_prob_documents", counting("probs", model_mod.iter_prob_documents)
        )
        run_pipeline(config_from_dict(data))
        expected = {
            "corpus": ["load", "load"],
            "treebank": ["parse_conllu_file", "convert_treebank"] * 2,
            "probs": ["load", "probs"],
        }
        assert reads == expected[source]

    @pytest.mark.parametrize("source", MULTI_SEED_SOURCES)
    def test_seed_outputs_do_not_depend_on_earlier_seeds(self, tmp_path, source):
        # the seeds of a run share its inputs, so a seed must leave them as it found them
        data = SOURCES[source](tmp_path)
        data["seeds"] = [1]
        data["paths"]["output_dir"] = str(tmp_path / "alone")
        run_pipeline(config_from_dict(data))
        data["seeds"] = [0, 1]
        data["paths"]["output_dir"] = str(tmp_path / "after")
        run_pipeline(config_from_dict(data))
        alone = artifacts(tmp_path / "alone")
        seed1 = {n: b for n, b in artifacts(tmp_path / "after").items() if "seed1_" in n}
        assert seed1 == {n: b for n, b in alone.items() if "seed1_" in n}
        assert seed1

    def test_missing_corpus_names_its_path(self, tmp_path):
        data = base_config(tmp_path)
        missing = tmp_path / "missing.jsonl"
        data["paths"]["eval_corpus"] = str(missing)
        with pytest.raises(PipelineError) as info:
            run_pipeline(config_from_dict(data))
        assert str(info.value) == (
            f"stage 'load-corpus' failed: [Errno 2] No such file or directory: '{missing}'"
        )
        del data["paths"]["eval_corpus"]
        with pytest.raises(PipelineError) as info:
            run_pipeline(config_from_dict(data))
        assert str(info.value) == (
            "stage 'load-corpus' failed: no corpus: set paths.eval_corpus or paths.treebank_eval"
        )


class TestReportNames:
    """`evaluate --aggregate` reads a report's setting and method from its file name."""

    @given(
        seed=st.integers(0, 10**6),
        setting=st.one_of(
            st.floats(0.0, 1.0).map(_setting_tag),
            st.integers(0, 1).map(_setting_tag),
            st.just(_setting_tag("ext")),
        ),
        gran=st.sampled_from(GRANULARITIES),
        method=st.sampled_from(METHODS),
    )
    def test_round_trip(self, seed, setting, gran, method):
        # the name _decode_and_score writes; "eos_force" is not "eos" with a suffix
        assert report_setting(f"report_seed{seed}_{setting}_{gran}_{method}.json") == (
            setting, method
        )

    def test_pipeline_names_round_trip(self, tmp_path):
        data = base_config(tmp_path, seeds=[3], method="eos_force")
        data["eval"] = {"p_cc_values": [0.5, 1e-05, 0]}
        run_pipeline(config_from_dict(data))
        names = sorted(p.name for p in (tmp_path / "runs").glob("report_*.json"))
        assert len(names) == 6
        assert {report_setting(n) for n in names} == {
            ("pcc0_5", "eos_force"), ("pcc1e-05", "eos_force"), ("pcc0_0", "eos_force")
        }

    def test_int_and_float_settings_share_names(self, tmp_path):
        # [1] used to write pcc1 and [1.0] pcc1_0: one setting, two names
        names = []
        for k, p_cc in enumerate([1, 1.0]):
            data = base_config(tmp_path, seeds=[0], granularities=["word"])
            data["eval"] = {"p_cc_values": [p_cc]}
            data["paths"]["output_dir"] = str(tmp_path / f"runs{k}")
            run_pipeline(config_from_dict(data))
            names.append(sorted(p.name for p in (tmp_path / f"runs{k}").iterdir()))
        assert names[0] == names[1]
        assert [n for n in names[0] if not n.startswith("model_")] == [
            "aggregate_pcc1_0_word_bos_eos.json",
            "probs_seed0_pcc1_0.tsv",
            "report_seed0_pcc1_0_word_bos_eos.json",
            "spans_seed0_pcc1_0_bos_eos.jsonl",
        ]

    def test_probs_run_names_share_the_ext_tag(self, tmp_path):
        # the aggregate used to be aggregate_pccext_*
        cfg = config_from_dict(probs_config(tmp_path))
        run_pipeline(cfg)
        names = sorted(p.name for p in (tmp_path / "runs").iterdir())
        grans = cfg.granularities
        assert names == sorted(
            [f"aggregate_ext_{g}_bos_eos.json" for g in grans]
            + [f"report_seed{cfg.seeds[0]}_ext_{g}_bos_eos.json" for g in grans]
            + [f"spans_seed{cfg.seeds[0]}_ext_bos_eos.jsonl"]
        )

    @pytest.mark.parametrize(
        "name",
        [
            "report_a.json",
            "report_seed0.json",
            "report_seed0_pcc0_5_word_magic.json",
            "report_seed0_pcc0_5_token_bos_eos.json",
            "report_seed0_pccx_word_bos_eos.json",
            "report_seed0_pcc0_5_word_bos_eos.json.bak",
            "aggregate_pcc0_5_word_bos_eos.json",
        ],
    )
    def test_other_names_give_none(self, name):
        assert report_setting(name) is None
