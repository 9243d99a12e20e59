"""CLI subcommands end to end, including exit codes."""

import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from sentid import augment as augment_mod
from sentid import cli as cli_mod
from sentid import model as model_mod
from sentid import pipeline as pipeline_mod
from sentid.augment import AugmentConfig
from sentid.cli import build_parser, main
from sentid.corpus import Corpus
from sentid.decode import DecoderConfig
from sentid.model import InterpConfig, ModelConfig

from oracles import model_from_dense, zero_heads
from synth import synthetic_corpus, unit_from_words

CONLLU = """\
1\tThank\t_\t_\t_\t_\t0\troot\t_\t_
2\tyou\t_\t_\t_\t_\t1\tobj\t_\tSpaceAfter=No
3\t.\t_\t_\t_\t_\t1\tpunct\t_\t_

1\t-\t_\t_\t_\t_\t2\tpunct\t_\t_
2\tTEXT.htm\t_\t_\t_\t_\t0\troot\t_\t_
"""


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    synthetic_corpus(60, seed=1).save(path)
    return path


def run(*argv):
    return main(list(argv))


class TestConvert:
    def test_convert_with_stats(self, tmp_path, capsys):
        src = tmp_path / "sample.conllu"
        src.write_text(CONLLU)
        out = tmp_path / "corpus.jsonl"
        stats = tmp_path / "stats.json"
        assert run(
            "convert", "--input", str(src), "--output", str(out), "--stats", str(stats)
        ) == 0
        recs = [json.loads(x) for x in out.read_text().splitlines()]
        assert [r["is_su"] for r in recs] == [True, False]
        assert recs[0]["text"] == "Thank you."
        loaded = json.loads(stats.read_text())
        assert loaded["su_count"] == 1 and loaded["nsu_count"] == 1

    def test_convert_directory(self, tmp_path):
        (tmp_path / "a.conllu").write_text(CONLLU)
        (tmp_path / "b.conllu").write_text(CONLLU)
        out = tmp_path / "corpus.jsonl"
        assert run("convert", "--input", str(tmp_path), "--output", str(out)) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_malformed_input_is_data_error(self, tmp_path):
        src = tmp_path / "bad.conllu"
        src.write_text("1\tonly\tthree\n")
        assert run("convert", "--input", str(src), "--output", str(tmp_path / "o")) == 2

    # a list or deep nesting used to exit 3; a string became a set of its letters
    @pytest.mark.parametrize(
        "rules, error",
        [
            ("[]", "rules must be a JSON object"),
            ('{"core_arguments": "nsubj"}',
             "core_arguments must be a list of relation names, got 'nsubj'"),
            ("[" * 100_000, "maximum recursion depth exceeded"),
            ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ('{"core": []}', "unknown rule keys: ['core']"),
        ],
        ids=["list", "rules-string", "deep-nesting", "unparsable", "unknown-key"],
    )
    def test_malformed_rules_file_is_data_error(self, tmp_path, capsys, rules, error):
        src = tmp_path / "sample.conllu"
        src.write_text(CONLLU)
        rules_path = tmp_path / "rules.json"
        rules_path.write_text(rules)
        assert run(
            "convert", "--input", str(src), "--rules", str(rules_path),
            "--output", str(tmp_path / "o"),
        ) == 2
        # every error names the rules file; the value, parse and key errors used not to
        err = capsys.readouterr().err
        if rules.startswith("[["):  # the rest of the parser's message varies by Python version
            assert err.startswith(f"data error: {rules_path}: {error}")
        else:
            assert err == f"data error: {rules_path}: {error}\n"


class TestTrainPredictDecodeEvaluate:
    def test_full_chain(self, tmp_path, corpus_path, capsys):
        model = tmp_path / "model.bin"
        assert run(
            "train", "--corpus", str(corpus_path), "--out", str(model),
            "--epochs", "2", "--seed", "3", "--window", "2", "--hash-dim", str(2**13),
        ) == 0

        docs = tmp_path / "docs.txt"
        docs.write_text("The cat sat on the mat . 02/01/2003 08:30 PM\nA dog ran in the park .\n")
        probs = tmp_path / "probs.tsv"
        assert run("predict", "--model", str(model), "--input", str(docs), "--out", str(probs)) == 0
        header = probs.read_text().splitlines()[0]
        assert header.startswith("#probs v1")

        spans = tmp_path / "spans.jsonl"
        assert run(
            "decode", "--probs", str(probs), "--method", "bosEos", "--out", str(spans)
        ) == 0
        recs = [json.loads(x) for x in spans.read_text().splitlines()]
        assert len(recs) == 2
        assert all(set(r) == {"spans", "labels", "log_prob"} for r in recs)

    def test_decode_stdout_and_methods(self, tmp_path, capsys):
        probs = tmp_path / "p.tsv"
        probs.write_text(
            "#probs v1 uni=0\n0\tHi\t0.9\t0.1\n1\t.\t0.05\t0.95\n2\t***\t0.01\t0.02\n"
        )
        for method in ("eos", "eos-force", "bosEos"):
            assert run("decode", "--probs", str(probs), "--method", method) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert json.loads(out[-1])["labels"] == "BIO"

    def test_evaluate_against_gold(self, tmp_path, capsys):
        corpus = tmp_path / "gold.jsonl"
        synthetic_corpus(10, seed=2).save(corpus)
        units = synthetic_corpus(10, seed=2).units
        # perfect prediction: one document covering the whole corpus
        labels = "".join(
            ("B" + "I" * (len(u.words) - 1)) if u.is_su else "O" * len(u.words) for u in units
        )
        seq_spans = []
        pos = 0
        for u in units:
            if u.is_su:
                seq_spans.append([pos, pos + len(u.words)])
            pos += len(u.words)
        spans = tmp_path / "pred.jsonl"
        spans.write_text(
            json.dumps({"spans": seq_spans, "labels": labels, "log_prob": 0.0}) + "\n"
        )
        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--gold", str(corpus), "--pred", str(spans),
            "--granularity", "word", "--out", str(report),
        ) == 0
        data = json.loads(report.read_text())
        assert data["macro_f1"] == 1.0 and data["span_f1"] == 1.0
        table = capsys.readouterr().out
        assert "macro" in table and "span" in table
        char_report = tmp_path / "report_char.json"
        assert run(
            "evaluate", "--gold", str(corpus), "--pred", str(spans),
            "--granularity", "char", "--out", str(char_report),
        ) == 0
        char_data = json.loads(char_report.read_text())
        assert char_data["granularity"] == "char" and char_data["macro_f1"] == 1.0
        assert char_data["labels"]["B"]["support"] == data["labels"]["B"]["support"]

    @pytest.mark.parametrize(
        "field, value", [("words", [12]), ("is_su", "false"), ("char_offsets", [[0, 2.0]])]
    )
    def test_evaluate_malformed_gold_record_is_data_error(self, tmp_path, capsys, field, value):
        # "words": [12] used to crash char rendering (exit 3)
        rec = {"text": "ab", "words": ["ab"], "char_offsets": [[0, 2]], "is_su": True}
        corpus = tmp_path / "gold.jsonl"
        corpus.write_text(json.dumps({**rec, field: value}) + "\n")
        spans = tmp_path / "pred.jsonl"
        spans.write_text(json.dumps({"spans": [[0, 1]], "labels": "B", "log_prob": 0.0}) + "\n")
        assert run(
            "evaluate", "--gold", str(corpus), "--pred", str(spans), "--granularity", "char"
        ) == 2
        assert "bad corpus record on line 1" in capsys.readouterr().err

    def test_evaluate_boolean_span_end_is_data_error(self, tmp_path, capsys):
        # [true, 2] used to load as the span (1, 2)
        rec = {"text": "a b", "words": ["a", "b"], "char_offsets": [[0, 1], [2, 3]], "is_su": True}
        corpus = tmp_path / "gold.jsonl"
        corpus.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        spans = tmp_path / "pred.jsonl"
        spans.write_text(
            json.dumps({"spans": [[0, 2]], "labels": "BI", "log_prob": 0.0}) + "\n"
            + json.dumps({"spans": [[True, 2]], "labels": "OB", "log_prob": 0}) + "\n"
        )
        assert run("evaluate", "--gold", str(corpus), "--pred", str(spans)) == 2
        assert "bad span record on line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spans, labels, message",
        [
            ([[0, 2]], ["B", "X"], "labels contain ['X'], expected B/I/O"),
            ([[0, 2]], ["B", "I"], "labels do not render su_spans"),
            ([[0, 2]], 5, "'int' object is not iterable"),
            ([[0, 2]], "Bé", "labels contain ['é'], expected B/I/O"),
            ([[0, 2]], "B\ud800", "labels contain ['\\ud800'], expected B/I/O"),
            # overlapping and unsorted spans used to load, painted, and score with exit 0
            ([[0, 1], [0, 2]], "BI", "span (0, 2) out of order: the previous span ends at 1"),
            ([[1, 2], [0, 1]], "BB", "span (0, 1) out of order: the previous span ends at 2"),
        ],
    )
    def test_evaluate_bad_span_record_is_data_error(
        self, tmp_path, capsys, spans, labels, message
    ):
        rec = {"text": "a b", "words": ["a", "b"], "char_offsets": [[0, 1], [2, 3]], "is_su": True}
        corpus = tmp_path / "gold.jsonl"
        corpus.write_text(json.dumps(rec) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"spans": spans, "labels": labels, "log_prob": 0.0}) + "\n")
        assert run("evaluate", "--gold", str(corpus), "--pred", str(pred)) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pred}: bad span record on line 1: {message}\n"

    @pytest.mark.parametrize("log_prob", ["-1.5", "inf", True, float("nan")])
    def test_evaluate_bad_log_prob_is_data_error(self, tmp_path, capsys, log_prob):
        rec = {"text": "a b", "words": ["a", "b"], "char_offsets": [[0, 1], [2, 3]], "is_su": True}
        corpus = tmp_path / "gold.jsonl"
        corpus.write_text(json.dumps(rec) + "\n")
        pred = tmp_path / "pred.jsonl"
        span = {"spans": [[0, 2]], "labels": "BI", "log_prob": log_prob}
        pred.write_text(json.dumps(span) + "\n")
        assert run("evaluate", "--gold", str(corpus), "--pred", str(pred)) == 2
        message = f"log_prob must be a finite number, got {log_prob!r}"
        err = capsys.readouterr().err
        assert err == f"data error: {pred}: bad span record on line 1: {message}\n"

    @pytest.mark.parametrize(
        "command",
        [
            ["evaluate", "--granularity", "word"],
            ["evaluate", "--granularity", "char"],
            ["train", "--ptr", "1.0"],
            ["train"],
            ["augment", "--count", "2"],
        ],
        ids=["evaluate-word", "evaluate-char", "train-truncating", "train", "augment"],
    )
    def test_empty_unit_is_data_error(self, tmp_path, capsys, command):
        # an empty SU unit used to load: evaluate saw 6 gold labels for 5 words,
        # truncation drew a word from none (numpy's "high <= 0"), and train exited 0
        empty = {"text": "", "words": [], "char_offsets": [], "is_su": True}
        words = ["I", "saw", "it", "today", "."]
        offsets = [[0, 1], [2, 5], [6, 8], [9, 14], [14, 15]]
        rec = {"text": "I saw it today.", "words": words, "char_offsets": offsets, "is_su": True}
        corpus = tmp_path / "gold.jsonl"
        corpus.write_text(json.dumps(empty) + "\n" + json.dumps(rec) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"spans": [], "labels": "O" * 5, "log_prob": 0.0}) + "\n")
        out = str(tmp_path / "out")
        args = {
            "evaluate": ["--gold", str(corpus), "--pred", str(pred)],
            "train": ["--corpus", str(corpus), "--out", out, "--epochs", "1"],
            "augment": ["--corpus", str(corpus), "--out", out],
        }[command[0]]
        assert run(*command, *args) == 2
        message = "a unit needs at least one word"
        assert capsys.readouterr().err == (
            f"data error: {corpus}: bad corpus record on line 1: {message}\n"
        )

    def test_evaluate_alignment_error(self, tmp_path):
        corpus = tmp_path / "gold.jsonl"
        synthetic_corpus(4, seed=3).save(corpus)
        spans = tmp_path / "pred.jsonl"
        spans.write_text(json.dumps({"spans": [], "labels": "OO", "log_prob": 0.0}) + "\n")
        assert run("evaluate", "--gold", str(corpus), "--pred", str(spans)) == 2


class TestFullChainOnTreebank:
    def test_convert_train_predict_decode_evaluate(self, tmp_path, capsys):
        # a small treebank: sentences with arguments, plus noise-only lines
        blocks = []
        for k in range(40):
            blocks.append(
                "\n".join(
                    [
                        f"1\tThe\t_\t_\t_\t_\t2\tdet\t_\t_",
                        f"2\tcat{k % 5}\t_\t_\t_\t_\t3\tnsubj\t_\t_",
                        f"3\tslept\t_\t_\t_\t_\t0\troot\t_\t_",
                        f"4\ttoday\t_\t_\t_\t_\t3\tadvmod\t_\tSpaceAfter=No",
                        f"5\t.\t_\t_\t_\t_\t3\tpunct\t_\t_",
                    ]
                )
            )
            blocks.append(
                "\n".join(
                    [
                        f"1\t{k:02d}/01\t_\t_\t_\t_\t0\troot\t_\t_",
                        f"2\t08:{k % 60:02d}\t_\t_\t_\t_\t1\tflat\t_\t_",
                    ]
                )
            )
        treebank = tmp_path / "toy.conllu"
        treebank.write_text("\n\n".join(blocks) + "\n")

        corpus = tmp_path / "corpus.jsonl"
        assert run("convert", "--input", str(treebank), "--output", str(corpus)) == 0

        model = tmp_path / "model.bin"
        assert run(
            "train", "--corpus", str(corpus), "--out", str(model),
            "--epochs", "3", "--window", "2", "--hash-dim", str(2**13), "--seed", "1",
        ) == 0

        # one document spanning the corpus, in unit order
        recs = [json.loads(x) for x in corpus.read_text().splitlines()]
        docs = tmp_path / "docs.txt"
        docs.write_text(" ".join(w for r in recs for w in r["words"]) + "\n")
        probs = tmp_path / "probs.tsv"
        assert run("predict", "--model", str(model), "--input", str(docs), "--out", str(probs)) == 0

        spans = tmp_path / "spans.jsonl"
        assert run("decode", "--probs", str(probs), "--method", "bosEos", "--out", str(spans)) == 0

        report = tmp_path / "report.json"
        assert run(
            "evaluate", "--gold", str(corpus), "--pred", str(spans), "--out", str(report)
        ) == 0
        data = json.loads(report.read_text())
        # the templates are trivially learnable: near-perfect identification
        assert data["span_f1"] > 0.9
        assert data["labels"]["O"]["f1"] > 0.9


class TestAugmentCommand:
    def test_writes_examples(self, tmp_path, corpus_path):
        out = tmp_path / "examples.jsonl"
        assert run(
            "augment", "--corpus", str(corpus_path), "--count", "12", "--seed", "5",
            "--out", str(out),
        ) == 0
        recs = [json.loads(x) for x in out.read_text().splitlines()]
        assert len(recs) == 12
        assert all({"words", "bos", "eos", "provenance"} == set(r) for r in recs)

    def test_deterministic(self, tmp_path, corpus_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(
                "augment", "--corpus", str(corpus_path), "--count", "8", "--seed", "9",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPipelineCommand:
    def test_runs_and_prints_aggregate(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        evalc = tmp_path / "eval.jsonl"
        synthetic_corpus(120, seed=11).save(train)
        synthetic_corpus(60, seed=12).save(evalc)
        cfg = {
            "seeds": [0, 1],
            "method": "bos_eos",
            "granularities": ["word"],
            "paths": {"train_corpus": str(train), "eval_corpus": str(evalc)},
            "model": {"window_radius": 2, "hash_dim": 2**13, "epochs": 2},
            "eval": {"p_cc_values": [0.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(
            "pipeline", "--config", str(cfg_path), "--output-dir", str(tmp_path / "runs")
        ) == 0
        out = capsys.readouterr().out
        assert "p_cc=0.5" in out and "macro_f1" in out

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [], "paths": {}}))
        assert run("pipeline", "--config", str(cfg_path)) == 1
        cfg_path.write_text(json.dumps({"seeds": [1], "mystery": True}))
        assert run("pipeline", "--config", str(cfg_path)) == 1

    @pytest.mark.parametrize(
        "fragment, message",
        [
            ({"rules": {"core_arguments": "nsubj"}}, "rules: core_arguments"),
            ({"model": {"ngram_orders": "12"}}, "model: ngram_orders"),
            ({"decoder": {"force_last_eos": True}}, "unknown key 'decoder.force_last_eos'"),
            ({"paths": {"output_dir": 5}}, "paths.output_dir: expected str"),
            ({"seeds": "12"}, "seeds: expected a list of int"),
            ({"eval": {"p_cc_values": "0.5"}}, "eval.p_cc_values: expected a list of float"),
        ],
        ids=["rules-string", "ngram-orders-string", "force-last-eos", "output-dir-number",
             "seeds-string", "p-cc-string"],
    )
    def test_mistyped_value_is_usage_error(self, tmp_path, capsys, fragment, message):
        # these used to run on a set of letters or on seeds 1 and 2, to be ignored, or to exit 3
        cfg = {"seeds": [1], "paths": {"output_dir": str(tmp_path / "runs")}, **fragment}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", str(cfg_path)) == 1
        assert message in capsys.readouterr().err

    def test_deeply_nested_config_is_usage_error(self, tmp_path):
        # the JSON parser's RecursionError used to exit 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seeds": [1], "x": ' + "[" * 100_000)
        assert run("pipeline", "--config", str(cfg_path)) == 1

    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        # [0, 0] used to aggregate one model's report twice as n=2, std 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [3, 0, 3]}))
        assert run("pipeline", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == "error: seeds: seed 3 is given more than once\n"

    @pytest.mark.parametrize(
        "fragment, message",
        [
            ({"eval": {"p_cc_values": [1, 0.5, 1.0]}}, "eval.p_cc_values: p_cc 1.0"),
            ({"granularities": ["char", "char"]}, "granularities: granularity 'char'"),
        ],
    )
    def test_repeated_setting_is_usage_error(self, tmp_path, capsys, fragment, message):
        # a repeated setting used to run twice, the second pass overwriting the first's files
        out_dir = tmp_path / "runs"
        cfg = {"seeds": [1], "paths": {"output_dir": str(out_dir)}, **fragment}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == f"error: {message} is given more than once\n"
        assert not out_dir.exists()

    def test_seed_error_exits_2_with_and_without_parallel_seeds(self, tmp_path, capsys):
        # a worker's PipelineError used to fail to unpickle: BrokenProcessPool, exit 3
        train = tmp_path / "train.jsonl"
        train.write_text("")
        evalc = tmp_path / "eval.jsonl"
        synthetic_corpus(10, seed=12).save(evalc)
        cfg = {
            "seeds": [0, 1],
            "paths": {"train_corpus": str(train), "eval_corpus": str(evalc),
                      "output_dir": str(tmp_path / "runs")},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        expected = "data error: stage 'train' failed: cannot train on an empty corpus\n"
        for extra in ([], ["--parallel-seeds"]):
            assert run("pipeline", "--config", str(cfg_path), *extra) == 2
            assert capsys.readouterr().err == expected

    def test_token_with_a_tab_fails_predict_with_exit_2(self, tmp_path, capsys):
        # the run used to exit 0 with a probability file that `decode --probs` refused
        evalc = tmp_path / "eval.jsonl"
        units = synthetic_corpus(19, seed=23).units
        Corpus([unit_from_words(["a\tb", "c", "."], True), *units]).save(evalc)
        train = tmp_path / "train.jsonl"
        synthetic_corpus(40, seed=24).save(train)
        out_dir = tmp_path / "runs"
        cfg = {
            "seeds": [0],
            "paths": {"train_corpus": str(train), "eval_corpus": str(evalc),
                      "output_dir": str(out_dir)},
            "model": {"window_radius": 1, "hash_dim": 2**10, "epochs": 1},
            "eval": {"p_cc_values": [0.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", str(cfg_path)) == 2
        assert capsys.readouterr().err == (
            "data error: stage 'predict' failed: "
            "document 0 row 0: token 'a\\tb' holds a tab or line break\n"
        )
        assert not list(out_dir.glob("probs_*"))

    def test_seed_override_runs_single_seed(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        evalc = tmp_path / "eval.jsonl"
        synthetic_corpus(80, seed=21).save(train)
        synthetic_corpus(40, seed=22).save(evalc)
        cfg = {
            "seeds": [0, 1, 2],
            "granularities": ["word"],
            "paths": {"train_corpus": str(train), "eval_corpus": str(evalc)},
            "model": {"window_radius": 2, "hash_dim": 2**12, "epochs": 1},
            "eval": {"p_cc_values": [0.5]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(
            "pipeline", "--config", str(cfg_path),
            "--output-dir", str(tmp_path / "runs"), "--seed", "5",
        ) == 0
        out = capsys.readouterr().out
        assert "n=1" in out  # single run aggregated
        reports = sorted(p.name for p in (tmp_path / "runs").glob("report_*.json"))
        assert reports == ["report_seed5_pcc0_5_word_bos_eos.json"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run("decode", "--nonsense") == 1

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(
            "decode", "--probs", str(tmp_path / "missing.tsv"), "--method", "eos"
        ) == 2

    def test_evaluate_requires_gold_and_pred(self):
        assert run("evaluate") == 1

    @pytest.mark.parametrize("bad", ["gold", "pred", "conllu"])
    def test_input_that_is_not_utf8_is_data_error_naming_the_file(self, tmp_path, capsys, bad):
        # the decoder's message alone used to leave the file unnamed
        rec = {"text": "a b", "words": ["a", "b"], "char_offsets": [[0, 1], [2, 3]], "is_su": True}
        span = {"spans": [[0, 2]], "labels": "BI", "log_prob": 0.0}
        files = {
            "gold": json.dumps(rec).encode() + b"\n",
            "pred": json.dumps(span).encode() + b"\n",
            "conllu": CONLLU.encode(),
        }
        files[bad] += b"\xff\n"
        paths = {name: tmp_path / f"{name}.txt" for name in files}
        for name, data in files.items():
            paths[name].write_bytes(data)
        if bad == "conllu":
            argv = ["convert", "--input", str(paths["conllu"]), "--output", str(tmp_path / "o")]
        else:
            argv = ["evaluate", "--gold", str(paths["gold"]), "--pred", str(paths["pred"])]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {paths[bad]}: 'utf-8' codec can't decode byte 0xff")

    def test_conllu_error_in_a_directory_names_the_file(self, tmp_path, capsys):
        # the line number alone used to leave the user guessing which file is bad
        treebank = tmp_path / "treebank"
        treebank.mkdir()
        (treebank / "a.conllu").write_text(CONLLU)
        (treebank / "b.conllu").write_text("1\tx\t_\n")
        assert run("convert", "--input", str(treebank), "--output", str(tmp_path / "o")) == 2
        bad = treebank / "b.conllu"
        assert capsys.readouterr().err == (
            f"data error: {bad}: line 1: expected 10 columns, got 3\n"
        )

    def test_overlapping_token_ranges_are_data_error(self, tmp_path, capsys):
        # the second range's form used to vanish from the text without a word
        src = tmp_path / "overlap.conllu"
        src.write_text(
            "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\ta\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2-3\tcd\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tb\t_\t_\t_\t_\t1\tobj\t_\t_\n"
            "3\tc\t_\t_\t_\t_\t1\tobj\t_\t_\n"
        )
        assert run("convert", "--input", str(src), "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"data error: {src}: line 3: token range 2-3 overlaps token range 1-2\n"
        )
        assert not (tmp_path / "o").exists()

    def test_word_ids_out_of_order_are_data_error(self, tmp_path, capsys):
        # ids 1 and 3 used to convert, with exit code 0, to the SU unit "He runs"
        src = tmp_path / "ids.conllu"
        src.write_text("1\tHe\t_\t_\t_\t_\t3\tnsubj\t_\t_\n3\truns\t_\t_\t_\t_\t0\troot\t_\t_\n")
        assert run("convert", "--input", str(src), "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"data error: {src}: line 2: word id '3', expected 2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case", ["decode", "decode-stdin", "pipeline-probs", "pipeline-config", "convert-rules"]
    )
    def test_other_input_that_is_not_utf8_names_the_file(
        self, tmp_path, capsys, monkeypatch, corpus_path, case
    ):
        bad = tmp_path / "bad.txt"
        probs = b"#probs v1 uni=0\n0\tHi\xff\t0.9\t0.2\n"
        paths = {"eval_corpus": str(corpus_path), "probs": str(bad), "output_dir": str(tmp_path)}
        config = {"seeds": [1], "paths": paths}
        treebank = tmp_path / "tb.conllu"
        treebank.write_text(CONLLU)
        data, argv, prefix = {
            "decode": (probs, ["decode", "--probs", str(bad), "--method", "eos"], f"{bad}: "),
            "decode-stdin": (probs, ["decode", "--probs", "-", "--method", "eos"], "<stdin>: "),
            "pipeline-probs": (
                probs, ["pipeline", "--config", str(tmp_path / "cfg.json")],
                f"stage 'load-probs' failed: {bad}: ",
            ),
            "pipeline-config": (
                b'{"seeds": [1]}\xff', ["pipeline", "--config", str(bad)], f"{bad}: "
            ),
            "convert-rules": (
                b'{"core_arguments": ["nsubj\xff"]}',
                ["convert", "--input", str(treebank), "--rules", str(bad), "--output",
                 str(tmp_path / "o")],
                f"{bad}: ",
            ),
        }[case]
        bad.write_bytes(data)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with pytest.raises(UnicodeDecodeError) as codec:
            data.decode("utf-8")  # a file this small is decoded in one piece
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"data error: {prefix}{codec.value}\n"

    def test_bad_flag_value_is_usage_error(self, tmp_path, corpus_path):
        probs = tmp_path / "p.tsv"
        probs.write_text("#probs v1 uni=0\n0\tx\t0.5\t0.5\n")
        assert run("decode", "--probs", str(probs), "--method", "eos", "--threshold", "1.5") == 1
        for hash_dim in ("1000", "0"):  # 0 used to pass the power-of-two check and exit 3
            assert run(
                "train", "--corpus", str(corpus_path), "--out", str(tmp_path / "m"),
                "--hash-dim", hash_dim,
            ) == 1
        assert run(
            "augment", "--corpus", str(corpus_path), "--count", "1",
            "--pcc", "2.0", "--out", str(tmp_path / "x"),
        ) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--epochs", "0"), "epochs must be at least 1, got 0"),
            (("--epochs", "-2"), "epochs must be at least 1, got -2"),
            (("--lr", "-0.5"), "learning_rate must be finite and > 0, got -0.5"),
            (("--lr", "nan"), "learning_rate must be finite and > 0, got nan"),
            (("--lr", "inf"), "learning_rate must be finite and > 0, got inf"),
        ],
        ids=["zero-epochs", "negative-epochs", "negative-lr", "nan-lr", "inf-lr"],
    )
    def test_untrainable_model_flags_are_usage_errors(
        self, tmp_path, capsys, corpus_path, flags, message
    ):
        # each of these used to save a model with untrained, saturated or NaN weights, with exit 0
        model = tmp_path / "m.bin"
        assert run("train", "--corpus", str(corpus_path), "--out", str(model), *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists()

    def test_training_to_non_finite_weights_is_data_error(self, tmp_path, corpus_path):
        # this used to save the model with exit 0, and `predict` then refused it; in a
        # fresh interpreter, with Python's own warning filters, numpy's overflow
        # warnings used to come before the error line
        model = tmp_path / "m.bin"
        argv = ["train", "--corpus", str(corpus_path), "--out", str(model)]
        src = os.path.dirname(os.path.dirname(cli_mod.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "sentid.cli", *argv, "--lr", "1e308", "--epochs", "2"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 2
        assert out.stderr == "data error: non-finite weight in head bos_bi at learning_rate 1e+308\n"
        assert not model.exists()

    @pytest.mark.parametrize("command", ["decode", "evaluate", "train", "pipeline"])
    def test_directory_for_a_file_is_data_error(self, tmp_path, capsys, corpus_path, command):
        # an OSError other than FileNotFoundError used to print a traceback and exit 3
        folder = tmp_path / "folder"
        folder.mkdir()
        taken = tmp_path / "taken"
        taken.write_text("a file where the output directory should go\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seeds": [0], "paths": {"output_dir": str(taken)}}))
        argv, errno = {
            "decode": (["decode", "--probs", str(folder), "--method", "eos"], 21),
            "evaluate": (["evaluate", "--gold", str(folder), "--pred", str(folder)], 21),
            "train": (["train", "--corpus", str(corpus_path), "--out", str(folder),
                       "--epochs", "1", "--hash-dim", "16"], 21),
            "pipeline": (["pipeline", "--config", str(cfg_path)], 17),
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: [Errno {errno}] ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "header",
        [
            "[]",
            {"config": {}, "heads": ["bos_bi", "eos_bi"]},
            {"config": {}, "seed": 0},
            {"seed": 0, "heads": ["bos_bi", "eos_bi"]},
            {"config": {"bogus": 1}, "seed": 0, "heads": ["bos_bi", "eos_bi"]},
            "[" * 100_000,
        ],
        ids=["array", "no-seed", "no-heads", "no-config", "unknown-config-key", "deep-nesting"],
    )
    def test_malformed_model_header_is_data_error(self, tmp_path, capsys, header):
        if isinstance(header, dict):
            header = json.dumps({"format": "sentid-model", "version": model_mod.MODEL_VERSION, **header})
        model = tmp_path / "bad_model.bin"
        model.write_text(header + "\n")
        docs = tmp_path / "docs.txt"
        docs.write_text("a b .\n")
        assert run(
            "predict", "--model", str(model), "--input", str(docs), "--out", str(tmp_path / "p")
        ) == 2
        assert "bad_model.bin" in capsys.readouterr().err

    def test_model_with_trailing_bytes_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        cfg = ModelConfig(hash_dim=2**4)
        model_mod.save_model(model_from_dense(cfg, 0, zero_heads(cfg)), model)
        model.write_bytes(model.read_bytes() + b"trailer")
        docs = tmp_path / "docs.txt"
        docs.write_text("a b .\n")
        assert run(
            "predict", "--model", str(model), "--input", str(docs), "--out", str(tmp_path / "p")
        ) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {model}: unexpected bytes after the last head\n"

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda data: data[:-8] + np.float64(np.nan).tobytes(), "non-finite weight in head bos_bi"),
            (lambda data: data[:-32] + data[-24:-16] + data[-32:-24] + data[-16:],
             "indices of head bos_bi are not strictly increasing"),
        ],
        ids=["nan", "unsorted"],
    )
    def test_corrupt_model_weights_are_data_error(self, tmp_path, capsys, corrupt, error):
        cfg = ModelConfig(hash_dim=2**4)
        heads = zero_heads(cfg)
        heads["bos_bi"][[3, 9]] = [0.5, -1.5]  # eos_bi stays empty, so bos_bi ends the file
        path = tmp_path / "model.bin"
        model_mod.save_model(model_from_dense(cfg, 0, heads), path)
        path.write_bytes(corrupt(path.read_bytes()))
        docs = tmp_path / "docs.txt"
        docs.write_text("a b .\n")
        assert run(
            "predict", "--model", str(path), "--input", str(docs), "--out", str(tmp_path / "p")
        ) == 2
        assert capsys.readouterr().err == f"data error: {path}: {error}\n"

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("window_radius", 2.5, "window_radius: expected int, got 2.5"),  # used to exit 3
            # these used to load and predict with exit 0
            ("seed", 7.9, "seed: expected int, got 7.9"),
            ("seed", "7", "seed: expected int, got '7'"),
            ("seed", True, "seed: expected int, got True"),
            ("window_radius", True, "window_radius: expected int, got True"),
            # used to exit 3 with numpy's memory error
            ("hash_dim", 2**40, "hash_dim must be a power of two up to 2**30, got 1099511627776"),
        ],
        ids=["float-radius", "float-seed", "string-seed", "bool-seed", "bool-radius",
             "huge-hash-dim"],
    )
    def test_mistyped_model_header_is_data_error(self, tmp_path, capsys, field, value, error):
        cfg = ModelConfig(hash_dim=2**4)
        path = tmp_path / "model.bin"
        model_mod.save_model(model_from_dense(cfg, 0, zero_heads(cfg)), path)
        header, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        if field == "seed":
            header["seed"] = value
        else:
            header["config"][field] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        docs = tmp_path / "docs.txt"
        docs.write_text("a b .\n")
        assert run(
            "predict", "--model", str(path), "--input", str(docs), "--out", str(tmp_path / "p")
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: bad model header: ValueError(")
        assert error in err

    def test_huge_hash_dim_is_usage_error(self, tmp_path, capsys, corpus_path):
        # train and the pipeline used to exit 3 with numpy's memory error
        message = "hash_dim must be a power of two up to 2**30, got 1099511627776"
        out = tmp_path / "m.bin"
        argv = ("train", "--corpus", str(corpus_path), "--out", str(out), "--hash-dim", str(2**40))
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        paths = {"train_corpus": str(corpus_path), "eval_corpus": str(corpus_path),
                 "output_dir": str(tmp_path / "runs")}
        cfg = {"seeds": [1], "paths": paths, "model": {"hash_dim": 2**40}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == f"error: model: {message}\n"


class TestStdinAndAggregate:
    def test_decode_from_stdin(self, monkeypatch, capsys):
        import io as _io

        monkeypatch.setattr(
            "sys.stdin", _io.StringIO("#probs v1 uni=0\n0\tHi\t0.9\t0.2\n1\t.\t0.1\t0.9\n")
        )
        assert run("decode", "--probs", "-", "--method", "bosEos") == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["labels"] == "BI"

    def test_decode_crlf_from_stdin(self, monkeypatch, capsys):
        # sys.stdin does not translate "\r\n"; the reader streams it line by line
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("#probs v1 uni=0\r\n0\tHi\t0.9\t0.2\r\n1\t.\t0.1\t0.9\r\n")
        )
        assert run("decode", "--probs", "-", "--method", "bosEos") == 0
        assert json.loads(capsys.readouterr().out.strip())["labels"] == "BI"

    def test_malformed_probs_from_stdin_is_data_error(self, monkeypatch, capsys):
        text = "#probs v1 uni=0\n0\tHi\t0.9\t0.2\n1\t.\tnan\t0.9\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run("decode", "--probs", "-", "--method", "bosEos") == 2
        assert capsys.readouterr().err == "data error: row 3: p_bos=nan outside [0, 1]\n"

    # each of these was read as some other header, and its rows decoded with exit 0
    @pytest.mark.parametrize(
        "header",
        ["#probs v1 uni=2", "#probs v1 uni=yes", "#probs v10 uni=0", "#probs v1x uni=0",
         "#probs v1 uni=1 uni=0", "#probs v1  uni=0", "#probs v1 uni=0 "],
    )
    def test_unknown_probs_header_is_data_error(self, monkeypatch, capsys, header):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n0\tHi\t0.9\t0.2\n"))
        assert run("decode", "--probs", "-", "--method", "bosEos") == 2
        expected = "expected '#probs v1', optionally with uni=0 or uni=1"
        assert capsys.readouterr().err == f"data error: bad header {header!r}: {expected}\n"

    def test_aggregate_directory(self, tmp_path, capsys):
        from sentid.evaluation import bio_f1
        from sentid.labels import LabelSeq

        runs = tmp_path / "runs"
        runs.mkdir()
        for k, pred in enumerate(("BIO", "BII")):
            report = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", pred))
            (runs / f"report_seed{k}.json").write_text(json.dumps(report.to_dict()))
        out = tmp_path / "agg.json"
        assert run("evaluate", "--aggregate", str(runs), "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["n_runs"] == 2
        table = capsys.readouterr().out
        assert "macro_f1" in table and "±" in table

    def test_aggregate_pipeline_run_of_two_settings_is_data_error(self, tmp_path, capsys):
        # these reports of two p_cc values were pooled as one setting (n=2), with exit 0
        train, evalc = tmp_path / "train.jsonl", tmp_path / "eval.jsonl"
        synthetic_corpus(60, seed=11).save(train)
        synthetic_corpus(30, seed=12).save(evalc)
        cfg = {
            "seeds": [0],
            "granularities": ["word"],
            "paths": {"train_corpus": str(train), "eval_corpus": str(evalc),
                      "output_dir": str(tmp_path / "runs")},
            "model": {"window_radius": 2, "hash_dim": 2**12, "epochs": 1},
            "eval": {"p_cc_values": [0.5, 0.0]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", str(cfg_path)) == 0
        capsys.readouterr()
        assert run("evaluate", "--aggregate", str(tmp_path / "runs")) == 2
        assert capsys.readouterr().err == (
            "data error: mixed (setting, method) pairs"
            " [('pcc0_0', 'bos_eos'), ('pcc0_5', 'bos_eos')]\n"
        )

    @pytest.mark.parametrize(
        "names, error",
        [
            (["report_seed0_pcc0_5_word_bos_eos.json", "report_seed1_pcc0_5_word_bos_eos.json"],
             None),
            (["report_seed0_ext_char_eos.json", "report_seed0_ext_char_eos_force.json"],
             "mixed (setting, method) pairs [('ext', 'eos'), ('ext', 'eos_force')]"),
            (["report_seed0_pcc1e-05_word_eos.json", "report_seed0_ext_word_eos.json"],
             "mixed (setting, method) pairs [('ext', 'eos'), ('pcc1e-05', 'eos')]"),
            # mixed granularities are named first, as before
            (["report_seed0_pcc0_5_word_eos.json", "report_seed0_pcc0_0_char_eos.json"],
             "mixed granularities ['char', 'word']"),
            # names the pipeline does not write are pooled as they are
            (["report_seed4_pcc0_word_eos_force.json", "report_a.json", "report_b.json"], None),
            (["report_a.json", "report_seed0_pcc0_5_word_magic.json"], None),
        ],
        ids=["one-setting", "two-methods", "two-settings", "two-granularities",
             "one-setting-and-others", "others"],
    )
    def test_aggregate_reads_setting_from_names(self, tmp_path, capsys, names, error):
        from sentid.evaluation import bio_f1
        from sentid.labels import LabelSeq

        runs = tmp_path / "runs"
        runs.mkdir()
        for name in names:
            gran = "char" if "_char_" in name else "word"
            report = bio_f1(LabelSeq(gran, "BIO"), LabelSeq(gran, "BII"))
            (runs / name).write_text(json.dumps(report.to_dict()))
        code = run("evaluate", "--aggregate", str(runs))
        captured = capsys.readouterr()
        if error is None:
            assert code == 0 and f"n={len(names)}," in captured.out
        else:
            assert code == 2 and captured.err == f"data error: {error}\n"

    def test_aggregate_empty_dir_is_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("evaluate", "--aggregate", str(empty)) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"granularity": "word"}',
            "[1]",
            (("span_f1",), "1.0"),
            (("span_f1",), True),
            "[" * 100_000,
            (("span_f1",), float("nan")),
            (("macro_f1",), float("inf")),
            (("span_recall",), 7.5),
            (("weighted_f1",), -0.25),
            (("labels", "B", "f1"), float("nan")),
            (("labels", "I", "precision"), 1.5),
            (("labels", "B", "support"), -1),
            (("labels", "O", "predicted"), -3),
        ],
        ids=[
            "missing-keys", "array", "string-score", "bool-score", "deep-nesting",
            "nan-score", "inf-score", "score-above-one", "negative-score",
            "nan-label-score", "label-score-above-one", "negative-support", "negative-predicted",
        ],
    )
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        from sentid.evaluation import bio_f1
        from sentid.labels import LabelSeq

        good = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BIO")).to_dict()
        if isinstance(text, tuple):  # one value of a good report replaced
            (*keys, last), value = text
            bad = json.loads(json.dumps(good))
            target = bad
            for key in keys:
                target = target[key]
            target[last] = value
            text = json.dumps(bad)  # NaN and Infinity as json.load reads them
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_a.json").write_text(json.dumps(good))
        (runs / "report_x.json").write_text(text)
        assert run("evaluate", "--aggregate", str(runs)) == 2
        assert "report_x.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, error",
        [
            ("label", "labels: expected labels of B/I/O, got ['B', 'I', 'O', 'X']"),
            ("granularity", "granularity: expected one of ('char', 'word'), got 'sentence'"),
        ],
        ids=["unknown-label", "unknown-granularity"],
    )
    def test_report_of_unknown_label_or_granularity_is_data_error(
        self, tmp_path, capsys, case, error
    ):
        # these used to aggregate with exit 0, a label X dropped from label_f1
        from sentid.evaluation import bio_f1
        from sentid.labels import LabelSeq

        good = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BIO")).to_dict()
        bad = json.loads(json.dumps(good))
        if case == "label":
            bad["labels"]["X"] = bad["labels"]["B"]
        else:
            bad["granularity"] = "sentence"
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "report_a.json").write_text(json.dumps(good))
        (runs / "report_x.json").write_text(json.dumps(bad))
        assert run("evaluate", "--aggregate", str(runs)) == 2
        assert capsys.readouterr().err == f"data error: {runs / 'report_x.json'}: {error}\n"


class TestOneSubcommandParser:
    """`main` builds only the invoked subcommand's parser, and prints and returns what the full parser does."""

    ARGVS = (
        [[command, "-h"] for command in cli_mod.COMMANDS]
        + [[command] for command in cli_mod.COMMANDS]  # a required argument missing
        + [[], ["-h"], ["bogus"], ["decode", "--probs", "p", "--method", "nope"],
           ["train", "--corpus", "c", "--out", "m", "--bogus"], ["-h", "decode"]]
    )

    @staticmethod
    def outcome(argv, capsys):
        """(exit code, stdout, stderr) of `sentid argv`; argparse exits after printing help."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_full_parser(self, argv, capsys, monkeypatch):
        one = self.outcome(argv, capsys)
        full = cli_mod.build_parser
        monkeypatch.setattr(cli_mod, "build_parser", lambda command=None: full())
        assert one == self.outcome(argv, capsys)
        # help exits 0; every other line here is a usage error
        assert one[0] == (0 if "-h" in argv else 1)
        assert (one[1] != "") == ("-h" in argv)

    def test_builds_only_the_named_subcommand(self):
        with pytest.raises(cli_mod.UsageError, match=r"invalid choice: 'train' \(choose from 'decode'\)"):
            build_parser("decode").parse_args(["train", "--corpus", "c", "--out", "m"])
        assert build_parser("bogus").parse_args(["decode", "--probs", "p", "--method", "eos"])


class TestConfigFlags:
    """Every config flag defaults to its dataclass field, through one source."""

    COMMANDS = {
        "train": ["train", "--corpus", "c", "--out", "m"],
        "decode": ["decode", "--probs", "p", "--method", "eos"],
        "augment": ["augment", "--corpus", "c", "--count", "1", "--out", "o"],
    }
    FLAGS = {
        "train": ("epochs", "window", "hash_dim", "lr", "uni", "pcc", "pda", "ptr", "max_tokens"),
        "decode": ("threshold", "lam"),
        "augment": ("pcc", "pda", "ptr", "max_tokens"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_omitted_config_flags_parse_to_none(self, command):
        args = vars(build_parser().parse_args(self.COMMANDS[command]))
        assert {dest: args[dest] for dest in self.FLAGS[command]} == dict.fromkeys(
            self.FLAGS[command]
        )

    @pytest.fixture
    def built(self, monkeypatch, tmp_path):
        """The config objects each command builds, with its work stubbed out."""
        seen = {}

        def fake_train(corpus, aug_cfg, seed, model_cfg):
            seen.update(augment=aug_cfg, model=model_cfg)
            return SimpleNamespace(head_names=())

        def fake_decode(matrices, method, decoder, interp):
            seen.update(decoder=decoder, interp=interp)
            return []

        def fake_generate(corpus, cfg, seed, count):
            seen.update(augment=cfg)
            return []

        monkeypatch.setattr(model_mod, "train", fake_train)
        monkeypatch.setattr(model_mod, "save_model", lambda model, path: None)
        monkeypatch.setattr(pipeline_mod, "decode_documents", fake_decode)
        monkeypatch.setattr(augment_mod, "generate_examples", fake_generate)
        monkeypatch.setattr(augment_mod, "write_examples", lambda path, examples: None)
        corpus = tmp_path / "c.jsonl"
        synthetic_corpus(4, seed=0).save(corpus)
        probs = tmp_path / "p.tsv"
        probs.write_text("#probs v1 uni=1\n0\tx\t0.5\t0.5\t0.5\t0.5\n")
        paths = {"c": str(corpus), "p": str(probs), "m": str(tmp_path / "m"), "o": str(tmp_path / "o")}

        def build(command, *flags):
            seen.clear()
            argv = [paths.get(a, a) for a in self.COMMANDS[command]]
            assert main(argv + list(flags)) == 0
            return dict(seen)

        return build

    def test_bare_commands_build_dataclass_defaults(self, built):
        assert built("train") == {"augment": AugmentConfig(), "model": ModelConfig()}
        assert built("decode") == {"decoder": DecoderConfig(), "interp": InterpConfig()}
        assert built("augment") == {"augment": AugmentConfig()}

    def test_given_flags_set_their_fields(self, built):
        seen = built(
            "train", "--epochs", "3", "--window", "2", "--hash-dim", "4096", "--lr", "0.1",
            "--uni", "--pcc", "0.2", "--pda", "0.1", "--ptr", "0.0", "--max-tokens", "64",
        )
        assert seen["model"] == ModelConfig(
            window_radius=2, hash_dim=4096, epochs=3, learning_rate=0.1, include_uni=True
        )
        assert seen["augment"] == AugmentConfig(p_cc=0.2, p_da=0.1, p_tr=0.0, max_tokens=64)
        seen = built("decode", "--threshold", "0.3", "--lambda", "0.7")
        assert (seen["decoder"], seen["interp"]) == (
            DecoderConfig(candidate_threshold=0.3), InterpConfig(lam=0.7)
        )
        seen = built("augment", "--pcc", "0.9", "--max-tokens", "8")
        assert seen["augment"] == AugmentConfig(p_cc=0.9, max_tokens=8)
