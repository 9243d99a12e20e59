"""Atomic artifact writes leave the previous file and no temporary on failure;
the JSON-lines reader parses well-formed lines with the scanner alone,
restores the collector's state and leaves the records it loaded out of the
collector's reach."""

import gc
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from sentid.augment import AugmentConfig, generate_examples, write_examples
from sentid.corpus import Corpus
from sentid.decode import SpanResult, read_span_file, write_span_file
from sentid.fileio import atomic_open, read_json_lines, write_json
from sentid.labels import LabelSeq
from sentid.model import (
    ClassifierModel,
    ModelConfig,
    ProbMatrix,
    iter_prob_documents,
    load_model,
    save_model,
    write_prob_documents,
)

from oracles import zero_heads
from synth import synthetic_corpus, unit_from_words


def one_result():
    return SpanResult(su_spans=((0, 2),), log_prob=-0.5, labels=LabelSeq("word", "BIO"))


class TestAtomicOpen:
    def test_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path) as f:
            f.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_binary(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_open(path, binary=True) as f:
            f.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"

    def test_failure_midway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_open(path) as f:
                f.write("partial")
                raise RuntimeError("crash")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_directory_names_target(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_open(path):
                pass
        assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"


class TestArtifactWriters:
    def test_span_file_failure_midway(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        write_span_file(path, [one_result()])
        before = path.read_bytes()

        def results():
            yield one_result()
            raise RuntimeError("decoder crashed")

        with pytest.raises(RuntimeError):
            write_span_file(path, results())
        assert path.read_bytes() == before
        assert len(read_span_file(path)) == 1
        assert os.listdir(tmp_path) == ["spans.jsonl"]

    def test_report_failure_midway(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"a": 1})
        with pytest.raises(TypeError):
            write_json(path, {"a": 2, "b": object()})
        assert path.read_text() == '{\n  "a": 1\n}\n'
        assert os.listdir(tmp_path) == ["report.json"]

    def test_prob_file_failure_midway(self, tmp_path):
        path = tmp_path / "probs.tsv"
        m = ProbMatrix(np.array([0.5]), np.array([0.25]))
        write_prob_documents(path, [(["a"], m)])
        with pytest.raises(IndexError):
            # two-token matrix, one token: fails on the second row
            two = ProbMatrix(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
            write_prob_documents(path, [(["a"], two)])
        with open(path, encoding="utf-8") as f:
            [loaded] = iter_prob_documents(f)
        assert (loaded.n, loaded.p_bos[0], loaded.p_eos[0]) == (1, 0.5, 0.25)
        assert os.listdir(tmp_path) == ["probs.tsv"]

    def test_model_failure_midway(self, tmp_path):
        # a failed save used to leave a truncated model that every later
        # pipeline run found in its cache and failed to load
        path = tmp_path / "model.bin"
        cfg = ModelConfig(hash_dim=2**4)
        model = ClassifierModel.from_dense(cfg, 1, zero_heads(cfg))
        save_model(model, path)
        with pytest.raises(KeyError):
            save_model(replace(model, seed=2, columns={}), path)  # no columns to write
        assert load_model(path).seed == 1
        assert os.listdir(tmp_path) == ["model.bin"]

    def test_examples_failure_midway(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        examples = generate_examples(synthetic_corpus(20, seed=3), AugmentConfig(), seed=1, count=3)
        write_examples(path, examples)
        before = path.read_bytes()

        def crashing():
            yield examples[0]
            raise RuntimeError("augmentation crashed")

        with pytest.raises(RuntimeError):
            write_examples(path, crashing())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["examples.jsonl"]


class TestReadJsonLines:
    def test_well_formed_files_take_the_scanner_path(self, tmp_path, monkeypatch):
        corpus = synthetic_corpus(40, seed=5)
        corpus.units.append(unit_from_words(["naïve", "café", "—"], False))
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save(corpus_path)
        results = [one_result(), one_result()]
        span_path = tmp_path / "spans.jsonl"
        write_span_file(span_path, results)

        def no_loads(*args, **kwargs):
            raise AssertionError("json.loads called on a well-formed line")

        monkeypatch.setattr(json, "loads", no_loads)
        assert Corpus.load(corpus_path).units == corpus.units
        assert read_span_file(span_path) == results

    def test_loaded_records_are_out_of_the_collectors_reach(self, tmp_path):
        corpus_path, span_path = tmp_path / "corpus.jsonl", tmp_path / "spans.jsonl"
        synthetic_corpus(30, seed=2).save(corpus_path)
        write_span_file(span_path, [one_result(), one_result()])
        units = Corpus.load(corpus_path).units
        results = read_span_file(span_path)
        # both are objects the collector tracks, so the check below can fail
        assert gc.is_tracked(units[0]) and gc.is_tracked(results[0])
        assert not _collectable(*units, *results)

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_collector_state_is_restored(self, tmp_path, enabled):
        path = tmp_path / "records.jsonl"
        path.write_text("[1]\n[2]\n")
        states = []
        built = []

        def build(rec):
            states.append(gc.isenabled())
            if rec == [3]:
                raise ValueError("no threes")
            built.append(rec)
            return rec

        was_enabled = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            assert read_json_lines(path, "test", build) == [[1], [2]]
            assert gc.isenabled() is enabled
            assert not _collectable(*built)
            path.write_text("[1]\n[3]\n")
            built.clear()
            # the exception, and through its traceback the reader's frame, stays alive
            with pytest.raises(ValueError) as info:
                read_json_lines(path, "test", build)
            assert gc.isenabled() is enabled
            assert str(info.value) == f"{path}: bad test record on line 2: no threes"
            # a rejected record freezes nothing: the record built before it is collectable
            assert _collectable(*built) == built == [[1]]
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert states == [False] * 4


def _collectable(*objs) -> list:
    """Those of `objs` that a collection would walk: tracked and not frozen."""
    ids = {id(o) for o in objs}
    return [o for o in gc.get_objects() if id(o) in ids]
