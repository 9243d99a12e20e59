"""Every layer the pipeline benchmark traces names a function of the package.

``perfbench/tracing.py`` looks each target up by module and attribute name
and reports a missing one as null, so renaming a traced function would
silently drop its layer from the benchmark.
"""

import importlib
import importlib.util
import inspect
import io
import json
import sys
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_layer_target_is_a_package_function():
    tracing = _tracing()
    assert tracing.LAYERS
    missing = []
    for layer, (module, attr_path) in tracing.LAYERS.items():
        target = importlib.import_module(f"sentid.{module}")
        for attr in attr_path.split("."):
            target = getattr(target, attr, None)
        # a classmethod resolves to a bound method of its class
        if not inspect.isfunction(getattr(target, "__func__", target)):
            missing.append(f"{layer}: sentid.{module}.{attr_path}")
    assert missing == []


def test_counted_arguments_keep_their_places():
    """The tracer's counters read arguments by position.

    It takes ``args[2]`` of ``_kernels.window_indices`` as the number of rows
    mixed, and wraps ``_TokenHasher.csr`` as ``csr(hasher, words)``, counting
    ``len(words)`` lookups.  Its decoder counters read ``decode_document(m,
    method, cfg)`` by position or keyword, and the ``su_spans`` and ``labels``
    of the ``SpanResult`` it returns.  A moved, renamed or added parameter
    would make those counts silently wrong.
    """
    import dataclasses

    from sentid import _kernels, decode
    from sentid.model import _TokenHasher

    assert list(inspect.signature(_kernels.window_indices).parameters)[2] == "n"
    # ... and that is the number of rows returned, also for a call on several documents
    hashes = np.arange(6, dtype=np.uint64)
    tok_ptr = np.array([0, 1, 3, 3, 4, 6], dtype=np.int64)
    args = (hashes, tok_ptr, 5, -2, 2, np.uint64(2**8 - 1), np.uint64(7), [2, 0, 3])
    _, indptr = _kernels.window_indices(*args)
    assert args[2] == len(indptr) - 1
    params = list(inspect.signature(_TokenHasher.csr).parameters.values())
    assert [p.name for p in params][:1] == ["self"] and len(params) == 2
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert list(inspect.signature(decode.decode_document).parameters) == ["m", "method", "cfg"]
    fields = [f.name for f in dataclasses.fields(decode.SpanResult)]
    assert "su_spans" in fields and "labels" in fields


def test_timed_readers_are_whole_file_calls(tmp_path):
    """perfbench times a layer per call.

    A generator function would return at once and leave the parse to the
    caller's loop, outside the layer: ``model.read_probs`` and
    ``corpus.load`` would read about 0 s.  Both readers must be plain
    functions that return every record.
    """
    from sentid import corpus, model

    for reader in (model.iter_prob_documents, corpus.Corpus.load.__func__):
        assert not inspect.isgeneratorfunction(reader)
    docs = model.iter_prob_documents(io.StringIO("#probs v1 uni=0\n0\ta\t0.5\t0.5\n"))
    assert type(docs) is list and [m.n for m in docs] == [1]
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"text": "a", "words": ["a"], "char_offsets": [[0, 1]], "is_su": true}\n')
    loaded = corpus.Corpus.load(path)
    assert type(loaded.units) is list and len(loaded.units) == 1


def test_word_scoring_calls_the_declared_evaluation_layers(monkeypatch):
    """Word scoring records calls in both evaluation layers, char scoring in add_labels.

    Every workload declares ``evaluation.add_labels`` and
    ``evaluation.to_granularity`` as layers, and a traced job fails when a
    declared layer records no call.  Every workload scores at word and at
    char level, and both count each group of documents in one
    ``add_labels`` call.  Char scoring of word labels takes the word lengths
    instead of calling ``to_granularity``, so word scoring must pass each
    document through it, or every traced job fails.
    """
    from sentid import evaluation
    from sentid.labels import LabelSeq

    layers = ("evaluation.add_labels", "evaluation.to_granularity")
    calls = dict.fromkeys(layers, 0)
    for layer in layers:
        module, attr_path = _tracing().LAYERS[layer]
        owner = importlib.import_module(f"sentid.{module}")
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)

        def counted(*args, _fn=getattr(owner, attr), _layer=layer, **kwargs):
            calls[_layer] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    docs = [(LabelSeq("word", "BIO"), LabelSeq("word", "BOO"), ["a", "b", "c"])] * 2
    # one add_labels per group (these two documents make one), and at word
    # level to_granularity of the gold and the predicted labels of each document
    for granularity, expected in (("word", (1, 4)), ("char", (1, 0))):
        calls.update(dict.fromkeys(layers, 0))
        evaluation.evaluate_documents(docs, granularity)
        assert calls == dict(zip(layers, expected))


def _count_calls(monkeypatch, layers) -> dict:
    """Count the calls of each layer's target, rebound as perfbench's tracer rebinds it.

    A module-level function is replaced in every ``sentid`` module that binds
    it, so callers that imported it by name are counted too.
    """
    calls = dict.fromkeys(layers, 0)
    for layer in layers:
        module, attr = _tracing().LAYERS[layer]
        original = getattr(importlib.import_module(f"sentid.{module}"), attr)

        def counted(*args, _fn=original, _layer=layer, **kwargs):
            calls[_layer] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "sentid" or name.startswith("sentid."):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, binding, counted)
    return calls


def test_predict_scores_each_head_once_per_group(monkeypatch):
    """perfbench declares ``kernels.score_rows`` on train_loop and label_docs.

    A traced job fails when a declared layer records no call, so scoring
    must go through ``_kernels.score_rows``: once per head per group.
    """
    from sentid.model import _GROUP_TOKENS, ModelConfig, predict

    from oracles import model_from_dense

    calls = _count_calls(monkeypatch, ["kernels.score_rows"])
    for include_uni, heads in ((False, 2), (True, 4)):
        cfg = ModelConfig(hash_dim=2**8, include_uni=include_uni)
        model = model_from_dense(
            cfg, 0, {name: np.ones(cfg.hash_dim + 1) for name in cfg.head_names}
        )
        calls["kernels.score_rows"] = 0
        # three groups: two close at _GROUP_TOKENS tokens, the last holds the remainder
        predict(model, [["a", "b"] * (_GROUP_TOKENS // 4)] * 5)
        assert calls["kernels.score_rows"] == 3 * heads


def test_train_runs_sgd_once_per_head_per_group(monkeypatch):
    """perfbench declares ``kernels.sgd_rows`` and ``model.train`` on train_loop.

    A traced job fails when a declared layer records no call, so training
    must run its SGD through ``_kernels.sgd_rows``: once per head per group.
    """
    from sentid import model
    from sentid.augment import AugmentConfig, example_stream

    from synth import synthetic_corpus

    calls = _count_calls(monkeypatch, ["kernels.sgd_rows", "model.train"])
    corpus, aug = synthetic_corpus(30, seed=2), AugmentConfig()
    groups = sum(
        len(list(model._groups(example_stream(corpus, aug, 0, epoch), lambda ex: ex.words)))
        for epoch in range(2)
    )
    assert groups > 2
    for include_uni, heads in ((False, 2), (True, 4)):
        cfg = model.ModelConfig(hash_dim=2**8, epochs=2, include_uni=include_uni)
        calls.update(dict.fromkeys(calls, 0))
        model.train(corpus, aug, seed=0, model_cfg=cfg)
        assert calls == {"kernels.sgd_rows": heads * groups, "model.train": 1}


def test_models_are_loaded_and_saved_through_the_declared_layers(tmp_path, monkeypatch):
    """perfbench declares ``model.save_model`` on train_loop and
    ``model.load_model`` on label_docs.

    ``sentid train`` and the pipeline save through ``save_model``; ``sentid
    predict`` and the pipeline's model cache load through ``load_model``.
    """
    from sentid import cli

    from synth import synthetic_corpus

    calls = _count_calls(monkeypatch, ["model.load_model", "model.save_model"])
    corpus = tmp_path / "corpus.jsonl"
    synthetic_corpus(20, seed=1).save(corpus)
    docs = tmp_path / "docs.txt"
    docs.write_text("a b .\n")
    model = str(tmp_path / "m.bin")
    assert cli.main(["train", "--corpus", str(corpus), "--out", model, "--epochs", "1",
                     "--hash-dim", "256"]) == 0
    assert calls == {"model.load_model": 0, "model.save_model": 1}
    assert cli.main(["predict", "--model", model, "--input", str(docs),
                     "--out", str(tmp_path / "p.tsv")]) == 0
    assert calls == {"model.load_model": 1, "model.save_model": 1}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seeds": [0],
        "paths": {"train_corpus": str(corpus), "eval_corpus": str(corpus),
                  "output_dir": str(tmp_path / "runs")},
        "model": {"hash_dim": 256, "epochs": 1},
    }))
    assert cli.main(["pipeline", "--config", str(config)]) == 0  # trains and caches the model
    assert calls == {"model.load_model": 1, "model.save_model": 2}
    assert cli.main(["pipeline", "--config", str(config)]) == 0  # loads the cached model
    assert calls == {"model.load_model": 2, "model.save_model": 2}
