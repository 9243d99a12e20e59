"""Probability model: features, training, prediction, interpolation, files."""

import hashlib
import io
import json
import re
import tracemalloc
import warnings
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentid import _kernels
from sentid import model as model_mod
from sentid.augment import AugmentConfig, example_stream
from sentid.corpus import Corpus
from sentid.model import (
    _GROUP_TOKENS,
    ClassifierModel,
    InterpConfig,
    ModelConfig,
    ProbFileError,
    ProbMatrix,
    _group_rows,
    _groups,
    _TokenHasher,
    interpolate,
    iter_prob_documents,
    load_model,
    predict,
    save_model,
    train,
    write_prob_documents,
)

from oracles import (
    densify,
    iter_prob_documents_rows,
    model_from_dense,
    predict_per_document,
    score_dense,
    train_per_example,
    zero_heads,
)
from synth import synthetic_corpus, unit_from_words

CFG = ModelConfig(window_radius=2, hash_dim=2**12, epochs=2)


def su(*words):
    return unit_from_words(list(words), True)


def nsu(*words):
    return unit_from_words(list(words), False)


def side_rows(words, side):
    """Feature indices of each position of one document, window restricted by side."""
    idx, ptr = _group_rows(_TokenHasher(CFG), [words], (side,), CFG)[side]
    return [idx[ptr[i] : ptr[i + 1]] for i in range(len(words))]


# sha256 of the feature rows of FEATURE_DOCS, per MODEL_VERSION.  A saved
# model is valid only with the featuriser that trained it: a change to the
# features, the pad hash or the window mixing must bump MODEL_VERSION (and add
# its digest here), or cached models would be reused with other features.
FEATURE_DIGESTS = {
    1: "5670b3562fd7637e706e1cdecee9810cca3c1435233d18925f8b0fa171247142",
    # version 2 changed the file layout only: the features are those of version 1
    2: "5670b3562fd7637e706e1cdecee9810cca3c1435233d18925f8b0fa171247142",
}
FEATURE_DOCS = [
    ["Joe", "went", "to", "school", "."],
    ["USA", "12/01", "!!", "Über", "naïve", "e.g."],
    ["x"],
    [],
]


class TestFeaturize:
    def test_features_pinned_to_model_version(self):
        cfg = ModelConfig(include_uni=True)
        sides = sorted(model_mod.SIDE_WINDOWS)
        rows = _group_rows(_TokenHasher(cfg), FEATURE_DOCS, sides, cfg)
        digest = hashlib.sha256()
        for side in sides:
            for array in rows[side]:
                digest.update(array.astype("<i8").tobytes())
        assert digest.hexdigest() == FEATURE_DIGESTS[model_mod.MODEL_VERSION]

    def test_deterministic(self):
        words = ["The", "cat", "sat", "."]
        a = side_rows(words, "both")[1]
        b = side_rows(words, "both")[1]
        assert np.array_equal(a, b)

    def test_left_only_at_start_sees_no_left_context(self):
        # changing tokens right of position 0 must not touch left_only features
        a = side_rows(["alpha", "beta", "gamma"], "left_only")[0]
        b = side_rows(["alpha", "CHANGED", "other"], "left_only")[0]
        assert np.array_equal(np.sort(a), np.sort(b))

    def test_sides_differ_mid_sequence(self):
        words = ["aa", "bb", "cc"]
        both = side_rows(words, "both")[1]
        left = side_rows(words, "left_only")[1]
        assert not np.array_equal(np.sort(both), np.sort(left))

    def test_right_perturbation_invisible_to_left_side(self):
        a = side_rows(["a", "b", "c", "d"], "left_only")[1]
        b = side_rows(["a", "b", "ZZZ", "QQQ"], "left_only")[1]
        assert np.array_equal(a, b)

    def test_left_perturbation_invisible_to_right_side(self):
        a = side_rows(["a", "b", "c", "d"], "right_only")[2]
        b = side_rows(["Z", "Q", "c", "d"], "right_only")[2]
        assert np.array_equal(a, b)

    def test_indices_within_dim(self):
        idx = side_rows(["Word!", "123", "..."], "both")[1]
        assert idx.min() >= 0 and idx.max() < CFG.hash_dim


def pattern_corpus():
    units = []
    for i in range(30):
        units.append(su("a", f"b{i % 3}", "."))
        units.append(nsu("%", f"{i}{i}"))
    return Corpus(units)


class TestTrain:
    def test_eos_learns_final_punct(self):
        corp = pattern_corpus()
        model = train(corp, AugmentConfig(p_da=0.0, p_tr=0.0), seed=0, model_cfg=CFG)
        m = predict(model, [["a", "b1", ".", "a", "b2", "."]])[0]
        assert m.p_eos[2] > m.p_eos[0]
        assert m.p_eos[2] > m.p_eos[1]
        assert m.p_bos[0] > m.p_bos[1]

    def test_deterministic_given_seed(self, tmp_path):
        corp = pattern_corpus()
        m1 = train(corp, AugmentConfig(), seed=3, model_cfg=CFG)
        m2 = train(corp, AugmentConfig(), seed=3, model_cfg=CFG)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seeds_differ(self):
        corp = pattern_corpus()
        m1 = train(corp, AugmentConfig(), seed=1, model_cfg=CFG)
        m2 = train(corp, AugmentConfig(), seed=2, model_cfg=CFG)
        d1, d2 = densify(m1), densify(m2)
        assert any(not np.array_equal(d1[h], d2[h]) for h in m1.head_names)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train(Corpus([]), AugmentConfig(), model_cfg=CFG)


class TestPredict:
    def test_outputs_in_unit_interval(self):
        model = train(pattern_corpus(), AugmentConfig(), seed=0, model_cfg=CFG)
        m = predict(model, [["anything", "at", "all", "!"]])[0]
        for v in (m.p_bos, m.p_eos):
            assert (v >= 0).all() and (v <= 1).all()

    def test_zero_tokens(self):
        model = zero_model(CFG)
        m = predict(model, [[]])[0]
        assert m.n == 0
        assert predict(model, []) == []

    def test_uni_prediction_shape(self):
        cfg = ModelConfig(window_radius=2, hash_dim=2**12, epochs=1, include_uni=True)
        model = train(pattern_corpus(), AugmentConfig(), seed=0, model_cfg=cfg)
        m = predict(model, [["a", "b", "."]])[0]
        assert m.has_uni and m.p_bos_uni.shape == (3,)

    def test_uni_restriction_on_scores(self):
        # perturbing right context never changes the left-only end head score
        cfg = ModelConfig(window_radius=3, hash_dim=2**12, epochs=1, include_uni=True)
        model = train(pattern_corpus(), AugmentConfig(), seed=0, model_cfg=cfg)
        a, b = predict(model, [["a", "b0", ".", "x", "y"], ["a", "b0", ".", "CHANGED", "TOKENS"]])
        assert a.p_eos_uni[2] == b.p_eos_uni[2]
        a2, b2 = predict(model, [["x", "y", "a", "b0", "."], ["Q", "R", "a", "b0", "."]])
        assert a2.p_bos_uni[2] == b2.p_bos_uni[2]

    def test_pure_function(self):
        model = train(pattern_corpus(), AugmentConfig(), seed=0, model_cfg=CFG)
        words = ["a", "b2", "."]
        m1, m2 = predict(model, [words])[0], predict(model, [words])[0]
        assert np.array_equal(m1.p_bos, m2.p_bos) and np.array_equal(m1.p_eos, m2.p_eos)


class TestWindowMixingOncePerSide:
    """Window mixing runs once per distinct side per group of documents.

    bos_bi and eos_bi share the "both" window, so it is mixed once.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        inner = _kernels.window_indices

        def counting(*args):
            counter.append(args[3:5])  # (lo, hi)
            return inner(*args)

        monkeypatch.setattr(_kernels, "window_indices", counting)
        return counter

    def test_predict(self, calls):
        cfg = ModelConfig(window_radius=2, hash_dim=2**12, epochs=1)
        docs = [["a", "b", "."]] * 10
        predict(zero_model(cfg), docs)
        assert calls == [(-2, 2)]
        calls.clear()
        predict(zero_model(replace(cfg, include_uni=True)), docs)
        assert sorted(calls) == [(-2, 0), (-2, 2), (0, 2)]
        calls.clear()
        # 3 groups: two close at _GROUP_TOKENS tokens, the last holds the remainder
        docs = [["a"] * (_GROUP_TOKENS // 2)] * 5
        predict(zero_model(cfg), docs)
        assert calls == [(-2, 2)] * 3

    @pytest.mark.parametrize("include_uni, sides", [(False, 1), (True, 3)])
    def test_train(self, calls, include_uni, sides):
        cfg = ModelConfig(window_radius=2, hash_dim=2**12, epochs=2, include_uni=include_uni)
        corpus, aug = pattern_corpus(), AugmentConfig()
        train(corpus, aug, seed=3, model_cfg=cfg)
        groups = examples = 0
        for e in range(2):
            size = 0
            for ex in example_stream(corpus, aug, 3, e):
                assert len(ex.words) < _GROUP_TOKENS  # so a group closes only at the bound
                examples += 1
                size += len(ex.words)
                if size >= _GROUP_TOKENS:
                    groups, size = groups + 1, 0
            groups += size > 0
        assert groups < examples
        assert len(calls) == sides * groups
        assert len(set(calls)) == sides


def zero_model(cfg: ModelConfig) -> ClassifierModel:
    return model_from_dense(cfg, 0, zero_heads(cfg))


def random_heads(cfg: ModelConfig, seed: int = 0) -> dict:
    """Dense heads with every weight nonzero, so that any wrong feature index shows."""
    rng = np.random.default_rng(seed)
    return {name: rng.normal(size=cfg.hash_dim + 1) for name in cfg.head_names}


def random_model(cfg: ModelConfig, seed: int = 0) -> ClassifierModel:
    return model_from_dense(cfg, seed, random_heads(cfg, seed))


VOCAB = ("The", "cat", "sat", ".", "A", "dog!", "12:30", "PM", "***", "x")


def random_docs(lengths, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [[str(w) for w in rng.choice(VOCAB, size=n)] for n in lengths]


G = _GROUP_TOKENS
DOC_LENGTHS = {
    "empty-and-one-token": [0, 1, 3, 0, 1, 0],
    "longer-than-a-group": [5, 3 * G, 2],
    "closes-at-bound": [G - 28, 28, 4, G, 1],
    "many-short": [7, 12, 30, 2, 50, 9, 40, 15, 22, 1, 60, 33],
}


def _train_case(radius, include_uni, p_cc, hash_dim, epochs, lr=0.2, suffix=""):
    examples = "short-examples" if p_cc == 0.5 else "long-examples"
    case_id = f"{radius}-{'uni' if include_uni else 'bi'}-{examples}{suffix}"
    return pytest.param(radius, include_uni, p_cc, hash_dim, epochs, lr, id=case_id)


# (window radius, uni heads, p_cc, hash_dim, epochs, learning rate).  The
# small hash_dim values make rows repeat an index, and make one group bring
# the same new index many times.  At the subnormal rates an update rounds to
# 0 or to one or two units in the last place, so some indices that training
# saw (at 5e-324, all of them) end with weight 0 in every head.
TRAIN_CASES = [
    _train_case(radius, include_uni, p_cc, 2**12, 2)
    for radius in (0, 5) for include_uni in (False, True) for p_cc in (0.5, 0.02)
] + [
    _train_case(radius, include_uni, 0.5, hash_dim, epochs, suffix=f"-dim{hash_dim}-epochs{epochs}")
    for radius in (0, 5) for include_uni in (False, True)
    for hash_dim in (1, 2**3, 2**6) for epochs in (1, 3)
] + [_train_case(5, False, 0.5, 2**12, 2, lr, f"-lr{lr}") for lr in (5e-324, 1e-323)]


class TestGroupedParity:
    """Grouped featurization gives every document the rows it has on its own."""

    @pytest.mark.parametrize(
        "lengths, groups",
        [
            ([G - 28, 28, 4], [[G - 28, 28], [4]]),  # closes exactly at the bound
            ([G - 1, 1, 1], [[G - 1, 1], [1]]),
            ([5, G + 1, 3], [[5], [G + 1], [3]]),  # a long document stands alone
            ([G, 0, 2], [[G], [0, 2]]),
            ([0, 0, 1], [[0, 0, 1]]),
        ],
    )
    def test_groups(self, lengths, groups):
        docs = [["w"] * n for n in lengths]
        assert [[len(d) for d in g] for g in _groups(docs, lambda d: d)] == groups

    @pytest.mark.parametrize("lengths", DOC_LENGTHS.values(), ids=DOC_LENGTHS.keys())
    @pytest.mark.parametrize("include_uni", [False, True], ids=["bi", "uni"])
    @pytest.mark.parametrize("radius", [0, 5])
    def test_predict_matches_per_document(self, radius, include_uni, lengths):
        model = random_model(ModelConfig(window_radius=radius, hash_dim=2**12, include_uni=include_uni))
        docs = random_docs(lengths)
        got = predict(model, docs)
        assert len(got) == len(docs)
        for words, m in zip(docs, got):
            ref = predict_per_document(model, words)
            for name in ("p_bos", "p_eos", "p_bos_uni", "p_eos_uni"):
                a, b = getattr(m, name), getattr(ref, name)
                assert (a is None) == (b is None)
                assert a is None or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("radius, include_uni, p_cc, hash_dim, epochs, lr", TRAIN_CASES)
    def test_train_matches_per_example(
        self, tmp_path, radius, include_uni, p_cc, hash_dim, epochs, lr
    ):
        corpus, aug = synthetic_corpus(80, seed=1), AugmentConfig(p_cc=p_cc)
        cfg = ModelConfig(
            window_radius=radius, hash_dim=hash_dim, epochs=epochs, include_uni=include_uni,
            learning_rate=lr,
        )
        if p_cc < 0.5:
            assert any(len(ex.words) > G for ex in example_stream(corpus, aug, 3, 0))
        model = train(corpus, aug, seed=3, model_cfg=cfg)
        ref = train_per_example(corpus, aug, 3, cfg)
        got = densify(model)
        for name in cfg.head_names:
            assert got[name].tobytes() == ref[name].tobytes()
        # the same row map (rows in increasing index order, dropped when zero by their
        # bits in every head) and the same file
        ref = model_from_dense(cfg, 3, ref)
        assert np.array_equal(model.rows, ref.rows)
        save_model(model, tmp_path / "got.bin")
        save_model(ref, tmp_path / "ref.bin")
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_peak_memory_bounded_by_group(self):
        # featurizing a whole batch at once would grow the peak with the batch
        model = random_model(ModelConfig(hash_dim=2**12, include_uni=True))

        def peak(docs):
            tracemalloc.start()
            try:
                predict(model, docs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = random_docs([10] * 40, seed=1), random_docs([10] * 400, seed=2)
        peak(few)  # warm-up: first-call allocations are not the batch's
        assert peak(many) <= 1.5 * peak(few)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = train(pattern_corpus(), AugmentConfig(), seed=5, model_cfg=CFG)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.seed == model.seed
        dense, loaded_dense = densify(model), densify(loaded)
        for h in model.head_names:
            assert np.array_equal(loaded_dense[h], dense[h])
        words = ["a", "b0", ".", "%"]
        assert np.array_equal(predict(loaded, [words])[0].p_eos, predict(model, [words])[0].p_eos)

    # only the odd-indexed weights are nonzero, so each head takes 16 * (hash_dim / 2)
    # bytes, and the longer cut removes the last head and 16 bytes of the one before
    @pytest.mark.parametrize("cut, head", [(1, "eos_bi"), (16 * (CFG.hash_dim // 2) + 16, "bos_bi")])
    def test_truncated_weights_rejected(self, tmp_path, cut, head):
        path = tmp_path / "model.bin"
        heads = random_heads(CFG)
        for w in heads.values():
            w[::2] = 0.0
        save_model(model_from_dense(CFG, 0, heads), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"truncated weights for head {head}"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # bytes after the last head used to be ignored
        path = tmp_path / "model.bin"
        save_model(zero_model(CFG), path)
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(ValueError, match="unexpected bytes after the last head"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("epochs", 0), ("epochs", -2), ("learning_rate", 0.0), ("learning_rate", -0.5),
         ("learning_rate", float("nan")), ("learning_rate", float("inf")),
         ("lr_decay", 0.0), ("lr_decay", 1.5), ("lr_decay", float("nan"))],
    )
    def test_untrainable_config_rejected(self, tmp_path, field, value):
        # these used to train (or load) a model with untrained, saturated or NaN weights
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})
        path = tmp_path / "model.bin"
        save_model(zero_model(CFG), path)
        header, weights = path.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"][field] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + weights)
        with pytest.raises(ValueError, match=f"bad model header: ValueError.*{field}"):
            load_model(path)

    @pytest.mark.parametrize(
        "field, value",
        [("window_radius", 2.5), ("window_radius", True), ("epochs", 2.0), ("include_uni", 1),
         ("learning_rate", "0.1"), ("learning_rate", False), ("hash_dim", 2**31)],
    )
    def test_mistyped_or_huge_config_rejected(self, field, value):
        # the row map's row numbers are int32
        with pytest.raises(ValueError, match=f"^{field}"):
            ModelConfig(**{field: value})

    def test_config_bounds_and_types_accepted(self):
        assert ModelConfig(hash_dim=2**30, learning_rate=1).learning_rate == 1  # no weights made

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a model\n")
        with pytest.raises(ValueError):
            load_model(path)


SMALL = ModelConfig(window_radius=1, hash_dim=2**4, epochs=1)


def raw_model_file(heads: dict, cfg: ModelConfig = SMALL, **header) -> bytes:
    """A model file written by hand: `heads` maps each head to its (indices, weights)."""
    fields = {
        "format": "sentid-model", "version": model_mod.MODEL_VERSION, "config": asdict(cfg),
        "seed": 0, "heads": list(heads), "nonzero": {h: len(i) for h, (i, _) in heads.items()},
        **header,
    }
    body = b"".join(
        np.array(i, "<i8").tobytes() + np.array(w, "<f8").tobytes() for i, w in heads.values()
    )
    return json.dumps(fields, sort_keys=True).encode("utf-8") + b"\n" + body


def bits(w: np.ndarray) -> list:
    return w.view("<i8").tolist()


_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1.5]), st.floats(allow_nan=False, allow_infinity=False)
)


class TestModelFile:
    """Model files store each head's nonzero weights; loading rebuilds every table bit for bit."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("model") / "model.bin"

    def test_layout(self, tmp_path):
        heads = {"bos_bi": ([0, 5, 16], [1.5, -0.0, 2.0]), "eos_bi": ([], [])}
        path = tmp_path / "model.bin"
        path.write_bytes(raw_model_file(heads))
        model = load_model(path)
        expected = np.zeros(17)
        expected[[0, 5, 16]] = [1.5, -0.0, 2.0]
        assert bits(densify(model)["bos_bi"]) == bits(expected)
        assert bits(densify(model)["eos_bi"]) == [0] * 17
        save_model(model, tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @settings(max_examples=100)
    @given(
        include_uni=st.booleans(),
        heads=st.lists(st.lists(_WEIGHTS, min_size=17, max_size=17), min_size=4, max_size=4),
    )
    # an all-zero head, a head of -0.0 (every bit pattern nonzero), a bias alone, a dense head
    @example(
        include_uni=True,
        heads=[[0.0] * 17, [-0.0] * 17, [0.0] * 16 + [2.5], [float(i + 1) for i in range(17)]],
    )
    def test_round_trip_bit_identical(self, scratch, include_uni, heads):
        cfg = replace(SMALL, include_uni=include_uni)
        dense = {name: np.array(weights) for name, weights in zip(cfg.head_names, heads)}
        model = model_from_dense(cfg, 3, dict(dense))  # it empties the dict it is given
        save_model(model, scratch)
        loaded = load_model(scratch)
        assert loaded.config == model.config and loaded.seed == 3
        assert list(loaded.columns) == list(model.head_names)
        for name in model.head_names:
            assert loaded.columns[name].dtype == np.float64
            assert bits(densify(loaded)[name]) == bits(dense[name])

    @pytest.mark.parametrize(
        "bos_bi, error",
        [
            (([4, 1], [1.0, 2.0]), "indices of head bos_bi are not strictly increasing"),
            (([2, 2], [1.0, 2.0]), "indices of head bos_bi are not strictly increasing"),
            (([-1, 3], [1.0, 2.0]), "an index of head bos_bi is outside [0, 16]"),
            (([3, 17], [1.0, 2.0]), "an index of head bos_bi is outside [0, 16]"),
            (([3, 9], [1.0, np.nan]), "non-finite weight in head bos_bi"),
            (([3, 9], [np.inf, 1.0]), "non-finite weight in head bos_bi"),
            (([3, 9], [1.0, -np.inf]), "non-finite weight in head bos_bi"),
        ],
        ids=["unsorted", "repeated", "negative", "past-bias", "nan", "inf", "-inf"],
    )
    def test_bad_head_rejected(self, tmp_path, bos_bi, error):
        path = tmp_path / "model.bin"
        path.write_bytes(raw_model_file({"bos_bi": bos_bi, "eos_bi": ([0], [1.0])}))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: {error}"

    @pytest.mark.parametrize(
        "nonzero, error",
        [
            ({"bos_bi": 1}, "nonzero counts {'bos_bi': 1} do not match the heads"),
            ({"bos_bi": 1, "eos_bi": 1, "bos_uni": 0}, "nonzero counts"),
            ([1, 1], "nonzero counts [1, 1] do not match the heads"),
            ({"bos_bi": -1, "eos_bi": 1}, "nonzero count -1 of head bos_bi"),
            ({"bos_bi": 1, "eos_bi": True}, "nonzero count True of head eos_bi"),
            ({"bos_bi": 1.0, "eos_bi": 1}, "nonzero count 1.0 of head bos_bi"),
            ({"bos_bi": 18, "eos_bi": 1}, "nonzero count 18 of head bos_bi"),
            (None, "KeyError('nonzero')"),
        ],
        ids=["missing", "extra", "list", "negative", "bool", "float", "more-than-slots", "no-counts"],
    )
    def test_bad_count_rejected(self, tmp_path, nonzero, error):
        data = raw_model_file({"bos_bi": ([3], [1.0]), "eos_bi": ([0], [1.0])})
        header, body = data.split(b"\n", 1)
        header = json.loads(header)
        if nonzero is None:
            del header["nonzero"]
        else:
            header["nonzero"] = nonzero
        path = tmp_path / "model.bin"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: bad model header: ")) as exc:
            load_model(path)
        assert error in str(exc.value)

    def test_truncated_at_every_byte_rejected(self, tmp_path):
        cfg = replace(SMALL, include_uni=True)
        heads = random_heads(cfg)
        heads["eos_bi"][::2] = 0.0  # heads of different sizes
        model = model_from_dense(cfg, 0, dict(heads))
        path = tmp_path / "model.bin"
        save_model(model, path)
        data = path.read_bytes()
        body_start = data.index(b"\n") + 1
        ends = body_start + 16 * np.cumsum([np.count_nonzero(heads[h]) for h in model.head_names])
        assert ends[-1] == len(data)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as exc:
                load_model(path)
            if cut >= body_start - 1:  # the whole header, with or without its newline
                head = model.head_names[int(np.searchsorted(ends, cut, side="right"))]
                assert str(exc.value) == f"{path}: truncated weights for head {head}"

    def test_size_bounded_by_nonzero_weights(self, tmp_path):
        # the dense layout (8 bytes per weight) took 8 times the bound below
        cfg = ModelConfig(epochs=2, include_uni=True)
        model = train(synthetic_corpus(200, seed=0), AugmentConfig(), seed=0, model_cfg=cfg)
        path = tmp_path / "model.bin"
        save_model(model, path)
        dense = 8 * (cfg.hash_dim + 1) * len(model.head_names)
        assert path.stat().st_size < dense / 8


HEAD_KINDS = ("empty", "bias-only", "sparse", "negative-zero", "every-weight")


def dense_head(kind: str, size: int, rng) -> np.ndarray:
    """`size` dense weights, bias last, of one of HEAD_KINDS."""
    w = np.zeros(size)
    if kind == "every-weight":
        w[:] = rng.normal(size=size)
    elif kind == "bias-only":
        w[-1] = rng.normal()
    elif kind != "empty":
        at = rng.choice(size, size // 8, replace=False)
        w[at] = rng.normal(size=at.shape[0])
        if kind == "negative-zero":
            w[at[::2]] = -0.0
    return w


class TestCompactModel:
    """A model holds one row map and one column per head, never a dense head.

    Trained, loaded and saved models score every document bit for bit as
    their dense heads do.
    """

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("compact") / "model.bin"

    @settings(max_examples=80, deadline=None)
    @given(
        include_uni=st.booleans(),
        kinds=st.lists(st.sampled_from(HEAD_KINDS), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 5, model_mod._LOAD_BLOCK]),
    )
    def test_scores_bit_identical_to_dense_heads(self, scratch, include_uni, kinds, seed, block):
        cfg = ModelConfig(window_radius=2, hash_dim=2**6, include_uni=include_uni)
        rng = np.random.default_rng(seed)
        size = cfg.hash_dim + 1
        dense = {name: dense_head(kind, size, rng) for name, kind in zip(cfg.head_names, kinds)}
        model = model_from_dense(cfg, 7, dict(dense))
        # a row for the bias and for each feature index nonzero by its bits in some head
        used = np.logical_or.reduce([w.view(np.int64) != 0 for w in dense.values()])
        used[-1] = True
        assert model.rows.dtype == np.int32 and model.rows.shape == (cfg.hash_dim + 1,)
        assert np.array_equal(np.flatnonzero(model.rows), np.flatnonzero(used))
        assert [c.shape for c in model.columns.values()] == [(used.sum() + 1,)] * len(dense)
        save_model(model, scratch)
        with mock.patch.object(model_mod, "_LOAD_BLOCK", block):
            loaded = load_model(scratch)
        docs = random_docs([0, 1, 7, 30], seed=seed % 97)
        expected = _bits([score_dense(dense, cfg, words) for words in docs])
        for m in (model, loaded):
            assert _bits(predict(m, docs)) == expected
            assert [bits(w) for w in densify(m).values()] == [bits(w) for w in dense.values()]
        data = scratch.read_bytes()
        save_model(loaded, scratch)
        assert scratch.read_bytes() == data

    def test_trained_model_saved_and_loaded(self, tmp_path):
        cfg = replace(CFG, include_uni=True)
        model = train(synthetic_corpus(40, seed=2), AugmentConfig(), seed=1, model_cfg=cfg)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        dense = densify(model)
        docs = random_docs([3, 50, 9], seed=4)
        expected = _bits([score_dense(dense, cfg, words) for words in docs])
        assert _bits(predict(model, docs)) == _bits(predict(loaded, docs)) == expected
        again = tmp_path / "again.bin"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_from_dense_takes_the_heads(self):
        heads = zero_heads(SMALL)
        model_from_dense(SMALL, 0, heads)
        assert heads == {}

    @pytest.mark.parametrize("include_uni", [False, True], ids=["2-heads", "4-heads"])
    def test_train_holds_no_dense_head(self, include_uni):
        # dense heads of 2**18 + 1 weights took 4.9 MB with 2 heads and 9.1 MB with 4
        cfg = ModelConfig(epochs=2, include_uni=include_uni)
        corpus = synthetic_corpus(40, seed=0)
        train(synthetic_corpus(5, seed=1), AugmentConfig(), seed=0, model_cfg=cfg)  # warm-up
        tracemalloc.start()
        try:
            train(corpus, AugmentConfig(), seed=0, model_cfg=cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_load_and_predict_hold_no_dense_head(self, tmp_path):
        # 4 heads of 2**18 + 1 weights: the dense heads alone took 8 MB
        cfg = ModelConfig(include_uni=True)
        rng = np.random.default_rng(0)
        features = rng.choice(cfg.hash_dim, cfg.hash_dim // 20, replace=False)  # 5% of them
        dense = {}
        for name in cfg.head_names:
            dense[name] = w = np.zeros(cfg.hash_dim + 1)
            at = features[rng.random(features.shape[0]) < 0.7]
            w[at] = rng.normal(size=at.shape[0])
            w[-1] = 0.25
        path = tmp_path / "model.bin"
        save_model(model_from_dense(cfg, 0, dense), path)
        docs = random_docs([12] * 12, seed=5)
        tracemalloc.start()
        try:
            predict(load_model(path), docs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestInterpolate:
    def make(self):
        return ProbMatrix(
            p_bos=np.array([0.2, 0.4]),
            p_eos=np.array([0.6, 0.8]),
            p_bos_uni=np.array([0.6, 0.2]),
            p_eos_uni=np.array([0.1, 0.9]),
        )

    def test_lambda_zero_is_bidirectional(self):
        m = self.make()
        out = interpolate(m, InterpConfig(lam=0.0))
        assert np.array_equal(out.p_bos, m.p_bos)
        assert np.array_equal(out.p_eos, m.p_eos)
        assert not out.has_uni

    def test_lambda_one_is_unidirectional(self):
        m = self.make()
        out = interpolate(m, InterpConfig(lam=1.0))
        assert np.array_equal(out.p_bos, m.p_bos_uni)
        assert np.array_equal(out.p_eos, m.p_eos_uni)

    def test_midpoint_arithmetic(self):
        m = ProbMatrix(
            p_bos=np.array([0.2]),
            p_eos=np.array([0.2]),
            p_bos_uni=np.array([0.6]),
            p_eos_uni=np.array([0.6]),
        )
        out = interpolate(m, InterpConfig(lam=0.5))
        assert out.p_bos[0] == pytest.approx(0.4, abs=1e-15)

    def test_affine_in_lambda(self):
        rng = np.random.default_rng(8)
        m = ProbMatrix(rng.random(20), rng.random(20), rng.random(20), rng.random(20))
        at0 = interpolate(m, InterpConfig(lam=0.0))
        at1 = interpolate(m, InterpConfig(lam=1.0))
        for lam in (0.25, 0.5, 0.9):
            out = interpolate(m, InterpConfig(lam=lam))
            mix_bos = lam * at1.p_bos + (1 - lam) * at0.p_bos
            assert np.abs(out.p_bos - mix_bos).max() < 1e-12

    def test_requires_uni(self):
        m = ProbMatrix(np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            interpolate(m, InterpConfig())

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            InterpConfig(lam=1.5)


class TestProbFiles:
    def test_round_trip_with_uni(self, tmp_path):
        rng = np.random.default_rng(9)
        docs = [
            (["tok%d" % i for i in range(5)], ProbMatrix(*(rng.random(5) for _ in range(4)))),
            (["a", "b"], ProbMatrix(*(rng.random(2) for _ in range(4)))),
        ]
        path = tmp_path / "probs.tsv"
        write_prob_documents(path, docs)
        with open(path) as f:
            loaded = iter_prob_documents(f)
        assert _bits(loaded) == _bits([m for _, m in docs])

    def test_single_doc_uni(self):
        text = "#probs v1 uni=1\n0\thello\t0.25\t0.5\t0.75\t0.125\n1\tworld\t0.1\t0.2\t0.3\t0.4\n2\t!\t0\t1\t0.5\t0.5\n"
        [m] = iter_prob_documents(io.StringIO(text))
        assert m.n == 3 and m.has_uni
        assert m.p_bos[0] == 0.25

    def test_out_of_range_names_row(self):
        text = "#probs v1 uni=0\n0\tx\t0.5\t0.5\n1\ty\t1.2\t0.5\n"
        with pytest.raises(ProbFileError, match="row 3"):
            iter_prob_documents(io.StringIO(text))

    def test_ragged_columns_rejected(self):
        text = "#probs v1 uni=0\n0\tx\t0.5\t0.5\t0.5\n"
        with pytest.raises(ProbFileError, match="columns"):
            iter_prob_documents(io.StringIO(text))

    def test_ragged_rows_that_balance_rejected(self):
        # 3 + 5 fields: the flat field list has two rows' worth, and the
        # shifted index column still reads 0, 1
        text = "#probs v1 uni=0\n0\t1\t0.5\n0.5\t1\t0.5\t0.5\t0.5\n"
        with pytest.raises(ProbFileError, match=r"^row 2: expected 4 columns \(uni=0\), got 3$"):
            iter_prob_documents(io.StringIO(text))

    def test_empty_after_header(self):
        assert iter_prob_documents(io.StringIO("#probs v1 uni=0\n")) == []

    def test_missing_header(self):
        with pytest.raises(ProbFileError, match="header"):
            iter_prob_documents(io.StringIO("0\tx\t0.5\t0.5\n"))

    # str.splitlines() also breaks lines at these; a token holding one used
    # to split its row and fail with "expected 4 columns"
    @pytest.mark.parametrize("sep", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_unicode_line_separators_in_tokens_round_trip(self, tmp_path, sep):
        tokens = [f"a{sep}b", sep, f"x{sep}"]
        m = ProbMatrix(np.array([0.5, 0.25, 1.0]), np.array([0.125, 0.0, 0.75]))
        path = tmp_path / "probs.tsv"
        y = ProbMatrix(np.array([0.5]), np.array([0.5]))
        write_prob_documents(path, [(tokens, m), (["y"], y)])
        assert path.read_text(encoding="utf-8").count(sep) == 3  # inside three rows
        expected = _bits([m, y])
        with open(path, encoding="utf-8") as f:
            assert _outcome(iter_prob_documents, f) == expected
        # untranslated line ends, as sys.stdin gives them
        untranslated = io.StringIO(path.read_bytes().decode("utf-8"))
        assert _outcome(iter_prob_documents, untranslated) == expected

    @pytest.mark.parametrize("uni, n", [(False, 40), (True, 40), (True, 5000)])
    def test_written_files_never_take_the_row_by_row_path(self, tmp_path, uni, n):
        # a silent fall to the slow path would keep every value and lose the speed
        rng = np.random.default_rng(n)
        tokens = ["#", '"', "'", " 7 ", "a\x0bb", "\u00e9", "\u2028", "x"]
        docs = []
        for k in (1, n, 3):
            columns = rng.random((4 if uni else 2, k))
            columns.flat[:4] = [0.0, 1.0, 5e-324, -0.0][: columns.size]
            docs.append(([tokens[i % len(tokens)] for i in range(k)], ProbMatrix(*columns)))
        path = tmp_path / "probs.tsv"
        write_prob_documents(path, docs)
        assert (path.stat().st_size > model_mod._BATCH_CHARS) == (n > 1000)
        slow = AssertionError("row-by-row path")
        with open(path, encoding="utf-8") as f:
            with mock.patch.object(model_mod, "_check_prob_rows", side_effect=slow):
                loaded = iter_prob_documents(f)
        assert _bits(loaded) == _bits([m for _, m in docs])


# Any character but a line end: the reader and the row reference end lines at
# "\n", "\r\n" and "\r" only, so tokens and numbers may hold the other
# characters at which str.splitlines() breaks lines, such as "\x0c" or U+2028.
_PROB_TEXT = st.one_of(
    st.sampled_from("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    st.characters(codec="utf-8", exclude_characters="\n\r"),
)
_GOOD_VALUES = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.sampled_from(["0", "1", "-0.0", "1e-3", "0.5 ", " 0.25", "1_0e-1", "+.5", "1.0000"]),
)
_BAD_VALUES = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e400", "1_0", "", " ", "x", "1.5", "-0.1", "0x1"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(_PROB_TEXT, max_size=3),
)


@st.composite
def prob_file_texts(draw):
    """Probability file text, mostly well formed, with the malformations the reader must name."""

    def rare(bad, good):
        # one draw in 40 is malformed, so about half of the files parse
        return draw(bad if draw(st.integers(0, 39)) == 0 else good)

    header, ncols = rare(
        st.sampled_from([
            ("#probs v2 uni=0", 4), ("probs v1", 4), ("", 4), (" #probs v1", 4),
            ("#probs v1 uni=1 uni=0", 4), ("#probs v1x  uni=1", 6), ("#probs v1 uni=2", 4),
        ]),
        st.sampled_from([("#probs v1 uni=0", 4), ("#probs v1 uni=1", 6), ("#probs v1", 4)]),
    )
    lines = [header]
    for d in range(draw(st.integers(0, 3))):
        blank = st.sampled_from(["", " ", "\t", " \t ", "\u3000", "\x0c", "\u2028"])
        lines += draw(st.lists(blank, min_size=int(d > 0), max_size=2))
        for i in range(draw(st.integers(1, 4))):
            index = rare(
                st.sampled_from(
                    [f"0{i}", f"+{i}", f" {i}", f"{i} ", f"{i}.0", "1e0", str(i + 1), "x", ""]
                ),
                st.just(str(i)),
            )
            token = draw(st.text(_PROB_TEXT, min_size=1, max_size=4))
            width = rare(st.sampled_from([1, 3, 4, 5, 6, 7]), st.just(ncols))
            values = [rare(_BAD_VALUES, _GOOD_VALUES) for _ in range(max(width - 2, 0))]
            lines.append("\t".join([index, token, *values][:width]))
    lines += draw(st.lists(st.sampled_from(["", " "]), max_size=2))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _bits(docs):
    """Each document's row count and the bits of its values."""
    return [
        (m.n, [None if v is None else (v.dtype.str, v.tobytes())
               for v in (m.p_bos, m.p_eos, m.p_bos_uni, m.p_eos_uni)])
        for m in docs
    ]


def _outcome(read, source):
    """What a reader makes of `source`: its error, or the bits of every document."""
    try:
        return _bits(read(source))
    except ProbFileError as exc:
        return ("error", str(exc))


class TestProbReaderMatchesRowReader:
    @pytest.fixture(scope="class")
    def scratch_file(self, tmp_path_factory):
        return tmp_path_factory.mktemp("probs") / "probs.tsv"

    @settings(max_examples=400)
    @given(text=prob_file_texts())
    def test_same_documents_or_same_error(self, text, scratch_file):
        expected = _outcome(iter_prob_documents_rows, text)
        scratch_file.write_bytes(text.encode("utf-8"))
        with open(scratch_file, encoding="utf-8") as f:
            assert _outcome(iter_prob_documents, f) == expected
        # io.StringIO, like sys.stdin, leaves "\r\n" and lone "\r" untranslated
        assert _outcome(iter_prob_documents, io.StringIO(text)) == expected


class TestProbReaderInPieces:
    """Documents longer than a line batch are parsed in pieces and joined."""

    @settings(max_examples=200)
    @given(text=prob_file_texts(), batch_chars=st.integers(1, 60))
    def test_same_documents_or_same_error(self, text, batch_chars):
        expected = _outcome(iter_prob_documents_rows, text)
        with mock.patch.object(model_mod, "_BATCH_CHARS", batch_chars):
            assert _outcome(iter_prob_documents, io.StringIO(text)) == expected

    @pytest.mark.parametrize(
        "row, error",
        [
            ("5\tf\t0.5\tx", "row 9: p_eos is not a number: 'x'"),
            ("5\tf\t0.5", "row 9: expected 4 columns (uni=0), got 3"),
            ("6\tf\t0.5\t0.5", "row 9: index 6, expected 5"),
            ("x\tf\t0.5\t0.5", "row 9: bad index 'x'"),
            ("5\tf\t1.5\t0.5", "row 9: p_bos=1.5 outside [0, 1]"),
            # numpy's reader and int()/float() differ on these
            ("5\tf\t0.5\t0.5\t", "row 9: expected 4 columns (uni=0), got 5"),
            ("5.0\tf\t0.5\t0.5", "row 9: bad index '5.0'"),
            ("99999999999999999999\tf\t0.5\t0.5", "row 9: index 99999999999999999999, expected 5"),
            ("5\tf\t0.5\x00\t0.5", "row 9: p_bos is not a number: '0.5\\x00'"),
            ("5\tf\t0.5\x1f\t0.5", "row 9: p_bos is not a number: '0.5\\x1f'"),
            ("\u01fe5\tf\t0.5\t0.5", "row 9: bad index '\u01fe5'"),
            ("05\tf\t0.5\t0.5", None),  # int() accepts "05"
            ("+5\tf\t0.5\t0.5", None),
            ("5\tf\t1_0e-1\t0.5", None),  # float() accepts underscores
            ("5\tf\t\u0660.5\t0.5", None),  # and non-ASCII digits
            ("5\t#\t0.5\t0.5", None),  # tokens are never comments or quotes
            ('5\t"\t0.5\t0.5', None),
            ("5\t'\t0.5\t0.5", None),
            ("5\t 7 \t0.5\t0.5", None),
        ],
    )
    @pytest.mark.parametrize("batch_chars", [1, 20, 1 << 16])
    def test_row_in_a_later_piece(self, row, error, batch_chars):
        # a first document of one row, then one of 8 rows whose sixth is `row`
        rows = [f"{i}\t{t}\t0.{i + 1}\t0.25" for i, t in enumerate("abcdefgh")]
        rows[5] = row
        text = "#probs v1 uni=0\n0\tz\t1\t0\n\n" + "\n".join(rows) + "\n"
        with mock.patch.object(model_mod, "_BATCH_CHARS", batch_chars):
            got = _outcome(iter_prob_documents, io.StringIO(text))
        assert got == _outcome(iter_prob_documents_rows, text)
        if error is not None:
            assert got == ("error", error)
        else:
            columns = [[float(r.split("\t")[k]) for r in rows] for k in (2, 3)]
            m = ProbMatrix(*map(np.array, columns))
            assert got[1:] == _bits([m])

    def test_document_split_across_batches_is_bit_identical(self):
        rng = np.random.default_rng(4)
        docs = [
            ([f"t{i}" for i in range(n)], ProbMatrix(*(rng.random(n) for _ in range(4))))
            for n in (1, 300, 2, 5000)
        ]
        buf = io.StringIO()
        buf.write("#probs v1 uni=1\n")
        for d, (tokens, m) in enumerate(docs):
            buf.write("\n" if d else "")
            for i in range(m.n):
                values = (m.p_bos[i], m.p_eos[i], m.p_bos_uni[i], m.p_eos_uni[i])
                buf.write("\t".join([str(i), tokens[i], *map(repr, map(float, values))]) + "\n")
        text = buf.getvalue()
        assert len(text) > 2 * model_mod._BATCH_CHARS  # the last document spans batches
        expected = _outcome(iter_prob_documents_rows, text)
        assert _outcome(iter_prob_documents, io.StringIO(text)) == expected
        assert expected == _bits([m for _, m in docs])

    def test_numpy_deprecation_warning_takes_the_row_by_row_path(self):
        # numpy < 2 reads the integer "1.0" with only a DeprecationWarning
        loadtxt = np.loadtxt

        def warning_loadtxt(rows, **kwargs):
            table = loadtxt([row.replace("1.0\t", "1\t", 1) for row in rows], **kwargs)
            warnings.warn("parsing an integer via a float", DeprecationWarning)
            return table

        text = "#probs v1 uni=0\n0\ta\t0.5\t0.5\n1.0\tb\t0.5\t0.5\n"
        with mock.patch.object(np, "loadtxt", warning_loadtxt):
            got = _outcome(iter_prob_documents, io.StringIO(text))
        assert got == ("error", "row 3: bad index '1.0'")

    def test_numpy_reads_only_ascii(self):
        # numpy's integer parser classifies a non-ASCII character by reading
        # past the end of a table: it read "\U00020000" + "5" as 1310245, and a
        # scan of every code point crashed it
        loadtxt, seen = np.loadtxt, []

        def recording_loadtxt(rows, **kwargs):
            seen.extend(rows)
            return loadtxt(rows, **kwargs)

        text = "#probs v1 uni=0\n0\t\u00e9\t0.5\t0.5\n\u01fe1\tb\t0.5\t0.5\n"
        with mock.patch.object(np, "loadtxt", recording_loadtxt):
            got = _outcome(iter_prob_documents, io.StringIO(text))
        assert got == ("error", "row 3: bad index '\u01fe1'")
        assert seen and all(row.isascii() for row in seen)

    def test_peak_memory_bounded_by_batch(self, tmp_path):
        # parsing a whole document at once would grow the peak with the document
        def peak(n_docs):
            rows = 40_000 // n_docs
            doc = "".join(f"{i}\tw\t0.25\t0.5\n" for i in range(rows))
            path = tmp_path / f"probs{n_docs}.tsv"
            path.write_text("#probs v1 uni=0\n" + "\n".join([doc] * n_docs))
            with open(path, encoding="utf-8") as f:
                tracemalloc.start()
                try:
                    docs = iter_prob_documents(f)
                    top = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert [m.n for m in docs] == [rows] * n_docs
            return top

        peak(20)  # warm-up: first-call allocations are not the document's
        assert peak(1) <= 1.5 * peak(20)


class TestProbMatrix:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            ProbMatrix(np.array([1.5]), np.array([0.5]))

    def test_length_validation(self):
        with pytest.raises(ValueError):
            ProbMatrix(np.array([0.5]), np.array([0.5, 0.5]))

    def test_uni_pairing(self):
        with pytest.raises(ValueError):
            ProbMatrix(np.array([0.5]), np.array([0.5]), p_bos_uni=np.array([0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_rejected(self, bad, slot):
        # NaN passes min()/max() range checks, and identify() then returned a
        # span with a finite log_prob
        vecs = [np.array([0.9, 0.5, 0.2]) for _ in range(4)]
        vecs[slot][1] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ProbMatrix(*vecs)
