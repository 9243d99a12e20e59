"""Concatenation, geometric sampling, unit transforms, truncation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentid.augment import (
    UNBOUNDED_LENGTH,
    AugmentConfig,
    TrainingExample,
    augment_unit,
    concat_units,
    example_stream,
    generate_examples,
    sample_length,
    strip_end_punctuation,
    truncate_edges,
    write_examples,
    _apply_transform,
)
from sentid.corpus import Corpus, Unit, gold_word_labels
from sentid.labels import boundaries_to_bio

from oracles import PairUnit, example_stream_two_paths, generate_examples_loop
from synth import synthetic_corpus, unit_from_words


def su(*words):
    return unit_from_words(list(words), True)


def nsu(*words):
    return unit_from_words(list(words), False)


def small_corpus():
    return Corpus([su("Hi", "."), su("Go", "!"), nsu("***"), su("Ok", "then", ".")])


class TestSampleLength:
    def test_p_one_always_one(self):
        rng = np.random.default_rng(0)
        cfg = AugmentConfig(p_cc=1.0)
        assert all(sample_length(cfg, rng) == 1 for _ in range(100))

    def test_p_zero_unbounded(self):
        rng = np.random.default_rng(0)
        assert sample_length(AugmentConfig(p_cc=0.0), rng) == UNBOUNDED_LENGTH

    def test_mean_matches_inverse_p(self):
        rng = np.random.default_rng(1)
        cfg = AugmentConfig(p_cc=0.5)
        draws = np.array([sample_length(cfg, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 0.04  # 2% of 1/p

    def test_pmf_matches_geometric(self):
        rng = np.random.default_rng(2)
        n = 100_000
        for p in (0.25, 0.5, 0.75):
            draws = np.array([sample_length(AugmentConfig(p_cc=p), rng) for _ in range(n)])
            for l in range(1, 6):
                expected = (1 - p) ** (l - 1) * p
                se = np.sqrt(expected * (1 - expected) / n)
                assert abs((draws == l).mean() - expected) <= 3 * se


class TestConcatUnits:
    def test_two_sus(self):
        ex = concat_units(small_corpus(), 0, 2, AugmentConfig())
        assert ex.words == ("Hi", ".", "Go", "!")
        assert ex.gold.bos_indices == [0, 2]
        assert ex.gold.eos_indices == [1, 3]

    def test_su_then_nsu(self):
        ex = concat_units(small_corpus(), 1, 2, AugmentConfig())
        assert ex.words == ("Go", "!", "***")
        assert ex.gold.bos_indices == [0]
        assert ex.gold.eos_indices == [1]

    def test_cap_reduces_unit_count(self):
        corpus = Corpus([su("a", "b"), su("c", "d"), su("e", "f"), su("g", "h"), su("i", "j")])
        ex = concat_units(corpus, 0, 5, AugmentConfig(max_tokens=6))
        assert len(ex.provenance) == 3
        assert len(ex.words) == 6

    def test_single_oversize_unit_clipped_and_relabff(self):
        corpus = Corpus([su(*[f"w{i}" for i in range(10)])])
        ex = concat_units(corpus, 0, 1, AugmentConfig(max_tokens=4))
        assert len(ex.words) == 4
        assert ex.gold.bos_indices == [] and ex.gold.eos_indices == []
        assert ex.provenance[0].is_su is False
        assert "clip_tail" in ex.provenance[0].transforms

    def test_unbounded_takes_all_that_fit(self):
        ex = concat_units(small_corpus(), 0, UNBOUNDED_LENGTH, AugmentConfig())
        assert len(ex.provenance) == 4

    def test_bad_start(self):
        with pytest.raises(IndexError):
            concat_units(small_corpus(), 9, 1, AugmentConfig())


class TestGoldFromProvenance:
    def test_fields_are_words_and_provenance(self):
        assert [f.name for f in dataclasses.fields(TrainingExample)] == ["words", "provenance"]

    def test_gold_follows_replaced_provenance(self):
        ex = concat_units(small_corpus(), 0, UNBOUNDED_LENGTH, AugmentConfig())
        assert ex.gold.bos_indices == [0, 2, 5] and ex.gold.eos_indices == [1, 3, 7]
        # SU flags flipped: the "***" unit alone is a span now
        p = tuple(dataclasses.replace(u, is_su=not u.is_su) for u in ex.provenance)
        gold = dataclasses.replace(ex, provenance=p).gold
        assert gold.bos_indices == [4] and gold.eos_indices == [4]


class TestStripEndPunctuation:
    def test_matcher_cases(self):
        cfg = AugmentConfig()
        P, Pe = cfg.punct_set, cfg.end_punct_set
        assert strip_end_punctuation("school.", P, Pe) == "school"
        assert strip_end_punctuation("Really?!)", P, Pe) == "Really"
        assert strip_end_punctuation("world", P, Pe) == "world"
        assert strip_end_punctuation("world)", P, Pe) == "world)"  # no end mark
        assert strip_end_punctuation("a.)", P, Pe) == "a"
        assert strip_end_punctuation("?!", P, Pe) == ""


class TestApplyTransform:
    def test_punct_removal_worked_example(self):
        unit = su("Joe", "went", "to", "school.")
        out = _apply_transform(unit, "strip_punct", AugmentConfig())
        assert out.words == ("Joe", "went", "to", "school")
        assert out.text == "Joe went to school"
        assert out.is_su is True

    def test_punct_removal_separate_token(self):
        unit = su("Joe", "went", "to", "school", ".")
        out = _apply_transform(unit, "strip_punct", AugmentConfig())
        assert out.words == ("Joe", "went", "to", "school")
        assert out.text == "Joe went to school"

    def test_upper_case_worked_example(self):
        unit = su("After", "that", "he")
        out = _apply_transform(unit, "upper", AugmentConfig())
        assert out.words == ("AFTER", "THAT", "HE")

    def test_lower_and_title(self):
        unit = su("HELLO", "WORLD")
        assert _apply_transform(unit, "lower", AugmentConfig()).words == ("hello", "world")
        assert _apply_transform(unit, "title", AugmentConfig()).words == ("Hello", "World")

    def test_no_match_unchanged(self):
        unit = su("Hello", "world")
        out = _apply_transform(unit, "strip_punct", AugmentConfig())
        assert out.words == ("Hello", "world")

    def test_all_punct_unit_kept(self):
        unit = nsu("?!")
        out = _apply_transform(unit, "strip_punct", AugmentConfig())
        assert out.words == ("?!",)  # refusing to empty the unit

    def test_offsets_rebuilt(self):
        unit = Unit(text="Hi.", words=("Hi", "."), is_su=True, offsets=(0, 2, 2, 3))
        out = _apply_transform(unit, "upper", AugmentConfig())
        assert out.text == "HI."
        assert out.offsets == (0, 2, 2, 3)
        PairUnit.of(out).validate()

    def test_never_changes_is_su(self):
        rng = np.random.default_rng(3)
        cfg = AugmentConfig(p_da=1.0)
        for unit in (su("A", "b", "."), nsu("x")):
            for _ in range(20):
                assert augment_unit(unit, cfg, rng)[0].is_su == unit.is_su

    def test_rate_converges(self):
        rng = np.random.default_rng(4)
        cfg = AugmentConfig(p_da=0.3)
        unit = su("HeLLo", "wOrld", "x.")  # every transform changes it
        n = 20_000
        changed = sum(augment_unit(unit, cfg, rng)[0] != unit for _ in range(n))
        assert abs(changed / n - 0.3) < 0.02


class TestTruncateEdges:
    def test_head_truncation_relabels_nsu(self):
        corpus = Corpus([su("Joe", "went", "to", "school"), su("After", "that")])
        ex = concat_units(corpus, 0, 2, AugmentConfig())
        # force deterministic truncation: p_tr=1 and a seed whose first
        # uniform position lands past the unit start
        rng = np.random.default_rng(5)
        out = truncate_edges(ex, AugmentConfig(p_tr=1.0), rng)
        first = out.provenance[0]
        if "truncate_head" in first.transforms:
            assert first.is_su is False
            assert 0 not in out.gold.bos_indices or out.words[0] != "Joe"
        # second unit's begin flag must survive head truncation
        second_start = first.token_count
        if out.provenance[1].is_su:
            assert second_start in out.gold.bos_indices

    def test_truncation_worked_example(self):
        corpus = Corpus([su("Joe", "went", "to", "school"), su("After", "that", "he")])
        ex = concat_units(corpus, 0, 2, AugmentConfig())

        class FixedRng:
            def __init__(self, reals, ints):
                self.reals, self.ints = list(reals), list(ints)

            def random(self):
                return self.reals.pop(0)

            def integers(self, lo, hi):
                return self.ints.pop(0)

        # truncate the first unit at word "to" (index 2); skip the tail draw
        out = truncate_edges(ex, AugmentConfig(p_tr=0.5), FixedRng([0.0, 0.9], [2]))
        assert out.words == ("to", "school", "After", "that", "he")
        assert out.provenance[0].is_su is False
        assert out.gold.bos_indices == [2]  # the following unit's begin flag retained
        assert out.gold.eos_indices == [4]

    def test_zero_removal_keeps_su(self):
        corpus = Corpus([su("One", "two")])
        ex = concat_units(corpus, 0, 1, AugmentConfig())

        class FixedRng:
            def __init__(self, ints):
                self.ints = list(ints)

            def random(self):
                return 0.0  # always truncate

            def integers(self, lo, hi):
                return self.ints.pop(0)

        out = truncate_edges(ex, AugmentConfig(p_tr=1.0), FixedRng([0, 1]))
        # head draw at word 0 and tail draw at the last word remove nothing
        assert out.words == ("One", "two")
        assert out.provenance[0].is_su is True
        assert out.gold.bos_indices == [0]

    def test_both_edges_may_empty_gold(self):
        corpus = Corpus([su("a", "b", "c", "d")])
        ex = concat_units(corpus, 0, 1, AugmentConfig())

        class FixedRng:
            def __init__(self, ints):
                self.ints = list(ints)

            def random(self):
                return 0.0

            def integers(self, lo, hi):
                return self.ints.pop(0)

        out = truncate_edges(ex, AugmentConfig(p_tr=1.0), FixedRng([1, 0]))
        assert out.words == ("b",)
        assert out.gold.bos_indices == [] and out.gold.eos_indices == []
        out.gold.validate()


class TestStream:
    def test_deterministic(self):
        corpus = small_corpus()
        cfg = AugmentConfig(p_cc=0.5, p_da=0.5, p_tr=0.3)
        a = list(example_stream(corpus, cfg, seed=7, epoch=1))
        b = list(example_stream(corpus, cfg, seed=7, epoch=1))
        assert [x.words for x in a] == [x.words for x in b]
        assert [x.gold.bos_indices for x in a] == [x.gold.bos_indices for x in b]

    def test_epochs_differ(self):
        corpus = small_corpus()
        cfg = AugmentConfig(p_cc=0.5, p_da=0.5, p_tr=0.3)
        runs = [tuple(tuple(x.words) for x in example_stream(corpus, cfg, 7, e)) for e in range(6)]
        assert len(set(runs)) > 1

    def test_invariants_hold(self):
        corpus = small_corpus()
        cfg = AugmentConfig(p_cc=0.4, p_da=0.6, p_tr=0.4, max_tokens=5)
        for epoch in range(30):
            for ex in example_stream(corpus, cfg, seed=11, epoch=epoch):
                assert len(ex.words) <= cfg.max_tokens
                assert len(ex.gold) == len(ex.words)
                ex.gold.validate()

    @given(
        shape=st.lists(st.tuples(st.integers(1, 8), st.booleans()), min_size=1, max_size=10),
        p_cc=st.sampled_from([0.0, 0.5, 1.0]),
        p_da=st.sampled_from([0.0, 0.5, 1.0]),
        p_tr=st.sampled_from([0.0, 0.5, 1.0]),
        max_tokens=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    def test_gold_flags_follow_provenance(self, shape, p_cc, p_da, p_tr, max_tokens, seed):
        # units of up to 8 words under a cap of 1-10 tokens: the clip path runs too
        units = [unit_from_words([f"W{i}." for i in range(n)], is_su) for n, is_su in shape]
        cfg = AugmentConfig(p_cc=p_cc, p_da=p_da, p_tr=p_tr, max_tokens=max_tokens)
        for ex in example_stream(Corpus(units), cfg, seed):
            ex.gold.validate()
            assert boundaries_to_bio(ex.gold) == gold_word_labels(ex.provenance)
            assert sum(p.token_count for p in ex.provenance) == len(ex.words)

    def test_covers_all_units_once(self):
        corpus = small_corpus()
        cfg = AugmentConfig(p_cc=0.5, p_da=0.0, p_tr=0.0)
        seen = [p.unit_index for ex in example_stream(corpus, cfg, 3, 0) for p in ex.provenance]
        assert seen == [0, 1, 2, 3]

    def test_generate_examples_wraps(self, tmp_path):
        corpus = small_corpus()
        cfg = AugmentConfig()
        examples = generate_examples(corpus, cfg, seed=1, count=10)
        assert len(examples) == 10
        path = tmp_path / "examples.jsonl"
        write_examples(path, examples)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(p_cc=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(end_punct_set=".?!#")


def _outcome(examples):
    """The examples an iterable yields, and the error that ends it early, if any."""
    out = []
    try:
        for ex in examples:
            out.append(ex)
    except (ValueError, IndexError) as exc:
        return out, (type(exc), str(exc))
    return out, None


_WORDS = st.lists(st.sampled_from(["a", "B", "c.", "Dd!", "e?)", ".", "!)"]), max_size=9)


class TestOneLoopMatchesTwoPaths:
    """`example_stream` and `generate_examples` against select-then-build and two-branch cuts."""

    @settings(max_examples=300)
    @given(
        shape=st.lists(st.tuples(_WORDS, st.booleans()), max_size=12),
        p_cc=st.sampled_from([0.0, 0.5, 1.0]),
        p_da=st.sampled_from([0.0, 0.3, 1.0]),
        p_tr=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
        max_tokens=st.one_of(st.integers(1, 8), st.just(512)),
        augment=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_example_stream(self, shape, p_cc, p_da, p_tr, max_tokens, augment, seed):
        # units of 0-9 words: empty ones, and ones longer than the cap, run too
        corpus = Corpus([unit_from_words(words, is_su) for words, is_su in shape])
        cfg = AugmentConfig(p_cc=p_cc, p_da=p_da, p_tr=p_tr, max_tokens=max_tokens)
        for epoch in range(3):
            assert _outcome(example_stream(corpus, cfg, seed, epoch, augment)) == _outcome(
                example_stream_two_paths(corpus, cfg, seed, epoch, augment)
            )

    @pytest.mark.parametrize("p_cc", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("max_tokens", [1, 3, 8, 512])
    def test_example_stream_synthetic(self, p_cc, max_tokens):
        corpus = synthetic_corpus(120, seed=4)
        for p_tr in (0.0, 0.3, 1.0):
            cfg = AugmentConfig(p_cc=p_cc, p_tr=p_tr, max_tokens=max_tokens)
            for epoch in range(3):
                for augment in (True, False):
                    assert list(example_stream(corpus, cfg, 9, epoch, augment)) == list(
                        example_stream_two_paths(corpus, cfg, 9, epoch, augment)
                    )

    @settings(max_examples=100)
    @example(n_units=0, p_cc=0.5, max_tokens=512, count=0, seed=0)
    @example(n_units=0, p_cc=0.5, max_tokens=512, count=1, seed=0)
    @given(
        n_units=st.integers(0, 30),
        p_cc=st.sampled_from([0.0, 0.5, 1.0]),
        max_tokens=st.one_of(st.integers(1, 8), st.just(512)),
        count=st.integers(0, 60),
        seed=st.integers(0, 2**16),
    )
    def test_generate_examples(self, n_units, p_cc, max_tokens, count, seed):
        corpus = synthetic_corpus(n_units, seed=seed)
        cfg = AugmentConfig(p_cc=p_cc, p_tr=0.5, max_tokens=max_tokens)

        def run(generate):
            try:
                return generate(corpus, cfg, seed, count)
            except ValueError as exc:
                return str(exc)

        assert run(generate_examples) == run(generate_examples_loop)
