"""Label algebra: assignment rules, conversions, round trips."""

import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentid.corpus import Unit, gold_word_labels
from sentid.evaluation import bio_f1, evaluate_documents
from sentid.labels import (
    BoundarySeq,
    LabelError,
    LabelSeq,
    bio_to_boundaries,
    boundaries_to_bio,
    chars_to_coarse,
    coarse_to_chars,
    spans_to_labels,
)

from oracles import (
    bio_to_boundaries_loop,
    boundaries_to_bio_loop,
    coarse_to_chars_loop,
    label_spans,
    random_valid_labels,
    render_granularity,
    spans_to_labels_loop,
    validate_loop,
)
from synth import unit_from_words


class TestLabelSeq:
    def test_rejects_bad_symbols(self):
        with pytest.raises(LabelError):
            LabelSeq("word", "BIX")

    @pytest.mark.parametrize(
        "labels, exc, message",
        [
            (["B", "X"], LabelError, "labels contain ['X'], expected B/I/O"),
            (5, TypeError, "'int' object is not iterable"),
            ("BéO", LabelError, "labels contain ['é'], expected B/I/O"),
            ("B\ud800", LabelError, "labels contain ['\\ud800'], expected B/I/O"),
        ],
    )
    def test_alphabet_errors(self, labels, exc, message):
        with pytest.raises(exc) as info:
            LabelSeq("word", labels)
        assert type(info.value) is exc and str(info.value) == message

    @given(st.text(max_size=20) | st.text("BIOXé", max_size=20))
    @example("")
    def test_alphabet_check_matches_set_difference(self, labels):
        bad = set(labels) - set("BIO")
        if not bad:
            assert LabelSeq("word", labels).labels == labels
            return
        with pytest.raises(LabelError) as info:
            LabelSeq("word", labels)
        assert str(info.value) == f"labels contain {sorted(bad)!r}, expected B/I/O"

    def test_rejects_bad_granularity(self):
        with pytest.raises(LabelError):
            LabelSeq("token", "BI")

    def test_validate_rejects_orphan_i(self):
        with pytest.raises(LabelError, match="index 2"):
            LabelSeq("word", "BOI").validate()
        with pytest.raises(LabelError, match="index 0"):
            LabelSeq("word", "IB").validate()

    def test_spans(self):
        assert LabelSeq("word", "BIOBIB").spans() == [(0, 2), (3, 5), (5, 6)]
        assert LabelSeq("word", "OOO").spans() == []


class TestGoldCharLabels:
    """Char-level gold as the reports count it: gold word labels over words joined by spaces."""

    @staticmethod
    def assert_gold_chars(units, expected: str):
        """Gold scored against itself at char level counts the chars of `expected`."""
        gold = gold_word_labels(units)
        words = [w for u in units for w in u.words]
        report = evaluate_documents([(gold, gold, words)], "char")
        chars = LabelSeq("char", expected)
        assert report == bio_f1(chars, chars)
        supports = {lab: s.support for lab, s in report.per_label.items()}
        assert supports == {lab: expected.count(lab) for lab in "BIO" if lab in expected}
        assert supports.get("B", 0) == len(chars.spans())

    def test_su_then_nsu(self):
        units = [unit_from_words(["Hi", "."], True), unit_from_words(["***"], False)]
        # "Hi . ***": the SU's internal space is inside the span
        self.assert_gold_chars(units, "BIII" + "O" + "OOO")

    def test_su_then_nsu_no_internal_space(self):
        # SpaceAfter=No in the text does not reach the gold: words are joined by one space
        su = Unit(text="Hi.", words=("Hi", "."), is_su=True, offsets=(0, 2, 2, 3))
        units = [su, unit_from_words(["***"], False)]
        self.assert_gold_chars(units, "BIII" + "O" + "OOO")

    def test_single_char_su(self):
        self.assert_gold_chars([unit_from_words(["k"], True)], "B")

    def test_all_nsu(self):
        units = [unit_from_words(["a", "b"], False), unit_from_words(["c"], False)]
        self.assert_gold_chars(units, "OOOOO")

    def test_output_always_valid(self):
        # rendering gives valid char labels, and char scoring counts those labels
        rng = np.random.default_rng(0)
        for _ in range(50):
            units = [
                unit_from_words(["w%d" % k for k in range(rng.integers(1, 5))], bool(rng.integers(2)))
                for _ in range(rng.integers(1, 8))
            ]
            words = [w for u in units for w in u.words]
            chars = render_granularity(gold_word_labels(units), "char", words)
            chars.validate()
            self.assert_gold_chars(units, chars.labels)


class TestArrayPathsMatchLoops:
    """The regex spans and the np.repeat char rendering against their loop references."""

    @given(st.text("BIO", max_size=40))
    @example("")
    @example("IIB")  # leading I: in no span
    @example("BOIIB")  # I after O: in no span
    @example("BBIOB")
    def test_spans(self, labels):
        assert LabelSeq("word", labels).spans() == label_spans(labels)

    @given(st.data())
    def test_coarse_to_chars(self, data):
        labels = data.draw(st.text("BIO", max_size=12))
        k = len(labels)
        lengths = data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
        seps = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=k, max_size=k))
        out = coarse_to_chars(LabelSeq("word", labels), lengths, seps)
        assert out.labels == coarse_to_chars_loop(labels, lengths, seps)

    @pytest.mark.parametrize(
        "labels, lengths, seps, expected",
        [
            ("", [], [], ""),
            ("B", [0], [0], "B"),  # a zero-length B token still renders as B
            ("BIB", [0, 0, 3], [2, 2, 0], "BIIOOBII"),
            ("IOI", [2, 0, 1], [2, 0, 2], "IIOOIOO"),  # leading I, I after O
            ("OBO", [1, 2, 0], [0, 2, 2], "OBIOOOO"),
        ],
    )
    def test_coarse_to_chars_edges(self, labels, lengths, seps, expected):
        assert coarse_to_chars_loop(labels, lengths, seps) == expected
        assert coarse_to_chars(LabelSeq("word", labels), lengths, seps).labels == expected


class TestGranularityConversion:
    def test_coarse_rules(self):
        chars = LabelSeq("char", "BIOIOO")
        assert chars_to_coarse(chars, [(0, 2)]).labels == "B"
        assert chars_to_coarse(chars, [(2, 4)]).labels == "I"
        assert chars_to_coarse(chars, [(4, 6)]).labels == "O"

    def test_span_out_of_range(self):
        with pytest.raises(LabelError):
            chars_to_coarse(LabelSeq("char", "BI"), [(1, 3)])

    def test_expansion_rules(self):
        out = coarse_to_chars(LabelSeq("word", "BIO"), [3, 2, 2], [0, 0, 0])
        assert out.labels == "BII" + "II" + "OO"

    def test_separator_inside_span_is_inside(self):
        out = coarse_to_chars(LabelSeq("word", "BI"), [2, 2], [1, 0])
        assert out.labels == "BI" + "I" + "II"

    def test_separator_between_spans_is_outside(self):
        out = coarse_to_chars(LabelSeq("word", "BB"), [2, 2], [1, 0])
        assert out.labels == "BI" + "O" + "BI"
        out = coarse_to_chars(LabelSeq("word", "BO"), [2, 2], [1, 0])
        assert out.labels == "BI" + "O" + "OO"

    def test_word_char_word_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(1, 30))
            labs = LabelSeq("word", random_valid_labels(rng, n))
            lengths = [int(rng.integers(1, 6)) for _ in range(n)]
            seps = [int(rng.integers(0, 3)) for _ in range(n - 1)] + [0]
            chars = coarse_to_chars(labs, lengths, seps)
            spans = []
            pos = 0
            for length, sep in zip(lengths, seps):
                spans.append((pos, pos + length))
                pos += length + sep
            back = chars_to_coarse(chars, spans)
            assert back.labels == labs.labels

    def test_b_count_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            labs = LabelSeq("word", random_valid_labels(rng, n))
            lengths = [int(rng.integers(1, 6)) for _ in range(n)]
            chars = coarse_to_chars(labs, lengths, [1] * (n - 1) + [0])
            assert chars.labels.count("B") == labs.labels.count("B")


class TestBoundaries:
    def test_single_span(self):
        b = bio_to_boundaries(LabelSeq("word", "BIIO"))
        assert b.bos_indices == [0] and b.eos_indices == [2]

    def test_one_token_span(self):
        b = bio_to_boundaries(LabelSeq("word", "B"))
        assert b.bos_indices == [0] and b.eos_indices == [0]

    def test_adjacent_spans(self):
        b = bio_to_boundaries(LabelSeq("word", "BIBI"))
        assert b.bos_indices == [0, 2] and b.eos_indices == [1, 3]

    def test_inverses(self):
        for labs in ("BIIO", "B", "BIBI"):
            seq = LabelSeq("word", labs)
            assert boundaries_to_bio(bio_to_boundaries(seq)).labels == labs

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            seq = LabelSeq("word", random_valid_labels(rng, int(rng.integers(1, 40))))
            assert boundaries_to_bio(bio_to_boundaries(seq)).labels == seq.labels

    def test_alternation_validation(self):
        with pytest.raises(LabelError):
            BoundarySeq([1, 1, 0], [0, 0, 1]).validate()
        with pytest.raises(LabelError):
            BoundarySeq([0, 0, 0], [0, 1, 0]).validate()
        with pytest.raises(LabelError):
            BoundarySeq([0, 1, 0], [0, 0, 0]).validate()
        BoundarySeq([1, 0, 1], [1, 0, 1]).validate()


def _outcome(convert, *args):
    """The result of `convert`, or the type and message of the LabelError it raised."""
    try:
        return convert(*args)
    except LabelError as exc:
        return type(exc), str(exc)


def _flag_lists(b: BoundarySeq) -> tuple:
    return b.bos_flags.tolist(), b.eos_flags.tolist()


def _flag_pairs():
    """Begin/end flag lists of one length: any pair, or the flags of valid labels."""
    n = st.integers(0, 12)
    any_pair = n.flatmap(lambda k: st.tuples(*[st.lists(st.booleans(), min_size=k, max_size=k)] * 2))
    valid = st.text("BIO", max_size=12).map(lambda s: re.sub("(?<![BI])I", "B", s))
    return any_pair | valid.map(bio_to_boundaries_loop)


class TestSpanRuleMatchesLoops:
    """Validation and both flag conversions, built from spans, against their loop references."""

    @given(st.text("BIO", max_size=30))
    @example("")
    @example("IB")  # leading I
    @example("BOI")  # I after O
    @example("BIBIIOB")
    def test_validate(self, labels):
        got = _outcome(lambda s: LabelSeq("word", s).validate().labels, labels)
        assert got == _outcome(validate_loop, labels)

    @given(st.text("BIO", max_size=30))
    @example("IIB")
    @example("BBIOB")
    def test_bio_to_boundaries(self, labels):
        got = _outcome(lambda s: _flag_lists(bio_to_boundaries(LabelSeq("word", s))), labels)
        assert got == _outcome(bio_to_boundaries_loop, labels)

    @given(_flag_pairs())
    @example(([True, True, False], [False, False, True]))  # begin inside a span
    @example(([False, False, False], [False, True, False]))  # end without a begin
    @example(([False, True, False], [False, False, False]))  # ends inside a span
    @example(([True, False, True], [True, False, True]))  # one-token spans
    def test_boundaries_to_bio(self, flags):
        got = _outcome(lambda b, e: boundaries_to_bio(BoundarySeq(b, e)).labels, *flags)
        assert got == _outcome(boundaries_to_bio_loop, *flags)


class TestSpansToLabels:
    def test_render(self):
        assert spans_to_labels(5, [(0, 2), (3, 4)]).labels == "BIOBO"

    def test_range_check(self):
        with pytest.raises(LabelError):
            spans_to_labels(3, [(1, 4)])

    @staticmethod
    def outcome(render, n, spans):
        """The labels rendered, or the type and message of the error raised."""
        try:
            return render(n, spans)
        except ValueError as exc:  # LabelError or a span that does not unpack
            return type(exc), str(exc)

    def assert_matches_loop(self, n, spans):
        got = self.outcome(lambda n, sp: spans_to_labels(n, sp).labels, n, spans)
        assert got == self.outcome(spans_to_labels_loop, n, spans)

    @pytest.mark.parametrize(
        "n, spans",
        [
            (0, []),
            (4, []),
            (4, [(0, 4)]),  # full coverage
            (5, [(0, 2), (2, 3), (3, 5)]),  # adjacent
            (5, [(3, 5), (0, 2)]),  # unsorted: LabelError
            (5, [(0, 3), (2, 5)]),  # overlapping: LabelError
            (5, [(0, 4), (1, 3)]),  # nested: LabelError
            (3, [(1, 4)]),  # out of range
            (3, [(-1, 2)]),
            (3, [(1, 1)]),  # empty span
            (5, [(3, 4), (0, 9)]),  # out of range after an unsorted span
            (4, [(0, 1), (2,)]),  # a malformed span after a rendered one
        ],
    )
    def test_matches_loop(self, n, spans):
        self.assert_matches_loop(n, spans)

    @given(st.data())
    def test_matches_loop_random(self, data):
        n = data.draw(st.integers(0, 12))
        cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=8)))
        sorted_spans = list(zip(cuts[::2], cuts[1::2]))
        end = st.integers(-1, n + 1)
        any_spans = st.lists(st.tuples(end, end), max_size=5)
        self.assert_matches_loop(n, data.draw(st.just(sorted_spans) | any_spans))
