"""Metric tests: frozen hand computations, oracle agreement, aggregation."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sentid import evaluation
from sentid.evaluation import (
    AggregateReport,
    EvalError,
    Evaluator,
    EvalReport,
    aggregate,
    bio_f1,
    evaluate_documents,
    score_documents,
    span_f1,
    to_granularity,
)
from sentid.labels import GRANULARITIES, LabelSeq

from oracles import (
    evaluate_documents_rendered,
    label_counts,
    naive_label_scores,
    naive_span_scores,
    random_valid_labels,
    span_counts_sets,
)


def one_document(gold: str, pred: str, words=None) -> list:
    return [(LabelSeq("word", gold), LabelSeq("word", pred), words)]


class TestBioF1:
    def test_identity(self):
        r = bio_f1(LabelSeq("word", "BIOBI"), LabelSeq("word", "BIOBI"))
        assert r.macro_f1 == 1.0
        assert all(s.f1 == 1.0 for s in r.per_label.values())

    def test_hand_computed_example(self):
        r = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BII"))
        assert r.per_label["B"].f1 == 1.0
        assert r.per_label["I"].precision == pytest.approx(0.5)
        assert r.per_label["I"].recall == pytest.approx(1.0)
        assert r.per_label["I"].f1 == pytest.approx(2 / 3)
        assert r.per_label["O"].f1 == 0.0
        assert r.macro_f1 == pytest.approx(5 / 9)

    def test_macro_skips_absent_labels(self):
        r = bio_f1(LabelSeq("word", "BIIB"), LabelSeq("word", "BIBI"))
        assert set(r.per_label) == {"B", "I"}
        assert r.macro_f1 == pytest.approx((r.per_label["B"].f1 + r.per_label["I"].f1) / 2)

    def test_weighted_uses_supports(self):
        r = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BII"))
        expected = (1 * 1.0 + 1 * (2 / 3) + 1 * 0.0) / 3
        assert r.weighted_f1 == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            bio_f1(LabelSeq("word", "BI"), LabelSeq("word", "B"))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            gold = random_valid_labels(rng, n)
            pred = random_valid_labels(rng, n)
            r = bio_f1(LabelSeq("word", gold), LabelSeq("word", pred))
            per_label, macro, weighted = naive_label_scores(gold, pred)
            assert set(r.per_label) == set(per_label)
            for lab, (p, rec, f1, support) in per_label.items():
                assert r.per_label[lab].precision == p
                assert r.per_label[lab].recall == rec
                assert r.per_label[lab].f1 == f1
                assert r.per_label[lab].support == support
            assert r.macro_f1 == macro
            assert r.weighted_f1 == weighted
            spans = (LabelSeq("word", s).spans() for s in (gold, pred))
            assert (r.span_precision, r.span_recall, r.span_f1) == naive_span_scores(*spans)


class TestSpanF1:
    def test_exact_match_required(self):
        assert span_f1([(0, 5)], [(0, 4)]) == (0.0, 0.0, 0.0)

    def test_identity(self):
        spans = [(0, 2), (2, 4), (7, 9)]
        assert span_f1(spans, spans) == (1.0, 1.0, 1.0)

    def test_partial(self):
        p, r, f = span_f1([(0, 2), (2, 4)], [(0, 2)])
        assert (p, r) == (1.0, 0.5)
        assert f == pytest.approx(2 / 3)

    def test_empty_convention(self):
        assert span_f1([], []) == (1.0, 1.0, 1.0)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            gold = LabelSeq("word", random_valid_labels(rng, n)).spans()
            pred = LabelSeq("word", random_valid_labels(rng, n)).spans()
            assert span_f1(gold, pred) == naive_span_scores(gold, pred)


class TestEvaluateDocument:
    def test_perfect_prediction(self):
        r = evaluate_documents(one_document("BIOBI", "BIOBI"))
        assert r.macro_f1 == 1.0 and r.span_f1 == 1.0

    def test_force_last_o_contribution_zero(self):
        r = evaluate_documents(one_document("BIOO", "BIBI"))
        assert r.per_label["O"].f1 == 0.0

    def test_all_o_prediction_zero_span_recall(self):
        r = evaluate_documents(one_document("BIBI", "OOOO"))
        assert r.span_recall == 0.0

    def test_char_granularity(self):
        words = ["Hi", "yo", "**"]
        r = evaluate_documents(one_document("BIO", "BIO", words), granularity="char")
        assert r.granularity == "char"
        assert r.macro_f1 == 1.0
        # chars: Hi -> B I, in-span sep -> I, yo -> I I, edge sep -> O, ** -> O O
        assert r.per_label["B"].support == 1
        assert r.per_label["I"].support == 4
        assert r.per_label["O"].support == 3

    def test_char_needs_words(self):
        with pytest.raises(EvalError):
            evaluate_documents(one_document("B", "B"), granularity="char")

    def test_alignment_mismatch(self):
        with pytest.raises(EvalError):
            evaluate_documents(one_document("BI", "B"))


class TestLabelCounts:
    @given(st.lists(st.text("BIO", max_size=30), max_size=3), st.data())
    def test_bincount_matches_loop(self, golds, data):
        ev = Evaluator()
        expected = tuple({lab: 0 for lab in "BIO"} for _ in range(3))
        for gold in golds:
            pred = data.draw(st.text("BIO", min_size=len(gold), max_size=len(gold)))
            ev.add_labels(LabelSeq("word", gold), LabelSeq("word", pred))
            for total, counts in zip(expected, label_counts(gold, pred)):
                for lab in total:
                    total[lab] += counts[lab]
        cell = {g + p: ev.cells[3 * "BIO".index(g) + "BIO".index(p)] for g in "BIO" for p in "BIO"}
        totals = tuple(
            {lab: sum(n for gp, n in cell.items() if gp[side] == lab) for lab in "BIO"}
            for side in (0, 1)
        ) + ({lab: cell[lab + lab] for lab in "BIO"},)
        assert totals == expected
        # reports are JSON: the counts must stay Python ints
        assert all(type(v) is int for v in ev.cells)


def _pooled_spans(docs) -> tuple:
    ev = Evaluator()
    for gold, pred in docs:
        ev.add_labels(LabelSeq("word", gold), LabelSeq("word", pred))
    # each side has one span per B: the cells of gold B, and those of predicted B
    return ev.span_tp, sum(ev.cells[0:3]), sum(ev.cells[0::3])


def _label_pair(max_size: int = 12):
    """A gold label string and a predicted one of the same length, any order of B, I and O."""
    return st.text("BIO", max_size=max_size).flatmap(
        lambda gold: st.tuples(st.just(gold), st.text("BIO", min_size=len(gold), max_size=len(gold)))
    )


class TestSpanCounts:
    """`add_labels` pools the span counts of sets of (start, end) pairs, found by span ends."""

    @given(st.lists(_label_pair(), max_size=8))
    @example([("IIB", "BIB")])  # a leading I is in no span
    @example([("BOIB", "BOII"), ("OIIO", "BIIO")])  # an I after an O is in no span
    @example([("OIB", "BIB"), ("B", "B"), ("BB", "BI")])  # a final B is a span of its own
    @example([("OOO", "OOO"), ("", ""), ("O", "B")])  # all-O and empty documents
    def test_pooled_counts_match_sets(self, docs):
        expected = [sum(c) for c in zip((0, 0, 0), *(span_counts_sets(g, p) for g, p in docs))]
        assert _pooled_spans(docs) == tuple(expected)

    def test_many_documents_pooled(self):
        rng = np.random.default_rng(17)
        docs = []
        for n in rng.integers(0, 60, 300):
            gold = "".join(rng.choice(list("BIO"), n))
            pred = gold if rng.random() < 0.3 else "".join(rng.choice(list("BIO"), n))
            docs.append((gold, pred))
        expected = tuple(map(sum, zip(*(span_counts_sets(g, p) for g, p in docs))))
        assert _pooled_spans(docs) == expected
        assert all(type(v) is int for v in _pooled_spans(docs))
        assert expected[0] > 100  # the identical predictions match many spans

    @pytest.mark.parametrize(
        "gold, pred, message",
        [
            (LabelSeq("word", "BI"), LabelSeq("word", "B"), "length mismatch: gold 2 vs pred 1"),
            (LabelSeq("word", "BI"), LabelSeq("char", "BI"),
             "granularity mismatch between gold and prediction"),
        ],
    )
    def test_errors(self, gold, pred, message):
        with pytest.raises(EvalError) as info:
            Evaluator().add_labels(gold, pred)
        assert str(info.value) == message


class TestPooling:
    def test_corpus_level_pooling_is_permutation_invariant(self):
        rng = np.random.default_rng(23)
        docs = []
        for _ in range(10):
            n = int(rng.integers(1, 20))
            docs.append((random_valid_labels(rng, n), random_valid_labels(rng, n)))

        def pooled(order):
            ev = Evaluator()
            for k in order:
                g, p = docs[k]
                ev.add_labels(LabelSeq("word", g), LabelSeq("word", p))
            return ev.report()

        a = pooled(range(10))
        b = pooled(reversed(range(10)))
        assert a == b

    def test_pooling_differs_from_averaging(self):
        ev = Evaluator()
        ev.add_labels(LabelSeq("word", "B"), LabelSeq("word", "B"))
        ev.add_labels(LabelSeq("word", "BIII"), LabelSeq("word", "BBBB"))
        r = ev.report()
        assert r.per_label["B"].support == 2
        assert r.per_label["B"].predicted == 5


class TestAggregate:
    def mk(self, macro, weighted=0.9, span=0.8):
        return EvalReport(
            granularity="word",
            per_label={},
            macro_f1=macro,
            weighted_f1=weighted,
            span_precision=span,
            span_recall=span,
            span_f1=span,
        )

    def test_identical_reports_zero_std(self):
        agg = aggregate([self.mk(0.7)] * 5)
        assert agg.metrics["macro_f1"].mean == pytest.approx(0.7)
        assert agg.metrics["macro_f1"].std == 0.0
        assert agg.n_runs == 5

    def test_two_values(self):
        agg = aggregate([self.mk(0.80), self.mk(0.90)])
        assert agg.metrics["macro_f1"].mean == pytest.approx(0.85)
        assert agg.metrics["macro_f1"].std == pytest.approx(np.sqrt(0.005), abs=1e-12)

    def test_single_run_flagged(self):
        agg = aggregate([self.mk(0.5)])
        assert agg.metrics["macro_f1"].std == 0.0
        assert "single_run" in agg.flags

    def test_mixed_granularities_rejected(self):
        word = self.mk(0.5)
        char = EvalReport(
            granularity="char",
            per_label={},
            macro_f1=0.5,
            weighted_f1=0.5,
            span_precision=0.5,
            span_recall=0.5,
            span_f1=0.5,
        )
        with pytest.raises(EvalError):
            aggregate([word, char])

    def test_report_dict_round_trip(self):
        r = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BII"))
        back = EvalReport.from_dict(r.to_dict())
        assert back == r

    def test_aggregate_dict(self):
        d = aggregate([self.mk(0.8), self.mk(0.9)]).to_dict()
        assert d["metrics"]["macro_f1"]["mean"] == pytest.approx(0.85)


class TestGranularityRendering:
    def test_word_passthrough(self):
        seq = LabelSeq("word", "BIO")
        assert to_granularity(seq, "word") is seq

    def test_word_labels_are_not_rendered_as_chars(self):
        # char scoring counts word labels; to_granularity rendered them as chars before
        with pytest.raises(EvalError) as info:
            to_granularity(LabelSeq("word", "BIO"), "char")
        assert str(info.value) == "cannot convert word labels to char"

    @pytest.mark.parametrize("grans", [("word", "char"), ("char", "word")])
    def test_mixed_granularities_at_char_level(self, grans):
        # the word side used to be rendered as chars and scored against the char side
        gold, pred = (LabelSeq(g, "BI") for g in grans)
        with pytest.raises(EvalError) as info:
            evaluate_documents([(gold, pred, ["a", ""])], "char")
        assert str(info.value) == "granularity mismatch between gold and prediction"

    def test_char_round_trip_consistency(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            labels = LabelSeq("word", random_valid_labels(rng, n))
            words = ["w" * int(rng.integers(1, 5)) for _ in range(n)]
            report = evaluate_documents([(labels, labels, words)], "char")
            supports = {lab: s.support for lab, s in report.per_label.items()}
            assert sum(supports.values()) == sum(len(w) for w in words) + n - 1
            assert supports.get("B", 0) == labels.labels.count("B")


def char_outcome(score, docs, granularity="char"):
    """`score(docs, granularity)` as a dict, or the message of the EvalError it raises."""
    try:
        return score(docs, granularity).to_dict()
    except EvalError as exc:
        return f"EvalError: {exc}"


def one_sided_empty_b(gold: LabelSeq, pred: LabelSeq, words) -> list:
    """The indices of the empty words that are B on one side only."""
    starts = [(g == "B") != (p == "B") for g, p in zip(gold.labels, pred.labels)]
    return [i for i, w in enumerate(words) if not w and starts[i]]


def counted_char_outcome(docs):
    """Rendering's char outcome, but the first document that it would score with an empty
    word that is B on one side only raises instead."""
    for doc in docs:
        rendered = char_outcome(evaluate_documents_rendered, [doc])
        if isinstance(rendered, str):
            return rendered
        one_sided = one_sided_empty_b(*doc)
        if one_sided:
            return f"EvalError: empty word {one_sided[0]} is B on one side only"
    return char_outcome(evaluate_documents_rendered, docs)


@st.composite
def documents(draw, min_length=1):
    """(gold, pred, words) with any B/I/O labels and words of 0 (if allowed) to 5 chars."""
    n = draw(st.integers(0, 8))
    gold, pred = (draw(st.text("BIO", min_size=n, max_size=n)) for _ in range(2))
    lengths = draw(st.lists(st.integers(min_length, 5), min_size=n, max_size=n))
    return LabelSeq("word", gold), LabelSeq("word", pred), ["w" * k for k in lengths]


def docs_of(*triples):
    return [(LabelSeq("word", g), LabelSeq("word", p), w) for g, p, w in triples]


class TestCharCountsMatchRendering:
    """Scoring counts what rendering each document at its granularity would hold."""

    @given(st.lists(documents(), max_size=6))
    @example(docs_of(("B", "I", ["a"])))  # 1-token documents
    @example(docs_of(("IOIB", "BIOI", ["ab", "c", "de", "f"]), ("IB", "OB", ["x", "yz"])))
    @example(docs_of(("BI", "BI", ["a", "b"]), ("II", "BI", ["c", "d"])))  # I opens the next document
    @example(docs_of(("", "", [])))
    def test_same_report(self, docs):
        for granularity in ("word", "char"):
            ours = char_outcome(evaluate_documents, docs, granularity)
            assert isinstance(ours, dict)
            assert ours == char_outcome(evaluate_documents_rendered, docs, granularity)

    @given(st.lists(documents(min_length=0), min_size=1, max_size=6))
    @example(docs_of(("B", "O", [""])))  # an empty B renders one char on one side only
    @example(docs_of(("BI", "BI", ["ab", "c"]), ("OB", "OO", ["a", ""])))
    @example(docs_of(("B", "B", [""]), ("BI", "BO", ["a", "bc"])))  # an empty B on both sides
    @example(docs_of(("BIO", "OIB", ["", "ab", ""])))  # one-sided empty Bs, equal totals
    @example(docs_of(("BIB", "BIO", ["a", "b", ""])))  # one-sided empty B, unequal totals
    @example(docs_of(("BIOI", "BIOO", ["ab", "c", "d", ""])))  # an empty last word
    @example(docs_of(("OB", "OB", ["a", ""]), ("I", "O", [""])))  # empty last words
    def test_empty_words_keep_rendering_and_its_errors(self, docs):
        """Rendering's report or error, but an empty word that is B on one side only raises."""
        assert char_outcome(evaluate_documents, docs) == counted_char_outcome(docs)
        assert char_outcome(evaluate_documents, docs, "word") == char_outcome(
            evaluate_documents_rendered, docs, "word"
        )

    def test_one_sided_empty_b_with_equal_totals_is_refused(self):
        # rendering scored "BIIIO" against "OIIOB", one char apart: exit 0 and a wrong score
        docs = docs_of(("BIO", "OIB", ["", "ab", ""]))
        assert isinstance(char_outcome(evaluate_documents_rendered, docs), dict)
        with pytest.raises(EvalError) as info:
            evaluate_documents(docs, "char")
        assert str(info.value) == "empty word 0 is B on one side only"

    @given(st.lists(st.integers(1, 3000), min_size=1, max_size=5), st.integers(0, 2**32 - 1))
    @example([4095, 1, 1], 0)
    @example([4096, 2], 1)
    @example([2047, 2049, 3000], 2)
    def test_groups_straddle_the_group_size(self, sizes, seed):
        rng = np.random.default_rng(seed)
        docs = [
            (
                LabelSeq("word", "".join(rng.choice(list("BIO"), n))),
                LabelSeq("word", "".join(rng.choice(list("BIO"), n))),
                ["w" * k for k in rng.integers(1, 6, n)],
            )
            for n in sizes
        ]
        ours = char_outcome(evaluate_documents, docs)
        assert isinstance(ours, dict) and ours == char_outcome(evaluate_documents_rendered, docs)

    @given(st.lists(documents(min_length=0), max_size=6), st.integers(1, 10))
    @example(docs_of(("BIO", "BIO", ["ab", "c", "d"]), ("OB", "OB", ["a", "b"])), 3)
    @example(docs_of(("BI", "BI", ["a", ""]), ("B", "O", [""]), ("BI", "OO", ["a", "b"])), 1)
    def test_documents_scored_one_at_a_time(self, docs, group_tokens):
        """Every granularity at once, from a generator, equals each one over the whole list.

        A small char group size puts the drawn documents on both sides of it.
        """
        whole = {g: char_outcome(evaluate_documents, docs, g) for g in GRANULARITIES}
        # only char scoring can refuse these documents
        expected = whole["char"] if isinstance(whole["char"], str) else whole
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "_CHAR_GROUP_TOKENS", group_tokens)
            try:
                reports = score_documents((doc for doc in docs), GRANULARITIES)
                streamed = {g: r.to_dict() for g, r in reports.items()}
            except EvalError as exc:
                streamed = f"EvalError: {exc}"
        assert streamed == expected

    @pytest.mark.parametrize(
        "docs, message",
        [
            (docs_of(("B", "O", [""])), "length mismatch: gold 1 vs pred 0"),
            (docs_of(("BI", "BI", ["a", "b"]), ("OO", "BO", ["", "x"])),
             "length mismatch: gold 2 vs pred 3"),
            (docs_of(("BI", "BI", ["a"])), "word count 1 does not match labels 2"),
            (docs_of(("B", "B", None)), "char-level scoring needs the document words"),
        ],
    )
    def test_errors(self, docs, message):
        for score in (evaluate_documents, evaluate_documents_rendered):
            with pytest.raises(EvalError) as info:
                score(docs, "char")
            assert str(info.value) == message
