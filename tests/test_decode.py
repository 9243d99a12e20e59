"""Decoder tests: frozen examples, oracle equivalence, structural invariants."""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sentid.decode import (
    METHODS,
    DecoderConfig,
    decode_document,
    identify,
    nsu_log_score,
    read_span_file,
    segment_eos_only,
    span_record,
    write_span_file,
)
from sentid.labels import LabelSeq, bio_to_boundaries
from sentid.model import ProbMatrix

from oracles import brute_force_identify, read_span_file_lines, score_labeling
from synth import json_lines_text

C0 = DecoderConfig(candidate_threshold=0.0)

# an empty document goes through the same code as any other
EMPTY_RECORD = '{"spans": [], "labels": "", "log_prob": 0.0}'


def mat(p_bos, p_eos):
    return ProbMatrix(np.asarray(p_bos, float), np.asarray(p_eos, float))


def random_matrix(rng, n):
    return mat(rng.random(n), rng.random(n))


class TestSegmentEosOnly:
    def test_trailing_segment_excluded(self):
        r = segment_eos_only(mat([0.5] * 3, [0.1, 0.9, 0.2]))
        assert r.su_spans == ((0, 2),)
        assert r.labels.labels == "BIO"

    def test_force_last_closes_second_span(self):
        r = segment_eos_only(mat([0.5] * 3, [0.1, 0.9, 0.2]), force_last=True)
        assert r.su_spans == ((0, 2), (2, 3))
        assert r.labels.labels == "BIB"

    def test_no_eos_whole_input_outside(self):
        r = segment_eos_only(mat([0.5] * 4, [0.2, 0.3, 0.1, 0.4]))
        assert r.su_spans == ()
        assert r.labels.labels == "OOOO"

    def test_force_last_single_span_when_no_eos(self):
        r = segment_eos_only(mat([0.5] * 4, [0.2] * 4), force_last=True)
        assert r.su_spans == ((0, 4),)

    def test_closed_form_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = rng.random(rng.integers(1, 30))
            r = segment_eos_only(mat(np.full_like(p, 0.5), p))
            eos_positions = {e - 1 for _, e in r.su_spans}
            assert eos_positions == set(np.flatnonzero(p >= 0.5).tolist())

    def test_force_last_never_emits_o(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = rng.random(rng.integers(1, 30))
            r = segment_eos_only(mat(np.full_like(p, 0.5), p), force_last=True)
            assert "O" not in r.labels.labels

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_input(self, method):
        assert span_record(decode_document(mat([], []), method)) == EMPTY_RECORD

    def test_log_prob_is_objective_value(self):
        p = np.array([0.1, 0.9, 0.2])
        r = segment_eos_only(mat([0.5] * 3, p))
        expected = np.log(0.9) + np.log(0.9) + np.log(0.8)
        assert r.log_prob == pytest.approx(expected, abs=1e-12)


class TestIdentify:
    def test_single_word_su(self):
        r = identify(mat([0.99], [0.99]), C0)
        assert r.su_spans == ((0, 1),)
        assert r.labels.labels == "B"

    def test_single_word_nsu(self):
        r = identify(mat([0.01], [0.01]), C0)
        assert r.su_spans == ()
        assert r.labels.labels == "O"

    def test_two_adjacent_spans(self):
        r = identify(mat([0.9, 0.1, 0.8, 0.1], [0.1, 0.9, 0.1, 0.9]), DecoderConfig())
        assert r.su_spans == ((0, 2), (2, 4))

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_input(self, method):
        assert span_record(decode_document(mat([], []), method, C0)) == EMPTY_RECORD

    def test_oracle_equivalence_small(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = random_matrix(rng, n)
            r = identify(m, C0)
            best, _ = brute_force_identify(m.p_bos, m.p_eos)
            assert r.log_prob == pytest.approx(best, abs=1e-9)
            attained = score_labeling(r.su_spans, m.p_bos, m.p_eos)
            assert attained == pytest.approx(best, abs=1e-9)

    def test_threshold_equals_forcing(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            m = random_matrix(rng, n)
            thresholded = identify(m, DecoderConfig(candidate_threshold=0.1))
            forced = identify(
                mat(
                    np.where(m.p_bos >= 0.1, m.p_bos, 0.0),
                    np.where(m.p_eos >= 0.1, m.p_eos, 0.0),
                ),
                C0,
            )
            assert thresholded.su_spans == forced.su_spans
            assert thresholded.labels.labels == forced.labels.labels
            assert thresholded.log_prob == forced.log_prob

    def test_alternation_always_valid(self):
        rng = np.random.default_rng(103)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            r = identify(random_matrix(rng, n), DecoderConfig(candidate_threshold=0.1))
            bio_to_boundaries(r.labels)  # raises on violation
            r.validate()

    def test_segmentation_reduction(self):
        # pinning begin flags at 0 and right after each end flag collapses
        # identification onto segmentation; the final token must itself be
        # an end-flag candidate, else the free optimum may close the last
        # span at a better interior position than the forced one
        rng = np.random.default_rng(104)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            p_eos = rng.uniform(0.05, 0.95, n)
            p_eos[n - 1] = 1.0
            seg = segment_eos_only(mat(np.full(n, 0.5), p_eos), force_last=True)
            p_bos = np.zeros(n)
            for b, _ in seg.su_spans:
                p_bos[b] = 1.0
            ident = identify(mat(p_bos, p_eos), C0)
            assert ident.su_spans == seg.su_spans
            best, _ = brute_force_identify(p_bos, p_eos)
            assert ident.log_prob == pytest.approx(best, abs=1e-9)

    def test_segmentation_reduction_counterexample(self):
        # with the last end flag forced onto a weak candidate, the free
        # optimum closes the trailing span early: the coincidence claim
        # needs the final token to be a genuine end-flag candidate
        p_eos = np.array([0.1, 0.9, 0.4, 0.1, 0.1])
        p_bos = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        seg = segment_eos_only(mat(np.full(5, 0.5), p_eos), force_last=True)
        assert seg.su_spans == ((0, 2), (2, 5))
        ident = identify(mat(p_bos, p_eos), C0)
        assert ident.su_spans == ((0, 2), (2, 3))
        best, _ = brute_force_identify(p_bos, p_eos)
        assert ident.log_prob == pytest.approx(best, abs=1e-9)


class TestNsuScore:
    def test_additive_under_continuation(self):
        rng = np.random.default_rng(106)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = random_matrix(rng, n)
            j = int(rng.integers(1, n))
            whole = nsu_log_score(m, 0, n)
            split = nsu_log_score(m, j, n, initial=nsu_log_score(m, 0, j))
            assert whole == split  # identical operation sequence: exact

    def test_independent_sums_close(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            m = random_matrix(rng, n)
            j = int(rng.integers(1, n))
            assert nsu_log_score(m, 0, n) == pytest.approx(
                nsu_log_score(m, 0, j) + nsu_log_score(m, j, n), abs=1e-9
            )


class TestMethodsAndIO:
    def test_decode_document_dispatch(self):
        m = mat([0.9, 0.1], [0.1, 0.9])
        assert decode_document(m, "bos_eos").su_spans == ((0, 2),)
        assert decode_document(m, "eos").su_spans == ((0, 2),)
        assert decode_document(m, "eos_force").su_spans == ((0, 2),)
        with pytest.raises(ValueError):
            decode_document(m, "viterbi")

    def test_span_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(109)
        results = [identify(random_matrix(rng, 10), DecoderConfig()) for _ in range(5)]
        path = tmp_path / "spans.jsonl"
        write_span_file(path, results)
        loaded = read_span_file(path)
        for a, b in zip(results, loaded):
            assert a.su_spans == b.su_spans
            assert a.labels.labels == b.labels.labels
            assert a.log_prob == b.log_prob

    def test_huge_integer_log_prob_rejected(self, tmp_path):
        # float() of a 400-digit integer overflows instead of failing to parse
        path = tmp_path / "spans.jsonl"
        path.write_text('{"spans": [], "labels": "O", "log_prob": ' + "9" * 400 + "}\n")
        with pytest.raises(ValueError, match="line 1"):
            read_span_file(path)

    @pytest.mark.parametrize(
        "log_prob, shown",
        [('"-1.5"', "'-1.5'"), ('"inf"', "'inf'"), ("true", "True"), ("null", "None"),
         ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("[-1.5]", "[-1.5]")],
    )
    def test_log_prob_must_be_a_finite_number(self, tmp_path, log_prob, shown):
        # float() used to accept the string, the bool and the non-finite values
        path = tmp_path / "spans.jsonl"
        path.write_text('{"spans": [], "labels": "O", "log_prob": -1.5}\n'
                        '{"spans": [], "labels": "O", "log_prob": ' + log_prob + "}\n")
        message = f"bad span record on line 2: log_prob must be a finite number, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_span_file(path)

    @pytest.mark.parametrize("log_prob", ["0", "-7", "-1.5", "-1e-300", "0.0"])
    def test_finite_int_or_float_log_prob_loads(self, tmp_path, log_prob):
        path = tmp_path / "spans.jsonl"
        path.write_text('{"spans": [], "labels": "O", "log_prob": ' + log_prob + "}\n")
        [r] = read_span_file(path)
        assert type(r.log_prob) is float and r.log_prob == float(log_prob)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(candidate_threshold=1.0)
        with pytest.raises(ValueError):
            DecoderConfig(prob_floor=0.0)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text("BIO", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_LABELS = st.text("BIO", max_size=6)
_SPAN_RECORD = st.fixed_dictionaries(
    {
        "spans": st.one_of(
            st.lists(st.lists(st.integers(-1, 7), min_size=2, max_size=2), max_size=3), _JSON
        ),
        "labels": st.one_of(_LABELS, _LABELS.map(list), _JSON),
        "log_prob": st.one_of(
            st.floats(), st.integers(), st.just(10**400), st.text("0.5e-", max_size=4), _JSON
        ),
    }
)


def _valid_record(labels):
    spans = [list(sp) for sp in LabelSeq("word", labels).spans()]
    return {"spans": spans, "labels": labels, "log_prob": -1.5}


_SPAN_TEXT = json_lines_text(
    _LABELS.filter(lambda s: not s.startswith("I")).map(_valid_record).map(json.dumps),
    st.one_of(
        _SPAN_RECORD.map(json.dumps),
        _SPAN_RECORD.flatmap(
            lambda rec: st.sampled_from(sorted(rec)).map(
                lambda k: json.dumps({f: v for f, v in rec.items() if f != k})
            )
        ),
        _JSON.map(json.dumps),
    ),
)


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


class TestReadSpanFileFuzz:
    @settings(max_examples=300)
    @given(_SPAN_TEXT)
    @example('{"spans": [], "labels": "O", "log_prob": ' + "9" * 400 + "}\n")
    @example('{"spans": [], "labels": "O", "log_prob": ' + "9" * 400 + "}\r")
    @example('{"spans": [], "labels": "O", "log_prob": NaN}')
    @example("[" * 100_000 + "\n")
    def test_reads_or_raises_value_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(text)
            # the results or the message of one json.loads per line
            outcome = _outcome(read_span_file, path)
            assert outcome == _outcome(read_span_file_lines, path)
            if not isinstance(outcome, list):
                return
            for r in outcome:
                assert r.validate() is r
                assert type(r.log_prob) is float and np.isfinite(r.log_prob)
