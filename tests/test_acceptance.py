"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest terminal-summary hook prints one PASS/FAIL/SKIP line per
criterion after the run.
"""

import json
import os
import time

import numpy as np
import pytest

from sentid.augment import AugmentConfig, sample_length, _apply_transform
from sentid.corpus import Corpus, compute_stats, convert_treebank, parse_conllu_file
from sentid.decode import DecoderConfig, identify, nsu_log_score, segment_eos_only
from sentid.evaluation import bio_f1, span_f1
from sentid.labels import (
    LabelSeq,
    bio_to_boundaries,
    boundaries_to_bio,
    chars_to_coarse,
    coarse_to_chars,
)
from sentid.model import InterpConfig, ProbMatrix, interpolate
from sentid.pipeline import config_from_dict, run_pipeline

from oracles import (
    brute_force_identify,
    naive_label_scores,
    naive_span_scores,
    random_valid_labels,
    score_labeling,
)
from synth import synthetic_corpus, unit_from_words

C0 = DecoderConfig(candidate_threshold=0.0)


def mat(p_bos, p_eos):
    return ProbMatrix(np.asarray(p_bos, float), np.asarray(p_eos, float))


def test_criterion_01_dp_oracle_equivalence():
    """identify at c=0 matches brute-force enumeration on 1,000 matrices."""
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        m = mat(rng.random(n), rng.random(n))
        r = identify(m, C0)
        best, _ = brute_force_identify(m.p_bos, m.p_eos)
        assert abs(r.log_prob - best) <= 1e-9
        attained = score_labeling(r.su_spans, m.p_bos, m.p_eos)
        assert abs(attained - best) <= 1e-9
    assert time.monotonic() - start < 60.0


def test_criterion_02_threshold_soundness():
    """c=0.1 decoding equals c=0 decoding with sub-threshold entries zeroed."""
    rng = np.random.default_rng(1002)
    for _ in range(200):
        n = int(rng.integers(1, 25))
        p_bos, p_eos = rng.random(n), rng.random(n)
        thresholded = identify(mat(p_bos, p_eos), DecoderConfig(candidate_threshold=0.1))
        forced = identify(
            mat(np.where(p_bos >= 0.1, p_bos, 0.0), np.where(p_eos >= 0.1, p_eos, 0.0)), C0
        )
        assert thresholded.su_spans == forced.su_spans
        assert thresholded.labels.labels == forced.labels.labels
        assert thresholded.log_prob == forced.log_prob


def test_criterion_03_segmentation_reduction():
    """EOS set is exactly {i: p_eos >= 0.5}; force-last never emits O."""
    rng = np.random.default_rng(1003)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        p_eos = rng.random(n)
        r = segment_eos_only(mat(np.full(n, 0.5), p_eos))
        assert {e - 1 for _, e in r.su_spans} == set(np.flatnonzero(p_eos >= 0.5).tolist())
        forced = segment_eos_only(mat(np.full(n, 0.5), p_eos), force_last=True)
        assert "O" not in forced.labels.labels


def test_criterion_04_nsu_multiplicativity():
    """Outside-region scores are additive over any split point, exactly.

    Exactness holds under the documented operation ordering: the right-hand
    side continues the left part's accumulation, which is precisely how the
    DP's outside state traverses adjacent non-span regions.
    """
    rng = np.random.default_rng(1004)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        m = mat(rng.random(n), rng.random(n))
        i = int(rng.integers(0, n - 1))
        k = int(rng.integers(i + 2, n + 1)) if i + 2 <= n else n
        j = int(rng.integers(i + 1, k))
        whole = nsu_log_score(m, i, k)
        split = nsu_log_score(m, j, k, initial=nsu_log_score(m, i, j))
        assert whole == split
        independent = nsu_log_score(m, i, j) + nsu_log_score(m, j, k)
        assert abs(whole - independent) <= 1e-9


def test_criterion_05_label_algebra():
    """Round trips: word->char->word (10,000 cases), bio<->boundaries."""
    rng = np.random.default_rng(1005)
    for _ in range(10_000):
        n = int(rng.integers(1, 25))
        labs = LabelSeq("word", random_valid_labels(rng, n))
        lengths = [int(rng.integers(1, 6)) for _ in range(n)]
        seps = [int(rng.integers(0, 3)) for _ in range(n - 1)] + [0]
        chars = coarse_to_chars(labs, lengths, seps)
        spans = []
        pos = 0
        for length, sep in zip(lengths, seps):
            spans.append((pos, pos + length))
            pos += length + sep
        assert chars_to_coarse(chars, spans).labels == labs.labels
        assert boundaries_to_bio(bio_to_boundaries(labs)).labels == labs.labels
        assert chars.labels.count("B") == labs.labels.count("B")


def test_criterion_06_geometric_sampler():
    """Empirical pmf within 3 standard errors at l <= 5; p=1 is always 1."""
    rng = np.random.default_rng(1006)
    n = 100_000
    for p in (0.25, 0.5, 0.75):
        draws = np.array([sample_length(AugmentConfig(p_cc=p), rng) for _ in range(n)])
        for l in range(1, 6):
            expected = (1 - p) ** (l - 1) * p
            se = np.sqrt(expected * (1 - expected) / n)
            assert abs((draws == l).mean() - expected) <= 3 * se
    cfg = AugmentConfig(p_cc=1.0)
    assert all(sample_length(cfg, rng) == 1 for _ in range(1000))


def test_criterion_07_augmentation_rules():
    """Worked augmentation examples, including the punctuation matcher."""
    cfg = AugmentConfig()
    school = unit_from_words(["Joe", "went", "to", "school."], True)
    stripped = _apply_transform(school, "strip_punct", cfg)
    assert stripped.text == "Joe went to school"
    assert stripped.is_su is True

    after = unit_from_words(["After", "that", "he"], True)
    assert _apply_transform(after, "upper", cfg).words == ("AFTER", "THAT", "HE")

    really = unit_from_words(["Really?!)"], True)
    assert _apply_transform(really, "strip_punct", cfg).text == "Really"

    hello = unit_from_words(["Hello", "world"], True)
    assert _apply_transform(hello, "strip_punct", cfg) == hello

    # truncation relabels the fragment: drop "Joe went", keep "to school"
    from sentid.augment import concat_units, truncate_edges

    corpus = Corpus([unit_from_words(["Joe", "went", "to", "school"], True),
                     unit_from_words(["After", "that", "he"], True)])
    example = concat_units(corpus, 0, 2, cfg)

    class FixedRng:
        def __init__(self):
            self.ints = [2]

        def random(self):
            return 0.0 if self.ints else 1.0

        def integers(self, lo, hi):
            return self.ints.pop(0)

    out = truncate_edges(example, AugmentConfig(p_tr=0.5), FixedRng())
    assert out.words == ("to", "school", "After", "that", "he")
    assert out.provenance[0].is_su is False
    assert out.gold.bos_indices == [2] and out.gold.eos_indices == [4]


def test_criterion_08_interpolation_endpoints():
    """Endpoints reproduce each model family exactly; affine in lambda."""
    rng = np.random.default_rng(1008)
    m = ProbMatrix(rng.random(50), rng.random(50), rng.random(50), rng.random(50))
    at0 = interpolate(m, InterpConfig(lam=0.0))
    assert np.array_equal(at0.p_bos, m.p_bos) and np.array_equal(at0.p_eos, m.p_eos)
    at1 = interpolate(m, InterpConfig(lam=1.0))
    assert np.array_equal(at1.p_bos, m.p_bos_uni) and np.array_equal(at1.p_eos, m.p_eos_uni)
    for lam in rng.random(20):
        out = interpolate(m, InterpConfig(lam=float(lam)))
        mix_bos = lam * at1.p_bos + (1 - lam) * at0.p_bos
        mix_eos = lam * at1.p_eos + (1 - lam) * at0.p_eos
        assert np.abs(out.p_bos - mix_bos).max() <= 1e-12
        assert np.abs(out.p_eos - mix_eos).max() <= 1e-12


def test_criterion_09_metric_oracle():
    """bio_f1/span_f1 equal a naive recount on 1,000 random pairs, exactly."""
    rng = np.random.default_rng(1009)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        gold, pred = random_valid_labels(rng, n), random_valid_labels(rng, n)
        r = bio_f1(LabelSeq("word", gold), LabelSeq("word", pred))
        per_label, macro, weighted = naive_label_scores(gold, pred)
        for lab, (p, rec, f1, _) in per_label.items():
            assert (r.per_label[lab].precision, r.per_label[lab].recall, r.per_label[lab].f1) == (
                p,
                rec,
                f1,
            )
        assert r.macro_f1 == macro and r.weighted_f1 == weighted
        gold_spans = LabelSeq("word", gold).spans()
        pred_spans = LabelSeq("word", pred).spans()
        assert span_f1(gold_spans, pred_spans) == naive_span_scores(gold_spans, pred_spans)
    hand = bio_f1(LabelSeq("word", "BIO"), LabelSeq("word", "BII"))
    assert hand.per_label["I"].f1 == pytest.approx(2 / 3, abs=1e-15)


EWT_FILES = ("en_ewt-ud-train.conllu", "en_ewt-ud-dev.conllu", "en_ewt-ud-test.conllu")


def _find_ewt():
    candidates = [os.environ.get("SENTID_EWT_DIR", ""), os.path.join("data", "UD_English-EWT")]
    for root in candidates:
        if root and all(os.path.exists(os.path.join(root, f)) for f in EWT_FILES):
            return root
    return None


def test_criterion_10_ewt_reproduction():
    """UD English-EWT conversion reproduces the reference statistics within 1%."""
    root = _find_ewt()
    if root is None:
        pytest.skip("UD English-EWT treebank not available")
    train = convert_treebank(parse_conllu_file(os.path.join(root, EWT_FILES[0])))
    test = convert_treebank(parse_conllu_file(os.path.join(root, EWT_FILES[2])))
    train_stats = compute_stats(train)
    test_stats = compute_stats(test)
    for got, want in (
        (train_stats.su_count, 10_356),
        (train_stats.nsu_count, 2_187),
        (train_stats.word_o, 6_939),
        (test_stats.char_o, 13_232),
    ):
        assert abs(got - want) <= 0.01 * want


def _pipeline_reports(tmp_path, method, train_path, eval_path, seeds):
    out_dir = tmp_path / "runs"
    cfg = config_from_dict(
        {
            "seeds": list(seeds),
            "method": method,
            "granularities": ["word"],
            "paths": {
                "train_corpus": str(train_path),
                "eval_corpus": str(eval_path),
                "output_dir": str(out_dir),
            },
            "model": {"window_radius": 3, "hash_dim": 2**14, "epochs": 3},
            "eval": {"p_cc_values": [0.0]},
        }
    )
    run_pipeline(cfg)
    reports = {}
    for seed in seeds:
        path = out_dir / f"report_seed{seed}_pcc0_0_word_{method}.json"
        reports[seed] = json.loads(path.read_text())
    return reports


def test_criterion_11_end_to_end_synthetic(tmp_path):
    """Identification beats both segmentation baselines on long noisy inputs.

    On maximal-length concatenations of templated sentences and noise, the
    combined begin/end method must achieve strictly higher O-label F1 than
    the forced-last baseline (structurally 0) and strictly higher span F1
    than the plain EOS baseline, for every seed.
    """
    start = time.monotonic()
    seeds = (0, 1, 2, 3, 4)
    train_path = tmp_path / "train.jsonl"
    eval_path = tmp_path / "eval.jsonl"
    synthetic_corpus(240, seed=77).save(train_path)
    synthetic_corpus(120, seed=88).save(eval_path)

    by_method = {
        method: _pipeline_reports(tmp_path, method, train_path, eval_path, seeds)
        for method in ("bos_eos", "eos", "eos_force")
    }
    for seed in seeds:
        ident = by_method["bos_eos"][seed]
        eos = by_method["eos"][seed]
        force = by_method["eos_force"][seed]
        assert force["labels"]["O"]["f1"] == 0.0  # structural: no O predicted
        assert ident["labels"]["O"]["f1"] > force["labels"]["O"]["f1"]
        assert ident["span_f1"] > eos["span_f1"]
    assert time.monotonic() - start < 300.0
