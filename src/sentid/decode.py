"""Span decoding: EOS-only segmentation and the BOS&EOS identification DP.

The identification objective scores a labeling by summing, over every token,
log p_bos or log(1-p_bos) depending on whether the token opens a span, plus
the analogous end-flag term.  Begin/end flags must alternate, starting with
a begin and ending with an end; a token may open and close a span at once
(one-token span).  The DP keeps two accumulators (inside / outside an open
span), applies a begin-flag update then an end-flag update per token, and
backtracks the argmax straight into spans.

Probabilities enter the objective as log(max(p, eps)) and
log(max(1 - p, eps)).  A flag whose probability falls below the candidate
threshold is forced to probability zero instead: its open/close term is
-inf, so no span uses it, and its stay term is exactly 0.0.  `_dp_inputs`
folds this in once, and the DP visits only positions with a flag left.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .fileio import atomic_open, read_json_lines
from .labels import LabelSeq, spans_to_labels


@dataclass(frozen=True)
class DecoderConfig:
    candidate_threshold: float = 0.1
    prob_floor: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.candidate_threshold < 1.0:
            raise ValueError(f"candidate_threshold {self.candidate_threshold} not in [0, 1)")
        if not 0.0 < self.prob_floor < 0.5:
            raise ValueError(f"prob_floor {self.prob_floor} not in (0, 0.5)")


@dataclass(frozen=True)
class SpanResult:
    su_spans: tuple
    log_prob: float
    labels: LabelSeq

    @property
    def n(self) -> int:
        return len(self.labels)

    def validate(self) -> "SpanResult":
        rendered = spans_to_labels(self.n, self.su_spans)
        if rendered.labels != self.labels.labels:
            raise ValueError("labels do not render su_spans")
        return self


def clamped_logs(p: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(log p, log(1-p)) with each factor floored at eps before the log."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(np.maximum(p, eps)), np.log(np.maximum(1.0 - p, eps))


def segment_eos_only(
    m, force_last: bool = False, cfg: DecoderConfig = DecoderConfig()
) -> SpanResult:
    """Closed-form segmentation: end flags exactly where p_eos >= 0.5.

    Segments are the maximal runs ending at each end flag.  Without
    force_last, tokens after the last end flag form no span (labeled O);
    with it, the final token is an end flag and every token lies in a span.
    log_prob is the segmentation objective: sum of log p_eos over chosen
    flags plus log(1-p_eos) elsewhere.
    """
    p_eos = np.asarray(m.p_eos, dtype=np.float64)
    n = p_eos.shape[0]
    eos = p_eos >= 0.5
    if force_last and n:
        eos[n - 1] = True
    le1, le0 = clamped_logs(p_eos, cfg.prob_floor)
    log_prob = float(np.where(eos, le1, le0).sum())
    ends = (np.flatnonzero(eos) + 1).tolist()
    spans = tuple(zip([0, *ends], ends))  # each span starts where the previous one ends
    return SpanResult(su_spans=spans, log_prob=log_prob, labels=spans_to_labels(n, spans))


def _dp_inputs(m, cfg: DecoderConfig):
    """(lb1, lb0, le1, le0), each flag below the candidate threshold forced to probability 0."""
    terms = []
    for p in (m.p_bos, m.p_eos):
        p = np.asarray(p, dtype=np.float64)
        one, zero = clamped_logs(p, cfg.prob_floor)
        pruned = p < cfg.candidate_threshold
        one[pruned] = -np.inf
        zero[pruned] = 0.0
        terms += (one, zero)
    return terms


def identify(m, cfg: DecoderConfig = DecoderConfig()) -> SpanResult:
    """Argmax span extraction over begin/end flag assignments."""
    logp, spans = _kernels.dp_decode(*_dp_inputs(m, cfg))
    return SpanResult(
        su_spans=spans, log_prob=float(logp), labels=spans_to_labels(m.n, spans)
    )


def nsu_log_score(
    m, start: int, end: int, eps: float = DecoderConfig.prob_floor, initial: float = 0.0
) -> float:
    """Log-score of tokens [start, end) carrying no begin/end flag.

    Accumulates (acc + log(1-p_bos[t])) + log(1-p_eos[t]) token by token from
    `initial` -- the identical operation order the DP's outside state uses.
    Splitting a region anywhere and feeding the first part's score back in as
    `initial` therefore reproduces the unsplit score exactly, which is why
    the DP never needs boundaries between adjacent non-span regions.
    """
    _, lb0 = clamped_logs(np.asarray(m.p_bos[start:end]), eps)
    _, le0 = clamped_logs(np.asarray(m.p_eos[start:end]), eps)
    acc = initial
    for t in range(end - start):
        acc = (acc + lb0[t]) + le0[t]
    return float(acc)


METHODS = ("eos", "eos_force", "bos_eos")


def decode_document(m, method: str, cfg: DecoderConfig = DecoderConfig()) -> SpanResult:
    if method in ("eos", "eos_force"):
        return segment_eos_only(m, method == "eos_force", cfg)
    if method == "bos_eos":
        return identify(m, cfg)
    raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")


def span_record(r: SpanResult) -> str:
    """One span-file line, without its newline."""
    rec = {
        "spans": [list(sp) for sp in r.su_spans],
        "labels": r.labels.labels,
        "log_prob": r.log_prob,
    }
    return json.dumps(rec)


def write_span_file(path, results) -> None:
    with atomic_open(path) as f:
        for r in results:
            f.write(span_record(r) + "\n")


def _span_result_of_record(rec) -> SpanResult:
    spans = tuple(map(tuple, rec["spans"]))
    # exact types: a bool is not a span end, nor a string a log_prob
    if any(type(x) is not int for sp in spans for x in sp):
        raise ValueError("span ends must be integers")
    log_prob = rec["log_prob"]
    # isfinite() of a huge integer raises OverflowError, which the reader reports
    if type(log_prob) not in (int, float) or not math.isfinite(log_prob):
        raise ValueError(f"log_prob must be a finite number, got {log_prob!r}")
    return SpanResult(
        su_spans=spans, log_prob=float(log_prob), labels=LabelSeq("word", rec["labels"])
    ).validate()


def read_span_file(path) -> list[SpanResult]:
    return read_json_lines(path, "span", _span_result_of_record)
