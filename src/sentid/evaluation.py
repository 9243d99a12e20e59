"""Scoring: per-label F1, macro/weighted averages, exact span F1, seed stats.

Confusion counts and span matches are pooled over all documents of a run
(corpus-level micro aggregation), then turned into scores once.  One counter,
`Evaluator.add_labels`, counts both granularities: word scoring is char
scoring with every label one char wide and no separator chars.
`score_documents` gathers consecutive documents into groups of about
`_GROUP_TOKENS` tokens and hands each group to one Evaluator per
granularity, which keeps only the counts.  A predicted span is correct only
when both endpoints equal a gold span's.  Multi-seed results are summarized
as mean and sample standard deviation.
"""

import math
from dataclasses import asdict, dataclass, field
from operator import add

import numpy as np

from .labels import GRANULARITIES, LabelSeq

LABELS = ("B", "I", "O")
# the scalar scores of a report, each aggregated across runs
SCORE_NAMES = ("macro_f1", "weighted_f1", "span_precision", "span_recall", "span_f1")
# label byte -> index in LABELS, as a bytes.translate table
_TO_INDEX = bytes.maketrans("".join(LABELS).encode("ascii"), bytes(range(len(LABELS))))
_B, _I, _O = (LABELS.index(lab) for lab in "BIO")
# the (gold, pred) label indices of each confusion cell k * gold + pred (k labels)
_PAIRS = [divmod(c, len(LABELS)) for c in range(len(LABELS) ** 2)]
# the cells with the same label on both sides, and those where neither side
# holds an I, so a span on either side ends there
_BOTH_B, _BOTH_I = (len(LABELS) * x + x for x in (_B, _I))
_BOTH_STOP = np.array([_I not in pair for pair in _PAIRS])
# by a token's cell: the cell of its tail chars, I after a B or an I, else O
_TAIL_CELL = np.array([len(LABELS) * max(g, _I) + max(p, _I) for g, p in _PAIRS], np.uint8)
# by the cells c and d of two neighbouring tokens, at k * k * c + d: the cell of the
# separator chars between them, I on each side where c is B or I and d is I, else O
_SEP_CELL = np.array(
    [
        len(LABELS) * (_I if g != _O and h == _I else _O) + (_I if p != _O and q == _I else _O)
        for g, p in _PAIRS
        for h, q in _PAIRS
    ],
    np.uint8,
)
# scoring counts consecutive documents together until they hold this many tokens,
# so each numpy call serves many short documents and memory stays bounded
_GROUP_TOKENS = 4096
# the width of the pad token after each document
_PAD_WIDTH = np.zeros(1, np.int32)


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class LabelScore:
    """Precision, recall, F1, gold support and predicted count of one label."""

    precision: float
    recall: float
    f1: float
    support: int
    predicted: int


@dataclass(frozen=True)
class EvalReport:
    """The pooled scores of one run at one granularity."""

    granularity: str
    per_label: dict
    macro_f1: float
    weighted_f1: float
    span_precision: float
    span_recall: float
    span_f1: float
    flags: tuple = ()

    def to_dict(self) -> dict:
        return {
            "granularity": self.granularity,
            "labels": {lab: asdict(s) for lab, s in self.per_label.items()},
            "macro_f1": self.macro_f1,
            "weighted_f1": self.weighted_f1,
            "span_precision": self.span_precision,
            "span_recall": self.span_recall,
            "span_f1": self.span_f1,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, d) -> "EvalReport":
        """Inverse of to_dict; a missing key or a mistyped or out-of-range value raises EvalError."""
        labels = _typed(d, "labels", (dict,))
        if not labels.keys() <= set(LABELS):
            raise EvalError(f"labels: expected labels of {'/'.join(LABELS)}, got {sorted(labels)}")
        per_label = {
            lab: LabelScore(
                *(_score(s, k) for k in ("precision", "recall", "f1")),
                *(_count(s, k) for k in ("support", "predicted")),
            )
            for lab, s in labels.items()
        }
        flags = _typed(d, "flags", (list,))
        if any(type(f) is not str for f in flags):
            raise EvalError(f"flags: expected a list of str, got {flags!r}")
        granularity = _typed(d, "granularity", (str,))
        if granularity not in GRANULARITIES:
            raise EvalError(f"granularity: expected one of {GRANULARITIES}, got {granularity!r}")
        return cls(
            granularity=granularity,
            per_label=per_label,
            **{name: _score(d, name) for name in SCORE_NAMES},
            flags=tuple(flags),
        )


def _typed(d, key: str, types: tuple):
    """d[key], whose exact type must be one of `types`."""
    if not isinstance(d, dict) or key not in d:
        raise EvalError(f"expected an object with key {key!r}")
    if type(d[key]) not in types:
        raise EvalError(f"{key}: expected {types[-1].__name__}, got {d[key]!r}")
    return d[key]


def _score(d, key: str):
    """d[key], a number in [0, 1]."""
    v = _typed(d, key, (int, float))  # exact types: a bool is no number here
    # written so that NaN fails too: every comparison with NaN is false
    if not 0.0 <= v <= 1.0:
        raise EvalError(f"{key}: expected a score in [0, 1], got {v!r}")
    return v


def _count(d, key: str) -> int:
    """d[key], an integer >= 0."""
    v = _typed(d, key, (int,))
    if v < 0:
        raise EvalError(f"{key}: expected a count >= 0, got {v!r}")
    return v


def _prf(tp: int, pred: int, gold: int) -> tuple[float, float, float]:
    p = tp / pred if pred else 0.0
    r = tp / gold if gold else 0.0
    f = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f


@dataclass
class Evaluator:
    """Pools confusion and span counts over documents, then scores once.

    `cells[k * g + p]` counts the chars of gold label g and predicted label
    p (k labels, as indices into LABELS); every label count and span total
    follows from it.  `span_tp` counts the matched spans.  `add_labels`
    counts a list of documents into both; the evaluator holds nothing else.
    """

    granularity: str = "word"
    cells: list = field(default_factory=lambda: [0] * len(LABELS) ** 2)
    span_tp: int = 0

    def add_labels(self, docs) -> None:
        """Pool the counts of a list of (gold labels, predicted labels, words) documents.

        Every document is checked before any is counted.  Labels at the
        evaluator's granularity pass through `to_granularity` and count one
        char each, with no separator chars; word labels scored at char level
        count the word lengths of `_char_widths`, with one separator char
        between words.  A token of n >= 1 chars holds one char of its own
        label, then n - 1 chars of I (of O after an O).  A token of 0 chars
        holds one char when it is B on both sides, else none.  A separator
        char after a token is I when the token is B or I and the next token
        is I, else O.  The documents are laid end to end, each followed by a
        pad token of label O, which holds no char and ends every span.  Each
        side has one span per B: a span runs from its B up to the next B or
        O.  A gold and a predicted span match when both start at one token
        and the next token at which either side holds no I holds no I on both
        sides: then both spans end there.  Word spans map one-to-one onto
        char spans, so the span counts are the tokens'.
        """
        gran = self.granularity
        # per document: labels with the pad's O, widths with the pad's 0, and
        # the separator chars between two of its tokens
        gold, pred, widths, gaps = [], [], [], []
        for g, p, words in docs:
            if g.granularity != p.granularity:
                raise EvalError("granularity mismatch between gold and prediction")
            if gran == "char" and g.granularity == "word":
                widths += (_char_widths(g, p, words), _PAD_WIDTH)
                gaps.append(1)
            else:
                g, p = to_granularity(g, gran), to_granularity(p, gran)
                if len(g) != len(p):
                    raise EvalError(f"length mismatch: gold {len(g)} vs pred {len(p)}")
                widths += (np.ones(len(g), np.int32), _PAD_WIDTH)
                gaps.append(0)
            gold.append(g.labels + "O")
            pred.append(p.labels + "O")
        k = len(LABELS)
        # per token, the confusion cell k * gold + pred of its labels, as uint8
        heads = k * _label_indices("".join(gold)) + _label_indices("".join(pred))
        width = np.concatenate(widths)
        held = width > 0
        # each token's separator chars: its document's, but none at or before a pad
        sizes = list(map(len, gold))
        in_doc = np.ones(len(heads), np.uint8)
        in_doc[np.cumsum(sizes) - 1] = 0
        sep_chars = np.repeat(np.array(gaps, np.uint8), sizes)[:-1] * in_doc[:-1] * in_doc[1:]
        seps = _SEP_CELL.take(k * k * heads[:-1] + heads[1:])
        confusion = (
            np.bincount(heads[held | (heads == _BOTH_B)], minlength=k * k)
            + np.bincount(_TAIL_CELL.take(heads), weights=width - held, minlength=k * k)
            + np.bincount(seps, weights=sep_chars, minlength=k * k)
        )
        self.cells = list(map(add, self.cells, confusion.astype(np.int64).tolist()))
        stops = heads[heads != _BOTH_I]  # where either side's span may end
        self.span_tp += int(np.count_nonzero((stops[:-1] == _BOTH_B) & _BOTH_STOP[stops[1:]]))

    def report(self) -> EvalReport:
        k, c = len(LABELS), self.cells
        # per label: (gold, predicted, both); each side has one span per B
        counts = [(sum(c[k * i : k * i + k]), sum(c[i::k]), c[k * i + i]) for i in range(k)]
        per_label = {}
        for lab, (gold, pred, tp) in zip(LABELS, counts):
            if gold == 0 and pred == 0:
                continue  # label absent everywhere: excluded from averages
            p, r, f = _prf(tp, pred, gold)
            per_label[lab] = LabelScore(p, r, f, support=gold, predicted=pred)
        flags = []
        if per_label:
            macro = sum(s.f1 for s in per_label.values()) / len(per_label)
            total_support = sum(s.support for s in per_label.values())
            weighted = (
                sum(s.f1 * s.support for s in per_label.values()) / total_support
                if total_support
                else 0.0
            )
        else:
            macro = weighted = 0.0
            flags.append("no_labels")
        span_gold, span_pred, _ = counts[_B]
        if span_gold == 0 and span_pred == 0:
            sp = sr = sf = 1.0
            flags.append("empty_span_sets")
        else:
            sp, sr, sf = _prf(self.span_tp, span_pred, span_gold)
        return EvalReport(
            granularity=self.granularity,
            per_label=per_label,
            macro_f1=macro,
            weighted_f1=weighted,
            span_precision=sp,
            span_recall=sr,
            span_f1=sf,
            flags=tuple(flags),
        )


def bio_f1(gold: LabelSeq, pred: LabelSeq) -> EvalReport:
    """Per-label precision/recall/F1 with macro and weighted averages."""
    return evaluate_documents([(gold, pred, None)], gold.granularity)


def span_f1(gold_spans, pred_spans) -> tuple[float, float, float]:
    """Exact-match span scores; (1, 1, 1) when both sets are empty."""
    gold_spans = set(tuple(s) for s in gold_spans)
    pred_spans = set(tuple(s) for s in pred_spans)
    if not gold_spans and not pred_spans:
        return 1.0, 1.0, 1.0
    return _prf(len(gold_spans & pred_spans), len(pred_spans), len(gold_spans))


def to_granularity(labels: LabelSeq, granularity: str) -> LabelSeq:
    """The labels, which must be at `granularity`; word scoring passes every document through."""
    if granularity != labels.granularity:
        raise EvalError(f"cannot convert {labels.granularity} labels to {granularity}")
    return labels


def score_documents(docs, granularities) -> dict:
    """{granularity: pooled report} of (gold labels, predicted labels, words) documents.

    Reads `docs` once and gathers consecutive documents into groups of
    about `_GROUP_TOKENS` tokens; each group is counted by one Evaluator
    per granularity, then dropped, so an iterator of documents is scored
    without holding them all.
    """
    evaluators = [Evaluator(granularity=g) for g in granularities]
    group, tokens = [], 0
    for doc in docs:
        group.append(doc)
        tokens += len(doc[0])
        if tokens >= _GROUP_TOKENS:
            for ev in evaluators:
                ev.add_labels(group)
            group, tokens = [], 0
    for ev in evaluators if group else ():
        ev.add_labels(group)
    return {ev.granularity: ev.report() for ev in evaluators}


def evaluate_documents(docs, granularity: str = "word") -> EvalReport:
    """Pooled report over (gold labels, predicted labels, words) documents (`score_documents`)."""
    return score_documents(docs, (granularity,))[granularity]


def _char_widths(gold: LabelSeq, pred: LabelSeq, words) -> np.ndarray:
    """The word lengths by which `Evaluator.add_labels` counts a document of word labels.

    Raises EvalError unless both sides hold one label per word and equal
    char totals (lengths, plus one per empty B, plus one per gap), and
    unless every empty word is B on both sides or on neither: one that is B
    on one side only holds a char on that side only.
    """
    if words is None:
        raise EvalError("char-level scoring needs the document words")
    for labels in (gold, pred):
        if len(words) != len(labels):
            raise EvalError(f"word count {len(words)} does not match labels {len(labels)}")
    widths = np.fromiter(map(len, words), np.int32, len(words))
    if not widths.all():
        empty = np.flatnonzero(widths == 0).tolist()
        gold_b, pred_b = ({i for i in empty if side.labels[i] == "B"} for side in (gold, pred))
        if gold_b != pred_b:
            g, p = (int(widths.sum()) + len(widths) - 1 + len(b) for b in (gold_b, pred_b))
            if g != p:
                raise EvalError(f"length mismatch: gold {g} vs pred {p}")
            raise EvalError(f"empty word {min(gold_b ^ pred_b)} is B on one side only")
    return widths


def _label_indices(labels: str):
    """The index in LABELS of each label of a B/I/O string, as uint8."""
    return np.frombuffer(labels.encode("ascii").translate(_TO_INDEX), np.uint8)


@dataclass(frozen=True)
class MetricStat:
    """Mean and sample standard deviation of a score across runs."""

    mean: float
    std: float


@dataclass(frozen=True)
class AggregateReport:
    """The scores of several runs at one granularity, as MetricStats."""

    granularity: str
    n_runs: int
    metrics: dict
    label_f1: dict
    flags: tuple = ()

    def to_dict(self) -> dict:
        return {
            "granularity": self.granularity,
            "n_runs": self.n_runs,
            "metrics": {k: {"mean": v.mean, "std": v.std} for k, v in self.metrics.items()},
            "label_f1": {k: {"mean": v.mean, "std": v.std} for k, v in self.label_f1.items()},
            "flags": list(self.flags),
        }


def _stat(values) -> MetricStat:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return MetricStat(mean=mean, std=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return MetricStat(mean=mean, std=math.sqrt(var))


def aggregate(reports) -> AggregateReport:
    """Mean and sample standard deviation of every metric across runs."""
    reports = list(reports)
    if not reports:
        raise EvalError("no reports to aggregate")
    grans = {r.granularity for r in reports}
    if len(grans) > 1:
        raise EvalError(f"mixed granularities {sorted(grans)}")
    metrics = {name: _stat([getattr(r, name) for r in reports]) for name in SCORE_NAMES}
    label_f1 = {}
    for lab in LABELS:
        values = [r.per_label[lab].f1 for r in reports if lab in r.per_label]
        if values:
            label_f1[lab] = _stat(values)
    flags = ("single_run",) if len(reports) == 1 else ()
    return AggregateReport(
        granularity=reports[0].granularity,
        n_runs=len(reports),
        metrics=metrics,
        label_f1=label_f1,
        flags=flags,
    )
