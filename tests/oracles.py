"""Independent reference implementations used to check the package.

Everything here is deliberately brute force: the identification oracle
enumerates every valid flag assignment and scores it directly from the
objective's definition, and the metric oracles recount confusion cells and
span sets from scratch.  Nothing imports the decoding or evaluation code
paths under test.  The loop references are the row- and
character-at-a-time code that the array paths (kernels, probability reader,
label spans, span rendering, span validation, flag conversions, gold labels, char
rendering, label counts) replaced; they
take only the data and error types from the package.  The per-document model references at the
end featurize, score and train one document at a time, on dense heads
(`densify` rebuilds them from a model's row map and columns, and
`model_from_dense` compacts them into a model); they share the
token hasher and the kernels with the package, so grouped results and compact
models must equal theirs bit for bit.  Six references are earlier versions of package code:
`evaluate_documents_rendered`, which scores char labels by rendering each
document with `render_granularity` (the char body of `to_granularity`
until counting replaced it), `span_counts_sets`, the span counting of
`Evaluator.add_labels` through sets of regex-found spans (span ends
replaced it), `gold_documents_walk`, which summed each document's units one
at a time, `sgd_rows_numpy`, the SGD kernel before its per-row trims, and
`corpus_load_lines` and `read_span_file_lines`, the JSON-lines loaders with
one `json.loads` per line and the garbage collector running.  The package must match each
exactly; its readers must return equal records or raise the same message.
"""

import json
import math
import re
import sys
from functools import lru_cache

import numpy as np

from sentid import _kernels
from sentid.augment import example_stream
from sentid.corpus import Unit, gold_word_labels
from sentid.decode import SpanResult
from sentid.evaluation import EvalError, EvalReport, Evaluator
from sentid.labels import LabelError, LabelSeq, coarse_to_chars
from sentid.model import (
    _PAD_HASH,
    HEAD_SIDES,
    SIDE_WINDOWS,
    ClassifierModel,
    ProbFileError,
    ProbMatrix,
    _TokenHasher,
)


@lru_cache(maxsize=None)
def enumerate_packings(n: int):
    """Every set of disjoint, ordered, inclusive intervals within n tokens."""
    out = [()]

    def rec(start, cur):
        for b in range(start, n):
            for e in range(b, n):
                nxt = cur + ((b, e),)
                out.append(nxt)
                rec(e + 1, nxt)

    rec(0, ())
    return out


@lru_cache(maxsize=None)
def _incidence(n: int):
    packings = enumerate_packings(n)
    bos = np.zeros((len(packings), n))
    eos = np.zeros((len(packings), n))
    for k, spans in enumerate(packings):
        for b, e in spans:
            bos[k, b] = 1.0
            eos[k, e] = 1.0
    return packings, bos, eos


def clamp_logs(p, eps=1e-12):
    p = np.asarray(p, dtype=np.float64)
    return np.log(np.maximum(p, eps)), np.log(np.maximum(1.0 - p, eps))


def score_labeling(spans, p_bos, p_eos, eps=1e-12):
    """Direct objective value of one flag assignment: per-token flag terms."""
    lb1, lb0 = clamp_logs(p_bos, eps)
    le1, le0 = clamp_logs(p_eos, eps)
    n = len(p_bos)
    bos = set(b for b, _ in spans)
    eos = set(e - 1 for _, e in spans)  # half-open spans
    total = 0.0
    for i in range(n):
        total += lb1[i] if i in bos else lb0[i]
        total += le1[i] if i in eos else le0[i]
    return total


def brute_force_identify(p_bos, p_eos, eps=1e-12):
    """Max objective and an argmax over every valid flag assignment."""
    n = len(p_bos)
    lb1, lb0 = clamp_logs(p_bos, eps)
    le1, le0 = clamp_logs(p_eos, eps)
    packings, bos_inc, eos_inc = _incidence(n)
    base = lb0.sum() + le0.sum()
    scores = base + bos_inc @ (lb1 - lb0) + eos_inc @ (le1 - le0)
    k = int(np.argmax(scores))
    best_spans = tuple((b, e + 1) for b, e in packings[k])
    return float(scores[k]), best_spans


def naive_label_scores(gold: str, pred: str):
    """Recount a 3-class confusion matrix and derive all F1 figures."""
    labels = [lab for lab in "BIO" if lab in gold or lab in pred]
    per_label = {}
    for lab in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        n_pred = pred.count(lab)
        n_gold = gold.count(lab)
        prec = tp / n_pred if n_pred else 0.0
        rec = tp / n_gold if n_gold else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_label[lab] = (prec, rec, f1, n_gold)
    macro = sum(v[2] for v in per_label.values()) / len(per_label) if per_label else 0.0
    supported = [(v[2], v[3]) for v in per_label.values() if v[3] > 0]
    total = sum(s for _, s in supported)
    weighted = sum(f * s for f, s in supported) / total if total else 0.0
    return per_label, macro, weighted


def naive_span_scores(gold_spans, pred_spans):
    gold_set = set(map(tuple, gold_spans))
    pred_set = set(map(tuple, pred_spans))
    if not gold_set and not pred_set:
        return 1.0, 1.0, 1.0
    tp = len(gold_set & pred_set)
    prec = tp / len(pred_set) if pred_set else 0.0
    rec = tp / len(gold_set) if gold_set else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def random_valid_labels(rng, n: int) -> str:
    """Uniform-ish random BIO string satisfying the span-start invariant."""
    out = []
    inside = False
    for _ in range(n):
        if inside:
            lab = rng.choice(["B", "I", "O"])
        else:
            lab = rng.choice(["B", "O"])
        out.append(lab)
        inside = lab != "O"
    return "".join(out)


# ---------------------------------------------------------------------------
# Loop references for the array code paths
# ---------------------------------------------------------------------------


def _parse_prob_value(text: str, lineno: int, col: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ProbFileError(f"row {lineno}: {col} is not a number: {text!r}") from None
    if not 0.0 <= v <= 1.0:
        raise ProbFileError(f"row {lineno}: {col}={v} outside [0, 1]")
    return v


def iter_prob_documents_rows(stream):
    """Row-by-row probability file reader: the whole input, split at "\\n", "\\r\\n" and "\\r"."""
    if hasattr(stream, "read"):
        data = stream.read()
    else:
        data = stream
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = re.split(r"\r\n|\r|\n", data)
    if lines[-1] == "":  # the text after the last line end
        lines.pop()
    if not lines or not lines[0].startswith("#probs v1"):
        raise ProbFileError("missing '#probs v1' header")
    if lines[0] not in ("#probs v1", "#probs v1 uni=0", "#probs v1 uni=1"):
        raise ProbFileError(
            f"bad header {lines[0]!r}: expected '#probs v1', optionally with uni=0 or uni=1"
        )
    uni = lines[0] == "#probs v1 uni=1"
    ncols = 6 if uni else 4
    docs = []
    cols = [[] for _ in range(ncols - 2)]

    def flush():
        nonlocal cols
        if cols[0]:
            arrays = [np.array(c, dtype=np.float64) for c in cols]
            docs.append(ProbMatrix(arrays[0], arrays[1], *(arrays[2:] if uni else [None, None])))
        cols = [[] for _ in range(ncols - 2)]

    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != ncols:
            raise ProbFileError(
                f"row {lineno}: expected {ncols} columns (uni={int(uni)}), got {len(parts)}"
            )
        try:
            idx = int(parts[0])
        except ValueError:
            raise ProbFileError(f"row {lineno}: bad index {parts[0]!r}") from None
        if idx != len(cols[0]):
            raise ProbFileError(f"row {lineno}: index {idx}, expected {len(cols[0])}")
        names = ("p_bos", "p_eos", "p_bos_uni", "p_eos_uni")
        for k in range(2, ncols):
            cols[k - 2].append(_parse_prob_value(parts[k], lineno, names[k - 2]))
    flush()
    return docs


def label_spans(labels: str):
    """Maximal B(I)* runs as half-open pairs; an I after O or at the start is in none."""
    out = []
    start = None
    for i, lab in enumerate(labels):
        if lab == "B":
            if start is not None:
                out.append((start, i))
            start = i
        elif lab == "O" and start is not None:
            out.append((start, i))
            start = None
    if start is not None:
        out.append((start, len(labels)))
    return out


def span_counts_sets(gold: str, pred: str) -> tuple[int, int, int]:
    """(matched, gold, predicted) span counts of two label strings, through sets of spans.

    A span is a maximal B(I)* run found by a regex, as a half-open (start,
    end) pair; an I at the start or after an O is in none.  A predicted span
    matches when the gold set holds the same pair.
    """
    gold_spans, pred_spans = ({m.span() for m in re.finditer("BI*", s)} for s in (gold, pred))
    return len(gold_spans & pred_spans), len(gold_spans), len(pred_spans)


def gold_documents_walk(units, doc_lengths) -> list:
    """Gold word labels and words of each document, summing its units' words one unit at a time."""
    docs = []
    k = 0
    for target in doc_lengths:
        start, total = k, 0
        while total < target:
            if k >= len(units):
                raise ValueError("predictions cover more tokens than the corpus")
            total += len(units[k].words)
            k += 1
        if total != target:
            raise ValueError(f"document of {target} tokens does not align with unit boundaries")
        chunk = units[start:k]
        docs.append((gold_word_labels(chunk), [w for u in chunk for w in u.words]))
    if k != len(units):
        raise ValueError("predictions cover fewer tokens than the corpus")
    return docs


def evaluate_documents_rendered(docs, granularity: str = "word") -> EvalReport:
    """Pooled report with every document rendered at `granularity`, then counted label by label."""
    ev = Evaluator(granularity=granularity)
    for gold, pred, words in docs:
        ev.add_labels(
            render_granularity(gold, granularity, words),
            render_granularity(pred, granularity, words),
        )
    return ev.report()


def render_granularity(labels: LabelSeq, granularity: str, words) -> LabelSeq:
    """Word labels rendered as chars, the words joined by single separator spaces.

    Labels already at `granularity` pass through.  Scoring rendered these
    chars before it counted them.
    """
    if granularity == labels.granularity:
        return labels
    if labels.granularity != "word" or granularity != "char":
        raise EvalError(f"cannot convert {labels.granularity} labels to {granularity}")
    if words is None:
        raise EvalError("char-level scoring needs the document words")
    if len(words) != len(labels):
        raise EvalError(f"word count {len(words)} does not match labels {len(labels)}")
    lengths = list(map(len, words))
    separators = [1] * (len(words) - 1) + [0] if words else []
    return coarse_to_chars(labels, lengths, separators)


def coarse_to_chars_loop(labels: str, lengths, separators) -> str:
    """Per-token expansion: B -> B + (n-1) I, I -> n I, O -> n O; separators by context."""
    out = []
    for i, lab in enumerate(labels):
        n = lengths[i]
        if lab == "B":
            out.append("B" + "I" * (n - 1))
        elif lab == "I":
            out.append("I" * n)
        else:
            out.append("O" * n)
        same_span = lab in "BI" and i + 1 < len(labels) and labels[i + 1] == "I"
        out.append(("I" if same_span else "O") * separators[i])
    return "".join(out)


def spans_to_labels_loop(n: int, spans) -> str:
    """BIO of sorted, non-overlapping half-open spans painted one token at a time."""
    labs = ["O"] * n
    pos = 0
    for start, end in spans:
        if not (0 <= start < end <= n):
            raise LabelError(f"span ({start}, {end}) out of range for length {n}")
        if start < pos:
            raise LabelError(
                f"span ({start}, {end}) out of order: the previous span ends at {pos}"
            )
        labs[start] = "B"
        for i in range(start + 1, end):
            labs[i] = "I"
        pos = end
    return "".join(labs)


def validate_loop(labels: str) -> str:
    """The labels, unless an I starts the sequence or follows an O."""
    prev = "O"
    for i, lab in enumerate(labels):
        if lab == "I" and prev == "O":
            raise LabelError(f"I-label at index {i} does not continue a span")
        prev = lab
    return labels


def bio_to_boundaries_loop(labels: str) -> tuple[list, list]:
    """(begin, end) flags of valid labels: begin at each B, end where a span's I run stops."""
    validate_loop(labels)
    n = len(labels)
    bos = [lab == "B" for lab in labels]
    eos = [lab != "O" and (i + 1 == n or labels[i + 1] != "I") for i, lab in enumerate(labels)]
    return bos, eos


def boundaries_to_bio_loop(bos, eos) -> str:
    """BIO of alternating begin/end flags, checked and rendered in one pass."""
    out = []
    inside = False
    for i, (b, e) in enumerate(zip(bos, eos)):
        if b:
            if inside:
                raise LabelError(f"begin flag at {i} inside an open span")
            inside = True
            out.append("B")
        else:
            out.append("I" if inside else "O")
        if e:
            if not inside:
                raise LabelError(f"end flag at {i} without an open span")
            inside = False
    if inside:
        raise LabelError("sequence ends inside an open span")
    return "".join(out)


def gold_word_labels_loop(units) -> str:
    """Word labels of consecutive units, one unit's string at a time: B I* if SU, else O*."""
    parts = []
    for u in units:
        n = len(u.words)
        parts.append(("B" + "I" * (n - 1)) if u.is_su else "O" * n)
    return "".join(parts)


def corpus_load_lines(path) -> list:
    """Corpus units of a JSON-lines file, one json.loads per line, with the collector running."""
    units = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if type(rec["words"]) is not list or type(rec["char_offsets"]) is not list:
                    raise ValueError("words and char_offsets must be lists")
                unit = Unit(
                    text=rec["text"],
                    words=tuple(rec["words"]),
                    is_su=rec["is_su"],
                    char_offsets=tuple(tuple(o) for o in rec["char_offsets"]),
                ).validate()
            except (KeyError, ValueError, TypeError, RecursionError) as exc:  # deep JSON nesting
                raise ValueError(f"{path}: bad corpus record on line {lineno}: {exc}") from exc
            object.__setattr__(unit, "words", tuple(map(sys.intern, unit.words)))
            units.append(unit)
    return units


def read_span_file_lines(path) -> list:
    """Span results of a JSON-lines file, one json.loads per line, with the collector running."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                spans = tuple(tuple(sp) for sp in rec["spans"])
                # exact types: a bool is not a span end, nor a string a log_prob
                if any(type(x) is not int for sp in spans for x in sp):
                    raise ValueError("span ends must be integers")
                log_prob = rec["log_prob"]
                if type(log_prob) not in (int, float) or not math.isfinite(log_prob):
                    raise ValueError(f"log_prob must be a finite number, got {log_prob!r}")
                r = SpanResult(
                    su_spans=spans,
                    log_prob=float(log_prob),
                    labels=LabelSeq("word", rec["labels"]),
                ).validate()
            # OverflowError: float() of a huge integer; RecursionError: deeply nested JSON
            except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}: bad span record on line {lineno}: {exc}") from exc
            out.append(r)
    return out


def label_counts(gold: str, pred: str):
    """(gold, predicted, true-positive) cell counts per label, one position at a time."""
    counts = tuple({lab: 0 for lab in "BIO"} for _ in range(3))
    for g, p in zip(gold, pred):
        counts[0][g] += 1
        counts[1][p] += 1
        if g == p:
            counts[2][g] += 1
    return counts


def dp_decode_loop(lb1, lb0, le1, le0, bos_ok, eos_ok):
    """The span DP visiting every position, on numpy scalars.

    Positions whose candidate masks are both 0 pass through unchanged; the
    kernel skips them, so its results must equal these bit for bit.
    """
    n = lb1.shape[0]
    # bp_bos[i]: open-state at i was reached by opening a span at i
    # bp_eos[i]: outside-state at i+1 was reached by closing a span at i
    bp_bos = np.zeros(n, np.uint8)
    bp_eos = np.zeros(n, np.uint8)
    cur_is = -math.inf
    cur_os = 0.0
    for i in range(n):
        if bos_ok[i]:
            keep = cur_is + lb0[i]
            open_ = cur_os + lb1[i]
            if open_ > keep:
                is_p = open_
                bp_bos[i] = 1
            else:
                is_p = keep
            os_p = cur_os + lb0[i]
        else:
            is_p = cur_is
            os_p = cur_os
        if eos_ok[i]:
            cur_is = is_p + le0[i]
            close = is_p + le1[i]
            stay = os_p + le0[i]
            if close >= stay:
                cur_os = close
                bp_eos[i] = 1
            else:
                cur_os = stay
        else:
            cur_is = is_p
            cur_os = os_p

    bos_flags = np.zeros(n, np.uint8)
    eos_flags = np.zeros(n, np.uint8)
    inside = False  # state while walking backwards: True = open-span state
    for i in range(n - 1, -1, -1):
        if inside:
            after_bos = True  # open state at i+1 always descends from is'
        else:
            if eos_ok[i] and bp_eos[i]:
                eos_flags[i] = 1
                after_bos = True
            else:
                after_bos = False
        if after_bos:
            if bos_ok[i] and bp_bos[i]:
                bos_flags[i] = 1
                inside = False
            else:
                inside = True
        else:
            inside = False
    return cur_os, bos_flags, eos_flags


def span_dp(lb1, lb0, le1, le0, bos_ok, eos_ok):
    """(objective, begin flags, end flags) by an explicit search over span ends.

    best[i] is the best score of tokens [0, i).  Token i-1 either lies outside
    every span, or closes a span [b, i) that opens at some candidate b.  A
    candidate position adds its zero-flag term unless flagged; a skipped one
    adds nothing, as if its flag had probability 0.
    """
    n = len(lb1)
    base0 = [(lb0[i] if bos_ok[i] else 0.0) + (le0[i] if eos_ok[i] else 0.0) for i in range(n)]
    best = [0.0] * (n + 1)
    back = [None] * (n + 1)
    for i in range(1, n + 1):
        best[i] = best[i - 1] + base0[i - 1]
        if not eos_ok[i - 1]:
            continue
        for b in range(i):
            if not bos_ok[b]:
                continue
            inner = sum(base0[b + 1 : i - 1])
            if b == i - 1:
                span = lb1[b] + le1[b]
            else:
                span = lb1[b] + (le0[b] if eos_ok[b] else 0.0) + inner
                span += (lb0[i - 1] if bos_ok[i - 1] else 0.0) + le1[i - 1]
            if best[b] + span > best[i]:
                best[i] = best[b] + span
                back[i] = b
    bos = np.zeros(n, np.uint8)
    eos = np.zeros(n, np.uint8)
    i = n
    while i > 0:
        if back[i] is None:
            i -= 1
        else:
            bos[back[i]] = 1
            eos[i - 1] = 1
            i = back[i]
    return best[n], bos, eos


def _sigmoid(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def sgd_rows_numpy(w, indices, indptr, targets, lr):
    """The numpy SGD kernel as it was before its per-row trims; w[-1] is the bias slot."""

    def sigmoid(z):
        if z >= 0.0:
            return 1.0 / (1.0 + np.exp(-z))
        e = np.exp(z)
        return e / (1.0 + e)

    for r in range(indptr.shape[0] - 1):
        idx = indices[indptr[r] : indptr[r + 1]]
        z = w[-1] + w[idx].sum()
        g = lr * (targets[r] - sigmoid(z))
        np.add.at(w, idx, g)
        w[-1] += g


def sgd_rows_loop(w, indices, indptr, targets, lr):
    """One logistic SGD step per row, in order; w[-1] is the bias slot."""
    for r in range(len(indptr) - 1):
        z = w[-1]
        for k in range(indptr[r], indptr[r + 1]):
            z += w[indices[k]]
        g = lr * (targets[r] - _sigmoid(z))
        for k in range(indptr[r], indptr[r + 1]):
            w[indices[k]] += g
        w[-1] += g


def score_rows_loop(w, indices, indptr):
    """Sigmoid of bias plus the row's weights, row by row."""
    out = np.empty(len(indptr) - 1, np.float64)
    for r in range(len(out)):
        z = w[-1]
        for k in range(indptr[r], indptr[r + 1]):
            z += w[indices[k]]
        out[r] = _sigmoid(z)
    return out


_MASK64 = 2**64 - 1


def _splitmix64(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def window_indices_loop(tok_hashes, tok_indptr, n, lo, hi, dim_mask, pad_hash, doc_lens):
    """Feature indices of every window position, one position and hash at a time.

    The `n` tokens are the documents of `doc_lens` laid end to end.  Position
    t of row i contributes each of its tokens' hashes (or the pad hash outside
    row i's document), salted with (t - i - lo + 1) times the golden-ratio
    constant.
    """
    assert sum(doc_lens) == n
    indices = []
    indptr = [0]
    start = 0
    for length in doc_lens:
        end = start + length
        for i in range(start, end):
            for t in range(i + lo, i + hi + 1):
                salt = ((t - i - lo + 1) * 0x9E3779B97F4A7C15) & _MASK64
                if start <= t < end:
                    hashes = tok_hashes[tok_indptr[t] : tok_indptr[t + 1]]
                else:
                    hashes = [pad_hash]
                for h in hashes:
                    indices.append(_splitmix64(int(h) ^ salt) & int(dim_mask))
            indptr.append(len(indices))
        start = end
    return np.array(indices, np.int64), np.array(indptr, np.int64)


def _document_rows(hasher, words, sides, cfg) -> dict:
    """Feature indices of one document on its own, mixed once per distinct side."""
    hashes, tok_ptr = hasher.csr(words)
    mask = np.uint64(cfg.hash_dim - 1)
    out = {}
    for side in sides:
        if side not in out:
            lo, hi = (k * cfg.window_radius for k in SIDE_WINDOWS[side])
            out[side] = _kernels.window_indices(
                hashes, tok_ptr, len(words), lo, hi, mask, _PAD_HASH, [len(words)]
            )
    return out


def zero_heads(cfg) -> dict:
    """Dense all-zero heads of a model of `cfg`: head name -> `hash_dim + 1` weights."""
    return {name: np.zeros(cfg.hash_dim + 1) for name in cfg.head_names}


def model_from_dense(cfg, seed: int, heads: dict) -> ClassifierModel:
    """The compact model of the dense heads that it takes out of `heads`.

    `heads` maps each head to its `hash_dim + 1` float64 weights, bias last.
    A weight is nonzero by its bits, as `save_model` stores it, so a -0.0
    keeps its row.
    """
    marks = np.zeros(cfg.hash_dim + 1, dtype=bool)
    marks[-1] = True  # the bias has a row in every model
    for w in heads.values():
        marks |= w.view(np.int64) != 0
    keys = np.flatnonzero(marks)
    columns = {name: np.append(0.0, heads.pop(name)[keys]) for name in cfg.head_names}
    rows = np.zeros(marks.shape[0], dtype=np.int32)
    rows[keys] = np.arange(1, keys.shape[0] + 1, dtype=np.int32)
    return ClassifierModel(cfg, seed, rows, columns)


def densify(model: ClassifierModel) -> dict:
    """Each head's `hash_dim + 1` dense weights, rebuilt from the row map and the columns."""
    return {name: model.columns[name][model.rows] for name in model.head_names}


def score_dense(heads: dict, cfg, words) -> ProbMatrix:
    """Scores of dense heads (name -> `hash_dim + 1` weights) on one document featurized alone."""
    sides = [HEAD_SIDES[name] for name in heads]
    rows = _document_rows(_TokenHasher(cfg), words, sides, cfg)
    return ProbMatrix(*(
        _kernels.score_rows(w, *rows[HEAD_SIDES[name]]) for name, w in heads.items()
    ))


def predict_per_document(model, words) -> ProbMatrix:
    """Scores of every head of `model` on one document, from its dense heads."""
    return score_dense(densify(model), model.config, words)


def train_per_example(corpus, augment_cfg, seed, model_cfg) -> dict:
    """The dense heads of `model.train`, trained one example at a time.

    Each example gets every head's SGD over it, in head order.
    """
    weights = zero_heads(model_cfg)
    hasher = _TokenHasher(model_cfg)
    sides = [HEAD_SIDES[name] for name in model_cfg.head_names]
    for epoch in range(model_cfg.epochs):
        lr = model_cfg.learning_rate * model_cfg.lr_decay**epoch
        for ex in example_stream(corpus, augment_cfg, seed, epoch):
            rows = _document_rows(hasher, ex.words, sides, model_cfg)
            targets = {
                "bos": ex.gold.bos_flags.astype(np.float64),
                "eos": ex.gold.eos_flags.astype(np.float64),
            }
            for name in model_cfg.head_names:
                idx, ptr = rows[HEAD_SIDES[name]]
                _kernels.sgd_rows(weights[name], idx, ptr, targets[name[:3]], lr)
    return weights
