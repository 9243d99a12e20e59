"""Output checks: span-file validity, the decoder's objective, determinism.

The objective is recomputed here with numpy from the probability file the
decoder read, independently of the package's DP: a labelling scores
log p (or log(1 - p), each floored at 1e-12) for every begin and end flag,
and a flag whose probability is below the candidate threshold ``c`` is
pruned: it contributes 0 when absent and makes the labelling infeasible
when present.  The decoded labelling must score exactly its recorded
``log_prob`` (up to summation order) and at least as high as the gold one.
"""

import hashlib
import os

import numpy as np

from gen import gold_flags

FLOOR = 1e-12
REL_TOL = 1e-9


def read_probs(path) -> list:
    """Per document, a (n, k) array of the probability columns (k = 2 or 4)."""
    docs, rows = [], []
    with open(path, encoding="utf-8") as f:
        header = f.readline()
        if not header.startswith("#probs v1"):
            raise ValueError(f"{path}: missing '#probs v1' header")
        for line in f:
            if not line.strip():
                if rows:
                    docs.append(np.array(rows, dtype=np.float64))
                rows = []
                continue
            rows.append([float(x) for x in line.rstrip("\n").split("\t")[2:]])
    if rows:
        docs.append(np.array(rows, dtype=np.float64))
    return docs


def decoder_probs(cols: np.ndarray, lam: float):
    """(p_bos, p_eos) the decoder sees: uni/bi interpolation when present."""
    if cols.shape[1] == 4:
        return lam * cols[:, 2] + (1.0 - lam) * cols[:, 0], lam * cols[:, 3] + (1.0 - lam) * cols[:, 1]
    return cols[:, 0], cols[:, 1]


def _flag_score(p, flags, c) -> float:
    ok = p >= c
    if np.any(flags & ~ok):
        return -np.inf
    on = np.log(np.maximum(p, FLOOR))
    off = np.where(ok, np.log(np.maximum(1.0 - p, FLOOR)), 0.0)
    return float(np.where(flags, on, off).sum())


def objective(p_bos, p_eos, bos, eos, c) -> float:
    return _flag_score(p_bos, bos, c) + _flag_score(p_eos, eos, c)


def span_flags(n, spans):
    bos = np.zeros(n, dtype=bool)
    eos = np.zeros(n, dtype=bool)
    for s, e in spans:
        bos[s] = True
        eos[e - 1] = True
    return bos, eos


def gold_documents(units, lengths) -> list:
    """Consecutive units grouped into documents of the given token counts."""
    docs, k = [], 0
    for n in lengths:
        doc, total = [], 0
        while total < n and k < len(units):
            doc.append(units[k])
            total += len(units[k].words)
            k += 1
        if total != n:
            raise ValueError(f"document of {n} tokens does not align with the gold units")
        docs.append(doc)
    if k != len(units):
        raise ValueError("documents cover fewer tokens than the gold units")
    return docs


def check_spans(span_path, probs_path, gold_units, lam, c) -> list:
    """Problems found in one span file, checked against its probability file."""
    from sentid.decode import read_span_file

    try:
        results = read_span_file(span_path)
    except ValueError as exc:
        return [str(exc)]
    docs = read_probs(probs_path)
    if len(docs) != len(results):
        return [f"{span_path}: {len(results)} documents decoded, {len(docs)} in {probs_path}"]
    try:
        gold = gold_documents(gold_units, [cols.shape[0] for cols in docs])
    except ValueError as exc:
        return [f"{probs_path}: {exc}"]
    problems = []
    for d, (cols, res, units) in enumerate(zip(docs, results, gold)):
        n = cols.shape[0]
        if res.n != n:
            problems.append(f"{span_path}: document {d} has {res.n} labels for {n} tokens")
            continue
        p_bos, p_eos = decoder_probs(cols, lam)
        got = objective(p_bos, p_eos, *span_flags(n, res.su_spans), c)
        if not abs(got - res.log_prob) <= REL_TOL * max(1.0, abs(got)):
            problems.append(f"{span_path}: document {d} log_prob {res.log_prob!r}, recomputed {got!r}")
        gold_score = objective(p_bos, p_eos, *gold_flags(units), c)
        if got < gold_score - REL_TOL * max(1.0, abs(gold_score)):
            problems.append(f"{span_path}: document {d} scores {got!r} below gold {gold_score!r}")
    return problems


def tree_digest(root) -> str:
    """sha256 over every file name and content under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()
