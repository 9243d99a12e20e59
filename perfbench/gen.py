"""Seeded synthetic inputs for the benchmark workloads.

The unit templates are a private copy of the test-suite generator, so that
editing the tests cannot change what a workload measures.  Every writer
produces a file format the program reads (CoNLL-U, corpus JSON lines,
whitespace-tokenized documents, probability TSV); the program under test
sees only these files.
"""

import json
from dataclasses import dataclass

import numpy as np

SUBJECTS = (["The", "cat"], ["A", "dog"], ["My", "friend"], ["Her", "boss"], ["The", "kid"])
VERBS = ("sat", "slept", "ran", "played", "waited", "smiled")
TAILS = (
    ["on", "the", "mat"],
    ["in", "the", "park"],
    ["near", "the", "door"],
    ["with", "a", "ball"],
    ["after", "the", "storm"],
)


@dataclass(frozen=True)
class GenUnit:
    words: tuple
    is_su: bool
    heads: tuple  # 1-based CoNLL-U heads, 0 for the root
    deprels: tuple


def _su_unit(rng) -> GenUnit:
    subj = list(SUBJECTS[rng.integers(0, len(SUBJECTS))])
    verb = VERBS[rng.integers(0, len(VERBS))]
    tail = list(TAILS[rng.integers(0, len(TAILS))])
    # det nsubj root case det obl punct: the nsubj/obl arguments make it an SU
    return GenUnit(
        words=tuple(subj + [verb] + tail + ["."]),
        is_su=True,
        heads=(2, 3, 0, 6, 6, 3, 3),
        deprels=("det", "nsubj", "root", "case", "det", "obl", "punct"),
    )


def _timestamp_words(rng) -> list:
    mm = int(rng.integers(1, 13))
    dd = int(rng.integers(1, 29))
    hh = int(rng.integers(1, 13))
    mi = int(rng.integers(0, 60))
    return [f"{mm:02d}/{dd:02d}/200{rng.integers(0, 10)}", f"{hh:02d}:{mi:02d}", "PM"]


def _symbol_words(rng) -> list:
    runs = (["*", "*", "*", "*"], ["-->", "===", "<--"], ["*~*~*~*"], ["%%%", "%%%"])
    return list(runs[rng.integers(0, len(runs))])


def _fragment_words(rng) -> list:
    frags = (
        ["-", "UnleadedStocks.pdf"],
        ["Game", f"{rng.integers(1, 9)}:", "Monday"],
        ["tempura", "8.25"],
        ["(", "2", "Comments", ")"],
        ["5:00", "PT", "**", "6:00", "MT"],
    )
    return list(frags[rng.integers(0, len(frags))])


NSU_MAKERS = (_timestamp_words, _symbol_words, _fragment_words)


def _nsu_unit(rng) -> GenUnit:
    words = NSU_MAKERS[rng.integers(0, len(NSU_MAKERS))](rng)
    # a flat tree with no sentential relation: classified as NSU
    return GenUnit(
        words=tuple(words),
        is_su=False,
        heads=(0,) + (1,) * (len(words) - 1),
        deprels=("root",) + ("dep",) * (len(words) - 1),
    )


def make_units(n_units: int, rng: np.random.Generator, su_rate: float = 0.65) -> list:
    """Exactly round(su_rate * n_units) SU units, at shuffled positions.

    A fixed SU count keeps the token count, and so the work, nearly equal
    across seeds.
    """
    is_su = np.arange(n_units) < round(su_rate * n_units)
    return [_su_unit(rng) if su else _nsu_unit(rng) for su in rng.permutation(is_su)]


def token_count(units) -> int:
    return sum(len(u.words) for u in units)


def write_conllu(path, units) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for k, u in enumerate(units):
            f.write(f"# sent_id = s{k}\n# text = {' '.join(u.words)}\n")
            for i, (w, head, rel) in enumerate(zip(u.words, u.heads, u.deprels), start=1):
                f.write(f"{i}\t{w}\t_\t_\t_\t_\t{head}\t{rel}\t_\t_\n")
            f.write("\n")


def check_conllu(path, units) -> None:
    """Raise unless the program's converter reproduces every unit's words and is_su."""
    from sentid.corpus import DEFAULT_RULES, classify_unit, parse_conllu_file

    sents = parse_conllu_file(path)
    if len(sents) != len(units):
        raise RuntimeError(f"{path}: {len(sents)} sentences parsed, {len(units)} written")
    for k, (s, u) in enumerate(zip(sents, units)):
        if tuple(s.forms) != u.words or classify_unit(s, DEFAULT_RULES) != u.is_su:
            raise RuntimeError(f"{path}: sentence {k} does not round-trip")


def write_corpus(path, units) -> None:
    """Corpus JSON lines; words are joined by single spaces."""
    with open(path, "w", encoding="utf-8") as f:
        for u in units:
            offsets = []
            cursor = 0
            for w in u.words:
                offsets.append([cursor, cursor + len(w)])
                cursor += len(w) + 1
            rec = {"text": " ".join(u.words), "words": list(u.words),
                   "char_offsets": offsets, "is_su": u.is_su}
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_documents(units, rng: np.random.Generator, mean_units: float) -> list:
    """Partition units, in order, into documents of geometric unit counts."""
    docs = []
    k = 0
    while k < len(units):
        take = int(rng.geometric(1.0 / mean_units))
        docs.append(units[k : k + take])
        k += take
    return docs


def write_documents(path, docs) -> None:
    """One whitespace-tokenized document per line."""
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(" ".join(w for u in doc for w in u.words) + "\n")


def gold_flags(doc):
    """Per-token begin/end flags of one document's gold SU spans."""
    bos, eos = [], []
    for u in doc:
        n = len(u.words)
        bos.extend([u.is_su] + [False] * (n - 1))
        eos.extend([False] * (n - 1) + [u.is_su])
    return np.array(bos, dtype=bool), np.array(eos, dtype=bool)


def _noisy_probs(flags, rng, scale: float, flip_rate: float) -> np.ndarray:
    # logit +-3 around the gold flag, Gaussian noise, and a few flipped tokens
    sign = np.where(flags, 1.0, -1.0)
    sign[rng.random(flags.shape[0]) < flip_rate] *= -1.0
    z = 3.0 * sign + rng.normal(0.0, scale, flags.shape[0])
    return 1.0 / (1.0 + np.exp(-z))


def write_probs(path, docs, rng: np.random.Generator) -> None:
    """uni=1 probability file: gold flags blurred by seeded noise.

    The bidirectional and unidirectional columns get independent noise, so
    interpolation matters, some flags fall below the candidate threshold and
    some gold spans are missed.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write("#probs v1 uni=1\n")
        for d, doc in enumerate(docs):
            if d:
                f.write("\n")
            bos, eos = gold_flags(doc)
            cols = [_noisy_probs(flags, rng, 1.5, 0.02) for flags in (bos, eos, bos, eos)]
            words = [w for u in doc for w in u.words]
            for i, w in enumerate(words):
                f.write(f"{i}\t{w}\t" + "\t".join(repr(float(c[i])) for c in cols) + "\n")
