"""Seeded synthetic corpora: templated sentences mixed with templated noise."""

import numpy as np

from sentid.corpus import Corpus, Unit

SUBJECTS = (["The", "cat"], ["A", "dog"], ["My", "friend"], ["Her", "boss"], ["The", "kid"])
VERBS = ("sat", "slept", "ran", "played", "waited", "smiled")
TAILS = (
    ["on", "the", "mat"],
    ["in", "the", "park"],
    ["near", "the", "door"],
    ["with", "a", "ball"],
    ["after", "the", "storm"],
)


def unit_from_words(words, is_su: bool) -> Unit:
    """A unit of bare words, joined by single spaces."""
    offsets = []
    cursor = 0
    for w in words:
        offsets.append((cursor, cursor + len(w)))
        cursor += len(w) + 1
    return Unit(text=" ".join(words), words=tuple(words), is_su=is_su, char_offsets=tuple(offsets))


def _su_words(rng) -> list:
    subj = list(SUBJECTS[rng.integers(0, len(SUBJECTS))])
    verb = VERBS[rng.integers(0, len(VERBS))]
    tail = list(TAILS[rng.integers(0, len(TAILS))])
    return subj + [verb] + tail + ["."]


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


def synthetic_corpus(n_units: int, seed: int, su_rate: float = 0.65) -> Corpus:
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(n_units):
        if rng.random() < su_rate:
            units.append(unit_from_words(_su_words(rng), True))
        else:
            maker = NSU_MAKERS[rng.integers(0, len(NSU_MAKERS))]
            units.append(unit_from_words(maker(rng), False))
    return Corpus(units)
