"""Seeded synthetic corpora (templated sentences mixed with templated noise), and
JSON-lines file text for property tests."""

import numpy as np
from hypothesis import strategies as st

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
        offsets += (cursor, cursor + len(w))
        cursor += len(w) + 1
    return Unit(text=" ".join(words), words=tuple(words), is_su=is_su, offsets=tuple(offsets))


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


_BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", " \x0c "])
_JSON_SPACE = st.sampled_from(["", " ", "\t", " \t "])  # json.loads skips these around a value
_PADS = st.sampled_from(["\x0c", " \x0c", "\ufeff", " x", " 1", "}", "{}"])
_ODD_LINES = st.sampled_from(
    ["NaN", "[NaN]", "-Infinity", '"a"', "7", "null", "[]", "[" * 100_000, "[" * 50 + "]" * 50,
     "1 2", "{} x", "{", "\ufeff{}", "9" * 5000]
)


def _padded(pads, lines):
    return st.builds(lambda pre, line, post: pre + line + post, pads, lines, pads)


def _file_text(lines, bom):
    """Lines ending in LF, CRLF or a lone CR; a BOM or none; a last line without newline or none."""
    ended = st.tuples(lines, st.sampled_from(["\n", "\r\n", "\r"]))
    return st.builds(
        lambda bom, lines, last: "\ufeff" * bom + "".join(b + e for b, e in lines) + last,
        bom,
        st.lists(ended, max_size=5),
        st.one_of(st.just(""), lines),
    )


def json_lines_text(good, bad):
    """Text of a JSON-lines file whose lines are drawn from the strategies `good` and `bad`.

    Half the files hold lines of `good` alone, some padded with JSON
    whitespace, and blank lines, so that most of them load.  The other half
    also hold `good` lines padded with other characters, lines of `bad`, odd
    lines (NaN, JSON that is no object, extra data, deep nesting, a BOM) and
    any text, and may start with a BOM.
    """
    clean = st.one_of(good, _padded(_JSON_SPACE, good), _BLANK_LINES)
    any_line = st.one_of(
        clean,
        _padded(_PADS, good),
        bad,
        _ODD_LINES,
        st.text(max_size=12).filter(lambda t: "\n" not in t and "\r" not in t),
    )
    return st.one_of(_file_text(clean, st.just(False)), _file_text(any_line, st.booleans()))
