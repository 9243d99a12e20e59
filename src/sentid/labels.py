"""BIO label sequences and their conversions.

Labels live at one of two granularities (char, word) and can be
translated both between granularities and to/from begin/end boundary flags.
Conversion rules:

* char -> coarse: a token is B if it covers a B character, else I if it
  covers an I character, else O.
* coarse -> char: a B token of n chars becomes B + (n-1) I; an I token n I;
  an O token n O.  A separator after token i is I only when token i is B/I
  and token i+1 continues the same span (is I); otherwise O.
"""

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

GRANULARITIES = ("char", "word")

_SPAN = re.compile("BI*")
_B, _I, _O = b"BIO"


class LabelError(ValueError):
    """Invalid label sequence or boundary structure."""


@dataclass(frozen=True)
class LabelSeq:
    granularity: str
    labels: str

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise LabelError(f"unknown granularity {self.granularity!r}")
        labels = self.labels
        # at C speed: an ASCII string is valid when deleting B, I and O leaves nothing
        if type(labels) is str and labels.isascii():
            if not labels.encode("ascii").translate(None, b"BIO"):
                return
        bad = set(labels) - set("BIO")
        if bad:
            raise LabelError(f"labels contain {sorted(bad)!r}, expected B/I/O")

    def __len__(self) -> int:
        return len(self.labels)

    def validate(self) -> "LabelSeq":
        """Check that every span starts with B (no I after O or at start)."""
        prev = "O"
        for i, lab in enumerate(self.labels):
            if lab == "I" and prev == "O":
                raise LabelError(f"I-label at index {i} does not continue a span")
            prev = lab
        return self

    def spans(self) -> list[tuple[int, int]]:
        """Maximal B(I)* runs as half-open (start, end) index pairs.

        An I that starts the sequence or follows an O belongs to no span.
        """
        return [m.span() for m in _SPAN.finditer(self.labels)]


@dataclass(frozen=True)
class BoundarySeq:
    """Parallel begin/end flags over one token (or char) sequence."""

    bos_flags: np.ndarray
    eos_flags: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bos_flags, dtype=bool)
        e = np.asarray(self.eos_flags, dtype=bool)
        if b.shape != e.shape or b.ndim != 1:
            raise LabelError("begin/end flag vectors must share one length")
        object.__setattr__(self, "bos_flags", b)
        object.__setattr__(self, "eos_flags", e)

    def __len__(self) -> int:
        return len(self.bos_flags)

    @property
    def bos_indices(self) -> list[int]:
        return np.flatnonzero(self.bos_flags).tolist()

    @property
    def eos_indices(self) -> list[int]:
        return np.flatnonzero(self.eos_flags).tolist()

    def validate(self) -> "BoundarySeq":
        """Check alternation: open, close, open, close ... ending closed.

        A single position may both open and close (one-token span); a close
        never precedes its open.
        """
        inside = False
        for i in range(len(self)):
            if self.bos_flags[i]:
                if inside:
                    raise LabelError(f"begin flag at {i} inside an open span")
                inside = True
            if self.eos_flags[i]:
                if not inside:
                    raise LabelError(f"end flag at {i} without an open span")
                inside = False
        if inside:
            raise LabelError("sequence ends inside an open span")
        return self


def bio_to_boundaries(seq: LabelSeq) -> BoundarySeq:
    """Begin flag at each B; end flag at the last position of each span."""
    seq.validate()
    n = len(seq)
    bos = np.zeros(n, dtype=bool)
    eos = np.zeros(n, dtype=bool)
    labs = seq.labels
    for i, lab in enumerate(labs):
        if lab == "B":
            bos[i] = True
        if lab != "O" and (i + 1 == n or labs[i + 1] != "I"):
            eos[i] = True
    return BoundarySeq(bos, eos)


def boundaries_to_bio(b: BoundarySeq, granularity: str = "word") -> LabelSeq:
    b.validate()
    out = []
    inside = False
    for i in range(len(b)):
        if b.bos_flags[i]:
            out.append("B")
            inside = True
        elif inside:
            out.append("I")
        else:
            out.append("O")
        if b.eos_flags[i]:
            inside = False
    return LabelSeq(granularity, "".join(out))


def spans_to_labels(n: int, spans: Sequence[tuple[int, int]], granularity: str = "word") -> LabelSeq:
    """Render sorted, non-overlapping half-open spans as BIO.

    A span outside [0, n), or one that starts before the previous span ends,
    raises LabelError.
    """
    parts = []
    pos = 0
    for start, end in spans:
        if not (0 <= start < end <= n):
            raise LabelError(f"span ({start}, {end}) out of range for length {n}")
        if start < pos:
            raise LabelError(
                f"span ({start}, {end}) out of order: the previous span ends at {pos}"
            )
        parts.append("O" * (start - pos))
        parts.append("B" + "I" * (end - start - 1))
        pos = end
    parts.append("O" * (n - pos))
    return LabelSeq(granularity, "".join(parts))


def chars_to_coarse(
    char_labels: LabelSeq, spans: Sequence[tuple[int, int]], granularity: str = "word"
) -> LabelSeq:
    """Collapse character labels onto coarse tokens covering `spans`."""
    if char_labels.granularity != "char":
        raise LabelError("expected char-granularity input")
    n = len(char_labels)
    out = []
    for start, end in spans:
        if not (0 <= start <= end <= n):
            raise LabelError(f"token span ({start}, {end}) outside [0, {n}]")
        covered = char_labels.labels[start:end]
        if "B" in covered:
            out.append("B")
        elif "I" in covered:
            out.append("I")
        else:
            out.append("O")
    return LabelSeq(granularity, "".join(out))


def coarse_to_chars(
    labels: LabelSeq, lengths: Sequence[int], separators: Sequence[int]
) -> LabelSeq:
    """Expand coarse labels to characters, labeling separators by context.

    lengths[i] is the character count of token i; separators[i] the number of
    separator characters following token i (the last entry may be trailing).
    """
    if labels.granularity == "char":
        raise LabelError("input already char-granularity")
    if len(lengths) != len(labels) or len(separators) != len(labels):
        raise LabelError("lengths/separators must match the label count")
    codes = np.frombuffer(labels.labels.encode("ascii"), np.uint8)
    n = np.asarray(lengths, dtype=np.int64)
    is_b = codes == _B
    same_span = np.zeros(codes.shape, dtype=bool)
    same_span[:-1] = (codes[:-1] != _O) & (codes[1:] == _I)
    # token i is three segments: head (one B, or its own label n times), tail
    # (n-1 I after a B, so a B of length 0 still renders as "B") and separator
    values = np.empty((codes.shape[0], 3), dtype=np.uint8)
    values[:, 0] = codes
    values[:, 1] = _I
    values[:, 2] = np.where(same_span, _I, _O)
    sep = np.asarray(separators, dtype=np.int64)
    counts = np.stack([np.where(is_b, 1, n), np.where(is_b, n - 1, 0), sep], axis=1)
    chars = np.repeat(values.ravel(), np.maximum(counts, 0).ravel())
    return LabelSeq("char", chars.tobytes().decode("ascii"))
