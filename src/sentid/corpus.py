"""Treebank conversion: CoNLL-U parsing, SU/NSU classification, statistics.

A unit is kept exactly as one treebank sentence; it counts as sentential
when at least one of its dependency relations (subtype-stripped) is a core
argument or non-core dependent, i.e. when a clausal predicate has an
argument.  Everything else (bare noun phrases, metadata, symbol runs) is a
non-sentential unit.
"""

import io
import json
import sys
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Iterator, Sequence

from . import labels as labels_mod
from .fileio import atomic_open, read_json_lines

# UD v2 relation classes; both sets are user-configurable.
CORE_ARGUMENTS = frozenset({"nsubj", "obj", "iobj", "csubj", "ccomp", "xcomp"})
NONCORE_DEPENDENTS = frozenset(
    {"obl", "vocative", "expl", "dislocated", "advcl", "advmod", "discourse", "aux", "cop", "mark"}
)


class ConlluError(ValueError):
    pass


class ConlluParseError(ConlluError):
    """Malformed line (reported with its 1-based line number)."""


class ConlluStructureError(ConlluError):
    """Well-formed lines that do not form a valid dependency structure."""


@dataclass(frozen=True)
class RelationRuleSet:
    """The dependency relations that make a unit sentential."""

    core_arguments: frozenset = CORE_ARGUMENTS
    noncore_dependents: frozenset = NONCORE_DEPENDENTS

    def __post_init__(self):
        for f in fields(self):
            rels = getattr(self, f.name)
            # a bare string is not a list: frozenset() would split it into letters
            is_set = isinstance(rels, (list, tuple, set, frozenset))
            if not is_set or any(type(r) is not str for r in rels):
                raise ValueError(f"{f.name} must be a list of relation names, got {rels!r}")
            object.__setattr__(self, f.name, frozenset(rels))

    @property
    def sentential_relations(self) -> frozenset:
        return self.core_arguments | self.noncore_dependents

    @classmethod
    def from_file(cls, path) -> "RelationRuleSet":
        """The rules of a JSON file; every error it raises names the file."""
        try:
            with open(path, encoding="utf-8") as f:
                data = json.load(f)
            if not isinstance(data, dict):
                raise ValueError("rules must be a JSON object")
            unknown = set(data) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown rule keys: {sorted(unknown)}")
            return cls(**data)
        # RecursionError: JSON nested too deeply for the parser
        except (ValueError, RecursionError) as exc:
            raise ConlluError(f"{path}: {exc}") from exc


DEFAULT_RULES = RelationRuleSet()


@dataclass(frozen=True)
class ConlluSentence:
    """One treebank sentence: surface tokens plus their dependency relations.

    forms holds the form of each syntactic word and deprels its relation
    name; multiword-token ranges contribute surface text only and empty
    nodes are dropped entirely.  Space-after shapes raw_text and offsets
    (flat, as a Unit holds them).
    """

    forms: tuple
    deprels: tuple
    raw_text: str
    offsets: tuple


def _misc_space_after(misc: str) -> bool:
    if misc == "_":
        return True
    return all(attr != "SpaceAfter=No" for attr in misc.split("|"))


def _finish_sentence(rows, mwts, first_line):
    if not rows:
        return None
    n = len(rows)
    # first word id -> (last word id, surface form, space after) of each multiword token
    ranges = {}
    owner = {}  # word id -> the range that covers it
    for start, end, form, space_after, lineno in mwts:
        if not (1 <= start <= end <= n):
            raise ConlluStructureError(
                f"line {lineno}: token range {start}-{end} outside sentence of {n} tokens"
            )
        for tid in range(start, end + 1):
            if tid in owner:
                raise ConlluStructureError(
                    f"line {lineno}: token range {start}-{end} overlaps token range {owner[tid]}"
                )
            owner[tid] = f"{start}-{end}"
        ranges[start] = (end, form, space_after)

    # a word outside every range is a token of one word with its own form;
    # each word's span is clipped to its token's surface form
    text_parts = []
    offsets = []
    cursor = 0
    tid = 1
    while tid <= n:
        end, form, space_after = ranges.get(tid) or (tid, *rows[tid - 1][:2])
        limit = cursor + len(form)
        for row in rows[tid - 1 : end]:
            e = min(cursor + len(row[0]), limit)
            offsets += (cursor, e)
            cursor = e
        text_parts.append(form)
        cursor = limit
        tid = end + 1
        if tid <= n and space_after:
            text_parts.append(" ")
            cursor += 1

    for _, _, head, _, lineno in rows:
        if not 0 <= head <= n:
            raise ConlluStructureError(
                f"line {lineno}: head {head} dangles outside sentence of {n} tokens"
            )
    root_count = sum(row[2] == 0 for row in rows)
    if root_count != 1:
        raise ConlluStructureError(
            f"sentence starting at line {first_line}: expected exactly one root, found {root_count}"
        )

    return ConlluSentence(
        forms=tuple(row[0] for row in rows),
        deprels=tuple(row[3] for row in rows),
        raw_text="".join(text_parts),
        offsets=tuple(offsets),
    )


def parse_conllu(data) -> list[ConlluSentence]:
    """Parse CoNLL-U text (str, bytes, or a file-like object)."""
    if hasattr(data, "read"):
        data = data.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")

    sentences = []
    rows = []  # (form, space_after, head, deprel, lineno)
    mwts = []  # (start, end, form, space_after, lineno)
    first_line = None
    for lineno, line in enumerate(io.StringIO(data), start=1):
        line = line.removesuffix("\n").removesuffix("\r")  # LF or CRLF
        if not line.strip():
            sent = _finish_sentence(rows, mwts, first_line)
            if sent is not None:
                sentences.append(sent)
            rows, mwts, first_line = [], [], None
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(f"line {lineno}: expected 10 columns, got {len(cols)}")
        if first_line is None:
            first_line = lineno
        tok_id, form, misc = cols[0], cols[1], cols[9]
        if "-" in tok_id:
            try:
                start, end = (int(x) for x in tok_id.split("-", 1))
            except ValueError:
                raise ConlluParseError(f"line {lineno}: bad token range id {tok_id!r}") from None
            # a range stands just before its first word
            if start != len(rows) + 1:
                raise ConlluParseError(
                    f"line {lineno}: token range {tok_id!r} does not start at the next word id"
                    f" {len(rows) + 1}"
                )
            mwts.append((start, end, form, _misc_space_after(misc), lineno))
            continue
        if "." in tok_id:
            continue  # empty node
        try:
            word_id = int(tok_id)
        except ValueError:
            raise ConlluParseError(f"line {lineno}: bad token id {tok_id!r}") from None
        # a sentence numbers its words 1, 2, 3, ... in order
        if word_id != len(rows) + 1:
            raise ConlluParseError(f"line {lineno}: word id {tok_id!r}, expected {len(rows) + 1}")
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluParseError(f"line {lineno}: bad head {cols[6]!r}") from None
        rows.append((form, _misc_space_after(misc), head, cols[7], lineno))

    sent = _finish_sentence(rows, mwts, first_line)
    if sent is not None:
        sentences.append(sent)
    return sentences


def parse_conllu_file(path) -> list[ConlluSentence]:
    """Parse a CoNLL-U file; its errors, and input that is not UTF-8, name the path."""
    with open(path, "rb") as f:
        try:
            return parse_conllu(f)
        except UnicodeDecodeError as exc:
            raise ConlluError(f"{path}: {exc}") from exc
        except ConlluError as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def strip_subtype(deprel: str) -> str:
    return deprel.split(":", 1)[0]


def classify_unit(sent: ConlluSentence, rules: RelationRuleSet = DEFAULT_RULES) -> bool:
    """True iff the sentence contains a clausal predicate with an argument."""
    wanted = rules.sentential_relations
    return any(strip_subtype(rel) in wanted for rel in sent.deprels)


@dataclass(frozen=True, slots=True)
class Unit:
    """One corpus unit: a treebank sentence's text, words, SU flag and word offsets."""

    text: str
    words: tuple
    is_su: bool
    offsets: tuple  # each word's start and end char, flat: (s0, e0, s1, e1, ...)

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class Corpus:
    """Units in corpus order, saved and loaded as JSON lines."""

    units: list

    def records(self) -> Iterator[str]:
        """One JSON line per unit, as written by save()."""
        for u in self.units:
            offs = u.offsets
            rec = {
                "text": u.text,
                "words": list(u.words),
                "char_offsets": [[s, e] for s, e in zip(offs[::2], offs[1::2])],
                "is_su": u.is_su,
            }
            yield json.dumps(rec, ensure_ascii=False) + "\n"

    def save(self, path) -> None:
        with atomic_open(path) as f:
            f.writelines(self.records())

    @classmethod
    def load(cls, path) -> "Corpus":
        return cls(units=read_json_lines(path, "corpus", _unit_of_record))


def _unit_of_record(rec) -> Unit:
    words = rec["words"]
    if type(words) is not list or type(rec["char_offsets"]) is not list:
        raise ValueError("words and char_offsets must be lists")
    # A corpus repeats few distinct words, so the units share one string per
    # word.  intern() rejects a word that is not a string with a message of
    # its own; such words go in as they are, for the checks below to report.
    try:
        words = tuple(map(sys.intern, words))
    except TypeError:
        words = tuple(words)
    text, is_su, pairs = rec["text"], rec["is_su"], rec["char_offsets"]
    offsets = tuple(chain.from_iterable(pairs))  # a pair that is not iterable raises TypeError
    if type(text) is not str:
        raise ValueError("text must be a string")
    if type(is_su) is not bool:
        raise ValueError(f"is_su must be true or false, got {is_su!r}")
    if not words:
        raise ValueError("a unit needs at least one word")
    if len(words) != len(pairs):
        raise ValueError("words and char_offsets must align")
    prev_end = 0
    n_chars = len(text)
    # each pair holds the two offsets it adds to `offsets`, or fails to unpack
    for w, (s, e) in zip(words, pairs):
        # exact types: a bool is not an offset
        if type(w) is not str or type(s) is not int or type(e) is not int:
            raise ValueError(f"word {w!r} at ({s!r}, {e!r}): expected a string and two ints")
        if not (prev_end <= s <= e <= n_chars):
            raise ValueError(f"offset ({s}, {e}) not monotone within text")
        prev_end = e
    return Unit(text=text, words=words, is_su=is_su, offsets=offsets)


def convert_treebank(
    sents: Iterable[ConlluSentence], rules: RelationRuleSet = DEFAULT_RULES
) -> Corpus:
    """One unit per sentence, in order, with its SU/NSU classification."""
    units = [
        Unit(
            text=s.raw_text,
            words=s.forms,
            is_su=classify_unit(s, rules),
            offsets=s.offsets,
        )
        for s in sents
    ]
    return Corpus(units=units)


def unit_spans(units) -> Iterator[tuple[int, int]]:
    """Word span of each SU unit among consecutive units; an NSU unit's words are in no span.

    A unit is anything with a length in words and an `is_su` flag.
    """
    pos = 0
    for u in units:
        n = len(u)
        if u.is_su:
            yield pos, pos + n
        pos += n


def gold_word_labels(units: Sequence) -> labels_mod.LabelSeq:
    """Word labels of consecutive units (as `unit_spans` takes them): B I* per SU unit, else O*."""
    return labels_mod.spans_to_labels(sum(map(len, units)), unit_spans(units))


def gold_documents(units, doc_lengths) -> Iterator[tuple[labels_mod.LabelSeq, list[str]]]:
    """Gold word labels and words of each document, aligned to consecutive units.

    Yields one document at a time.  A document takes units in order until
    they hold its tokens, so an empty unit after its last word goes to the
    next document.
    """
    k = 0
    for target in doc_lengths:
        words = []
        spans = []
        while len(words) < target:
            if k == len(units):
                raise ValueError("predictions cover more tokens than the corpus")
            u = units[k]
            n = len(u.words)  # not len(u): Unit.__len__ is a Python call
            if u.is_su:
                spans.append((len(words), len(words) + n))
            words += u.words
            k += 1
        if len(words) != target:
            raise ValueError(f"document of {target} tokens does not align with unit boundaries")
        yield labels_mod.spans_to_labels(target, spans), words
    if k != len(units):
        raise ValueError("predictions cover fewer tokens than the corpus")


@dataclass(frozen=True)
class CorpusStats:
    """Unit counts, and word and char label counts, of a corpus."""

    su_count: int = 0
    nsu_count: int = 0
    word_b: int = 0
    word_i: int = 0
    word_o: int = 0
    char_b: int = 0
    char_i: int = 0
    char_o: int = 0

    def __add__(self, other: "CorpusStats") -> "CorpusStats":
        return CorpusStats(
            *(getattr(self, f) + getattr(other, f) for f in self.__dataclass_fields__)
        )

    def to_dict(self) -> dict:
        return {
            "su_count": self.su_count,
            "nsu_count": self.nsu_count,
            "word": {"B": self.word_b, "I": self.word_i, "O": self.word_o},
            "char": {"B": self.char_b, "I": self.char_i, "O": self.char_o},
        }


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Label counts per granularity; characters are counted within units.

    Inter-unit separator characters belong to no unit and are excluded, so
    stats of concatenated corpora are exactly the field-wise sums.
    """
    su = [u for u in corpus.units if u.is_su]
    nsu = [u for u in corpus.units if not u.is_su]
    # an SU unit's first word and first char are B, the rest I
    return CorpusStats(
        su_count=len(su),
        nsu_count=len(nsu),
        word_b=len(su),
        word_i=sum(len(u.words) for u in su) - len(su),
        word_o=sum(len(u.words) for u in nsu),
        char_b=len(su),
        char_i=sum(len(u.text) for u in su) - len(su),
        char_o=sum(len(u.text) for u in nsu),
    )
