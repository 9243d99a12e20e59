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
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import accumulate, chain
from operator import attrgetter
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

    forms holds the form of each syntactic word; multiword-token ranges
    contribute surface text only and empty nodes are dropped entirely.
    Space-after shapes raw_text and char_offsets.  heads are 0-based indices
    into forms, None for the root.
    """

    forms: tuple
    deprels: tuple
    raw_text: str
    char_offsets: tuple


def _misc_space_after(misc: str) -> bool:
    if misc == "_":
        return True
    return all(attr != "SpaceAfter=No" for attr in misc.split("|"))


def _finish_sentence(rows, mwts, first_line):
    if not rows:
        return None
    n = len(rows)
    covered = {}
    for start, end, form, space_after, lineno in mwts:
        if not (1 <= start <= end <= n):
            raise ConlluStructureError(
                f"line {lineno}: token range {start}-{end} outside sentence of {n} tokens"
            )
        for tid in range(start, end + 1):
            covered[tid] = (start, end, form, space_after)

    text_parts = []
    offsets = []
    cursor = 0
    tid = 1
    while tid <= n:
        if tid in covered and covered[tid][0] == tid:
            start, end, form, space_after = covered[tid]
            base = cursor
            limit = base + len(form)
            for j in range(start, end + 1):
                w = rows[j - 1][0]
                s = min(cursor, limit)
                e = min(cursor + len(w), limit)
                offsets.append((s, e))
                cursor = e
            text_parts.append(form)
            cursor = limit
            tid = end + 1
            last_space = space_after
        else:
            form = rows[tid - 1][0]
            offsets.append((cursor, cursor + len(form)))
            text_parts.append(form)
            cursor += len(form)
            last_space = rows[tid - 1][1]
            tid += 1
        if tid <= n and last_space:
            text_parts.append(" ")
            cursor += 1

    root_count = 0
    deprels = []
    for i, (form, _, head, deprel, lineno) in enumerate(rows):
        if head == 0:
            root_count += 1
            deprels.append((None, deprel))
        else:
            if not (1 <= head <= n):
                raise ConlluStructureError(
                    f"line {lineno}: head {head} dangles outside sentence of {n} tokens"
                )
            deprels.append((head - 1, deprel))
    if root_count != 1:
        raise ConlluStructureError(
            f"sentence starting at line {first_line}: expected exactly one root, found {root_count}"
        )

    return ConlluSentence(
        forms=tuple(row[0] for row in rows),
        deprels=tuple(deprels),
        raw_text="".join(text_parts),
        char_offsets=tuple(offsets),
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
            mwts.append((start, end, form, _misc_space_after(misc), lineno))
            continue
        if "." in tok_id:
            continue  # empty node
        try:
            int(tok_id)
        except ValueError:
            raise ConlluParseError(f"line {lineno}: bad token id {tok_id!r}") from None
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
    return any(strip_subtype(rel) in wanted for _, rel in sent.deprels)


@dataclass(frozen=True, slots=True)
class Unit:
    text: str
    words: tuple
    is_su: bool
    char_offsets: tuple

    def __len__(self) -> int:
        return len(self.words)

    def validate(self) -> "Unit":
        if type(self.text) is not str:
            raise ValueError("text must be a string")
        if type(self.is_su) is not bool:
            raise ValueError(f"is_su must be true or false, got {self.is_su!r}")
        if not self.words:
            raise ValueError("a unit needs at least one word")
        if len(self.words) != len(self.char_offsets):
            raise ValueError("words and char_offsets must align")
        prev_end = 0
        n_chars = len(self.text)
        for w, (s, e) in zip(self.words, self.char_offsets):
            # exact types: a bool is not an offset
            if type(w) is not str or type(s) is not int or type(e) is not int:
                raise ValueError(f"word {w!r} at ({s!r}, {e!r}): expected a string and two ints")
            if not (prev_end <= s <= e <= n_chars):
                raise ValueError(f"offset ({s}, {e}) not monotone within text")
            prev_end = e
        return self


@dataclass
class Corpus:
    units: list

    def __len__(self) -> int:
        return len(self.units)

    def records(self) -> Iterator[str]:
        """One JSON line per unit, as written by save()."""
        for u in self.units:
            rec = {
                "text": u.text,
                "words": list(u.words),
                "char_offsets": [list(o) for o in u.char_offsets],
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
    # its own; such words go in as they are, for validate() to report.
    try:
        words = tuple(map(sys.intern, words))
    except TypeError:
        words = tuple(words)
    return Unit(
        text=rec["text"],
        words=words,
        is_su=rec["is_su"],
        char_offsets=tuple(map(tuple, rec["char_offsets"])),
    ).validate()


def convert_treebank(
    sents: Iterable[ConlluSentence], rules: RelationRuleSet = DEFAULT_RULES
) -> Corpus:
    """One unit per sentence, in order, with its SU/NSU classification."""
    units = [
        Unit(
            text=s.raw_text,
            words=s.forms,
            is_su=classify_unit(s, rules),
            char_offsets=s.char_offsets,
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


def gold_documents(units, doc_lengths) -> list[tuple[labels_mod.LabelSeq, list[str]]]:
    """Gold word labels and words of each document, aligned to consecutive units."""
    # ends[j]: the words of units[0..j]; a document ends at the first unit
    # end that reaches its last word
    ends = list(accumulate(map(len, map(attrgetter("words"), units))))
    docs = []
    k = 0
    for target in doc_lengths:
        start, base, total = k, ends[k - 1] if k else 0, 0
        if target > 0:
            k = bisect_left(ends, base + target, lo=k)
            if k == len(units):
                raise ValueError("predictions cover more tokens than the corpus")
            total = ends[k] - base
            k += 1
        if total != target:
            raise ValueError(f"document of {target} tokens does not align with unit boundaries")
        chunk = units[start:k]
        # gold_word_labels(chunk), whose word count is known
        labels = labels_mod.spans_to_labels(target, unit_spans(chunk))
        docs.append((labels, list(chain.from_iterable(map(attrgetter("words"), chunk)))))
    if k != len(units):
        raise ValueError("predictions cover fewer tokens than the corpus")
    return docs


@dataclass(frozen=True)
class CorpusStats:
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
    stats = CorpusStats()
    for u in corpus.units:
        nw, nc = len(u.words), len(u.text)
        if u.is_su:
            stats += CorpusStats(
                su_count=1, word_b=1, word_i=nw - 1, char_b=1, char_i=nc - 1
            )
        else:
            stats += CorpusStats(nsu_count=1, word_o=nw, char_o=nc)
    return stats
