"""Begin/end-of-sentence probability models.

The trainable model is a set of logistic heads over hashed character n-gram
and word-shape features gathered from a token window.  Bidirectional heads
see both sides of the focus token; the unidirectional begin head sees only
the focus and its right context, the unidirectional end head only the focus
and its left context.  Externally computed probabilities can be loaded from
tab-separated probability files instead.
"""

import json
import re
import warnings
import zlib
from dataclasses import asdict, dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _kernels
from .augment import DEFAULT_END_PUNCT, DEFAULT_PUNCT, AugmentConfig, example_stream
from .corpus import Corpus, unit_spans
from .fileio import atomic_open, check_types
from .labels import spans_to_boundaries

MODEL_FORMAT = "sentid-model"
# The version of the model file layout (see `save_model`).  A model's weights
# are only valid with the featuriser that trained them, so this version also
# versions `token_base_features`, `_PAD_HASH` and the window mixing of
# `_kernels.window_indices`: bump it when the layout or any of them changes.
# `load_model` rejects any other version, and the pipeline's model cache key
# includes it.
MODEL_VERSION = 2

HEAD_NAMES = ("bos_bi", "eos_bi", "bos_uni", "eos_uni")

SIDE_WINDOWS = {"both": (-1, 1), "left_only": (-1, 0), "right_only": (0, 1)}
HEAD_SIDES = {"bos_bi": "both", "eos_bi": "both", "bos_uni": "right_only", "eos_uni": "left_only"}

_PAD_HASH = np.uint64(zlib.crc32(b"<pad>"))


class ProbFileError(ValueError):
    pass


_PROB_COLUMNS = ("p_bos", "p_eos", "p_bos_uni", "p_eos_uni")


@dataclass(frozen=True)
class ProbMatrix:
    p_bos: np.ndarray
    p_eos: np.ndarray
    p_bos_uni: Optional[np.ndarray] = None
    p_eos_uni: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in _PROB_COLUMNS:
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=np.float64)
            object.__setattr__(self, name, v)
            if v.ndim != 1 or len(v) != len(self.p_bos):
                raise ValueError(f"{name} must be a vector of length {len(self.p_bos)}")
            # written so that NaN fails too: every comparison with NaN is false
            if not np.all((v >= 0.0) & (v <= 1.0)):
                raise ValueError(f"{name} has entries outside [0, 1] or not finite")
        if (self.p_bos_uni is None) != (self.p_eos_uni is None):
            raise ValueError("unidirectional vectors must come in pairs")

    @property
    def n(self) -> int:
        return len(self.p_bos)

    @property
    def has_uni(self) -> bool:
        return self.p_bos_uni is not None


@dataclass(frozen=True)
class InterpConfig:
    """Mixing weight between unidirectional and bidirectional predictions."""

    lam: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lambda {self.lam} not in [0, 1]")


def interpolate(m: ProbMatrix, cfg: InterpConfig) -> ProbMatrix:
    """lam * unidirectional + (1 - lam) * bidirectional, per position."""
    if not m.has_uni:
        raise ValueError("probability matrix lacks unidirectional vectors")
    lam = cfg.lam
    return ProbMatrix(
        p_bos=lam * m.p_bos_uni + (1.0 - lam) * m.p_bos,
        p_eos=lam * m.p_eos_uni + (1.0 - lam) * m.p_eos,
    )


@dataclass(frozen=True)
class ModelConfig:
    window_radius: int = 5
    ngram_orders: tuple = (1, 2, 3, 4)
    hash_dim: int = 2**18
    max_word_chars: int = 16
    epochs: int = 5
    learning_rate: float = 0.2
    lr_decay: float = 0.9
    include_uni: bool = False

    def __post_init__(self):
        check_types(ModelConfig, vars(self))
        orders = self.ngram_orders
        if not (
            isinstance(orders, (list, tuple)) and all(type(k) is int and k >= 1 for k in orders)
        ):
            raise ValueError(f"ngram_orders must be a list of integers >= 1, got {orders!r}")
        object.__setattr__(self, "ngram_orders", tuple(orders))
        # row numbers of the model's row map are int32
        if not 1 <= self.hash_dim <= 2**30 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError(f"hash_dim must be a power of two up to 2**30, got {self.hash_dim}")
        if self.window_radius < 0:
            raise ValueError("window_radius must be non-negative")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs!r}")
        if not 0.0 < self.learning_rate < float("inf"):  # also false for NaN
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay!r}")

    @property
    def head_names(self) -> tuple:
        return HEAD_NAMES if self.include_uni else HEAD_NAMES[:2]


def _word_shape(w: str, cap: int = 8) -> str:
    out = []
    for ch in w:
        c = "X" if ch.isupper() else "x" if ch.islower() else "d" if ch.isdigit() else "p"
        if not out or out[-1] != c:
            out.append(c)
        if len(out) >= cap:
            break
    return "".join(out)


def token_base_features(w: str, cfg: ModelConfig) -> list[str]:
    """Deterministic string features of one token (position-independent)."""
    feats = [f"w={w.lower()}"]
    padded = "^" + w[: cfg.max_word_chars].lower() + "$"
    for k in cfg.ngram_orders:
        for i in range(len(padded) - k + 1):
            feats.append(f"g{k}={padded[i:i + k]}")
    feats.append(f"sh={_word_shape(w)}")
    feats.append(f"len={min(len(w), 10)}")
    flags = {
        "isupper": w.isupper() and len(w) > 1,
        "istitle": w.istitle(),
        "islower": w.islower(),
        "hasdigit": any(ch.isdigit() for ch in w),
        "ispunct": w and all(not ch.isalnum() for ch in w),
        "endsP": w and w[-1] in DEFAULT_PUNCT,
        "endsPe": w and w[-1] in DEFAULT_END_PUNCT,
    }
    return feats + [name for name, on in flags.items() if on]


class _TokenHasher:
    """Caches the base hash vector of each distinct token string."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.cache: dict[str, np.ndarray] = {}

    def __call__(self, w: str) -> np.ndarray:
        h = self.cache.get(w)
        if h is None:
            features = token_base_features(w, self.cfg)
            h = self.cache[w] = np.array(
                [zlib.crc32(f.encode("utf-8")) for f in features], np.uint64
            )
        return h

    def csr(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        rows = [self(w) for w in words]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        return np.concatenate([np.empty(0, np.uint64), *rows]), indptr


# A group gathers consecutive documents until it holds this many tokens, so
# that the fixed cost of each numpy call is paid per group, not per document,
# while peak memory stays bounded by the longer of one group and the longest
# document.
_GROUP_TOKENS = 128


def _groups(items: Iterable, words) -> Iterator[list]:
    """Consecutive runs of `items` holding at least _GROUP_TOKENS words each.

    `words(item)` is an item's document.  A document of _GROUP_TOKENS words
    or more forms its own group; the last group may be smaller.
    """
    group, size = [], 0
    for item in items:
        n = len(words(item))
        if group and n >= _GROUP_TOKENS:
            yield group
            group, size = [], 0
        group.append(item)
        size += n
        if size >= _GROUP_TOKENS:
            yield group
            group, size = [], 0
    if group:
        yield group


def _group_rows(
    hasher: _TokenHasher, docs: Sequence[Sequence[str]], sides: Iterable[str], cfg: ModelConfig
) -> dict:
    """CSR feature indices of every token of `docs`, in order, mixed once per distinct side.

    The kernel is told where each document ends, and a window that runs past
    its document's edge sees the pad hash at each offset outside it, so every
    token's row equals its row in a document of its own.
    """
    lengths = [len(d) for d in docs]
    hashes, tok_ptr = hasher.csr([w for d in docs for w in d])
    n = len(tok_ptr) - 1
    mask = np.uint64(cfg.hash_dim - 1)
    out = {}
    for side in sides:
        if side not in out:
            lo, hi = (k * cfg.window_radius for k in SIDE_WINDOWS[side])
            out[side] = _kernels.window_indices(hashes, tok_ptr, n, lo, hi, mask, _PAD_HASH, lengths)
    return out


@dataclass
class ClassifierModel:
    """The heads' weights, held by the indices where some head's weight is nonzero.

    `rows` (int32, `hash_dim + 1` entries) maps each weight index to a row of
    every head's column: row 0 holds 0 in every head, rows 1 to k the k
    feature indices at which some head's weight is nonzero by its bits, in
    increasing order, and row k + 1 the bias (index `hash_dim`).  `columns`
    maps each head to its k + 2 float64 weights, so its weight at index i is
    ``columns[name][rows[i]]``.
    """

    config: ModelConfig
    seed: int
    rows: np.ndarray
    columns: dict

    @property
    def head_names(self) -> tuple:
        return self.config.head_names


def train(
    corpus: Corpus,
    augment_cfg: AugmentConfig = AugmentConfig(),
    seed: int = 0,
    model_cfg: ModelConfig = ModelConfig(),
) -> ClassifierModel:
    """SGD over per-token begin/end targets from freshly augmented inputs.

    Inputs are regenerated each epoch from a stream keyed by (seed, epoch),
    so the model sees a different concatenation and augmentation of the
    units in every pass.  Each head's updates run row by row, in stream
    order; the heads have separate weights and the rate is fixed within an
    epoch, so featurizing and updating a group of examples at a time gives
    the same weights as one example at a time.  Results are a pure function
    of (corpus, configs, seed).

    The heads train in the model's compact form.  A feature index gets the
    next row of the shared row map when a group first holds it.  Each
    head's column keeps row 0 at 0 and the bias in its last slot, and at
    least doubles when full.  At the end, the rows whose weight is zero by
    its bits in every head are dropped and the rest ordered by index, as
    `load_model` orders them.  A non-finite weight raises ValueError.
    """
    if not corpus.units:
        raise ValueError("cannot train on an empty corpus")
    size = model_cfg.hash_dim + 1
    # 0: not seen yet.  Filled now: a lazily zeroed page faults twice, on read and on write.
    rows = np.full(size, 0, dtype=np.int32)
    rows[-1] = -1  # the bias: the last slot of every column
    found = [[size - 1]]  # the indices with a row; the bias sorts last
    n = 0
    columns = {name: np.zeros(2) for name in model_cfg.head_names}
    hasher = _TokenHasher(model_cfg)
    sides = [HEAD_SIDES[name] for name in columns]
    # a rate that drives the weights out of range is refused below, by the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(model_cfg.epochs):
            lr = model_cfg.learning_rate * model_cfg.lr_decay**epoch
            stream = example_stream(corpus, augment_cfg, seed, epoch)
            for group in _groups(stream, lambda ex: ex.words):
                mapped = _group_rows(hasher, [ex.words for ex in group], sides, model_cfg)
                for side, (idx, ptr) in mapped.items():
                    r = rows[idx]
                    new = idx[r == 0]
                    # one position of each new index keeps the tag it writes
                    tags = np.arange(len(new))
                    rows[new] = tags
                    new_keys = new[rows[new] == tags]
                    rows[new_keys] = tags[: len(new_keys)] + n + 1
                    n += len(new_keys)
                    found.append(new_keys)
                    r[r == 0] = rows[new]
                    mapped[side] = r.astype(np.intp), ptr
                # an example's token counts sum to its word count: the units line up with the rows
                units = unit_spans(chain.from_iterable(ex.provenance for ex in group))
                gold = spans_to_boundaries(sum(map(len, group)), units)
                bos_t, eos_t = np.array([gold.bos_flags, gold.eos_flags], dtype=np.float64)
                for name, w in columns.items():
                    if len(w) < n + 2:  # up to a slot per index and the bias
                        room = np.zeros(min(2 * n + 4, size + 1) - len(w))
                        w = columns[name] = np.insert(w, -1, room)
                    targets = bos_t if name.startswith("bos") else eos_t
                    _kernels.sgd_rows(w, *mapped[HEAD_SIDES[name]], targets, lr)
    keys = np.sort(np.concatenate(found))
    slots = rows[keys]
    keep = np.logical_or.reduce([w[slots].view(np.int64) != 0 for w in columns.values()])
    keep[-1] = True
    rows[keys] = np.cumsum(keep) * keep  # the kept indices numbered in order, the rest 0
    slots = np.append(0, slots[keep])
    for name, w in columns.items():
        columns[name] = w = w[slots]
        if not np.isfinite(w).all():
            raise ValueError(
                f"non-finite weight in head {name} at learning_rate {model_cfg.learning_rate!r}"
            )
    return ClassifierModel(model_cfg, seed, rows, columns)


def predict(model: ClassifierModel, docs: Iterable[Sequence[str]]) -> list[ProbMatrix]:
    """Per-position sigmoid score of every head the model has, for each document.

    `docs` is a sequence of documents, each a sequence of words; the result
    holds one ProbMatrix per document, in order.  Documents are featurized
    and scored in groups, with one token hasher for the whole call; every
    score equals that of the document scored alone.
    """
    cfg = model.config
    hasher = _TokenHasher(cfg)
    sides = [HEAD_SIDES[name] for name in model.head_names]
    out = []
    for group in _groups(docs, lambda d: d):
        # each side's feature indices, mapped to rows of the heads' columns
        rows = {
            side: (model.rows[idx], ptr)
            for side, (idx, ptr) in _group_rows(hasher, group, sides, cfg).items()
        }
        bounds = np.cumsum([len(d) for d in group])[:-1]
        # head_names follow ProbMatrix's field order: bos_bi, eos_bi, bos_uni, eos_uni
        columns = [
            np.split(_kernels.score_rows(model.columns[name], *rows[HEAD_SIDES[name]]), bounds)
            for name in model.head_names
        ]
        out.extend(map(ProbMatrix, *columns))
    return out


def save_model(model: ClassifierModel, path) -> None:
    """Versioned binary: one JSON header line, then each head's nonzero weights.

    The header gives each head's count of nonzero weights.  Per head, in
    the order of the header's `heads`, follow that many increasing indices
    as ``<i8`` and then their weights as ``<f8``.  A weight is nonzero by its
    bit pattern, so -0.0 is stored too.
    """
    keys = np.flatnonzero(model.rows)  # the weight index of each row after row 0
    # each head's nonzero rows after row 0, as positions in `keys`
    nonzero = {
        name: np.flatnonzero(model.columns[name][1:].view(np.int64)) for name in model.head_names
    }
    header = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "config": asdict(model.config),
        "seed": model.seed,
        "heads": list(model.head_names),
        "nonzero": {name: len(idx) for name, idx in nonzero.items()},
    }
    with atomic_open(path, binary=True) as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name, at in nonzero.items():
            f.write(keys[at].astype("<i8", copy=False))
            f.write(model.columns[name][1:][at].astype("<f8", copy=False))


# Nonzero weights per read when `load_model` fills the columns.
_LOAD_BLOCK = 1 << 14


def load_model(path) -> ClassifierModel:
    """The model in a file written by `save_model`; ValueError naming `path` if it is malformed.

    One pass over the heads checks each and marks its indices, and a second
    fills the columns a block at a time, so no dense head is built and at
    most one head's indices and weights are held at once.
    """
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ValueError(f"{path}: not a model file: {exc}") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}: not a model file: header is not a JSON object")
        if header.get("format") != MODEL_FORMAT:
            raise ValueError(f"{path}: unexpected format {header.get('format')!r}")
        if header.get("version") != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
        try:
            cfg = ModelConfig(**header["config"])
            seed = header["seed"]
            if type(seed) is not int:
                raise ValueError(f"seed: expected int, got {seed!r}")
            if header["heads"] != list(cfg.head_names):
                raise ValueError(f"heads {header['heads']!r} do not match the config")
            counts = header["nonzero"]
            if not isinstance(counts, dict) or set(counts) != set(cfg.head_names):
                raise ValueError(f"nonzero counts {counts!r} do not match the heads")
            for name, count in counts.items():
                if type(count) is not int or not 0 <= count <= cfg.hash_dim + 1:
                    raise ValueError(f"nonzero count {count!r} of head {name}")
            counts = {name: counts[name] for name in cfg.head_names}  # in file order
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad model header: {exc!r}") from exc

        def read(name, count, dtype):
            out = np.empty(count, dtype=dtype)
            if f.readinto(out) != out.nbytes:
                raise ValueError(f"{path}: truncated weights for head {name}")
            return out

        start = f.tell()  # of the first head
        marks = np.zeros(cfg.hash_dim + 1, dtype=bool)
        marks[-1] = True  # the bias has a row in every model
        for name, count in counts.items():
            idx, values = read(name, count, "<i8"), read(name, count, "<f8")
            if (idx[1:] <= idx[:-1]).any():
                raise ValueError(f"{path}: indices of head {name} are not strictly increasing")
            if len(idx) and not 0 <= idx[0] <= idx[-1] <= cfg.hash_dim:
                raise ValueError(f"{path}: an index of head {name} is outside [0, {cfg.hash_dim}]")
            if not np.isfinite(values).all():
                raise ValueError(f"{path}: non-finite weight in head {name}")
            marks[idx] = True
            del idx, values  # before the next head is read
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last head")
        # the marked indices get rows 1, 2, ... in increasing order
        rows = np.zeros(len(marks), dtype=np.int32)
        rows[np.flatnonzero(marks)] = np.arange(1, np.count_nonzero(marks) + 1, dtype=np.int32)
        del marks
        columns = {}
        for name, count in counts.items():
            columns[name] = column = np.zeros(rows[-1] + 1)
            # a block of indices and then their weights at a time
            for lo in range(0, count, _LOAD_BLOCK):
                n = min(_LOAD_BLOCK, count - lo)
                f.seek(start + 8 * lo)
                at = rows[read(name, n, "<i8")]
                f.seek(start + 8 * (count + lo))
                column[at] = read(name, n, "<f8")
            start += 16 * count
    return ClassifierModel(cfg, seed, rows, columns)


# ---------------------------------------------------------------------------
# Probability files: one header line, one tab-separated row per token,
# documents separated by blank lines.
# ---------------------------------------------------------------------------


# The probability reader's column and line separators, which no token may hold.
_SEPARATOR = re.compile("[\t\n\r]")


def write_prob_documents(path, docs: Iterable[tuple[Sequence[str], ProbMatrix]]) -> None:
    docs = list(docs)
    uni = bool(docs) and all(m.has_uni for _, m in docs)
    with atomic_open(path) as f:
        f.write(f"#probs v1 uni={1 if uni else 0}\n")
        for d, (tokens, m) in enumerate(docs):
            if _SEPARATOR.search("".join(tokens)):  # one scan per document
                i = next(i for i, tok in enumerate(tokens) if _SEPARATOR.search(tok))
                raise ValueError(
                    f"document {d} row {i}: token {tokens[i]!r} holds a tab or line break"
                )
            if d:
                f.write("\n")
            columns = [getattr(m, name).tolist() for name in _PROB_COLUMNS[: 4 if uni else 2]]
            for i, row in enumerate(zip(*columns)):
                f.write("\t".join([str(i), tokens[i], *map(repr, row)]) + "\n")


# The column count of each header the reader accepts.
_PROB_HEADERS = {"#probs v1": 4, "#probs v1 uni=0": 4, "#probs v1 uni=1": 6}
# A row as the fast path parses it: the token is cut to one character, so no
# string is built for it, and numpy refuses a row of any other width.
_ROW_DTYPES = {
    ncols: np.dtype([("index", np.int64), ("token", "U1"), ("p", np.float64, (ncols - 2,))])
    for ncols in (4, 6)
}

# Characters of text per read of a probability file: the reader holds one
# batch of rows at a time, besides the documents it has parsed.
_BATCH_CHARS = 1 << 16


def _line_batches(stream) -> Iterator[list[str]]:
    """Lines of a text stream without their ends, about _BATCH_CHARS of text at a time.

    A line ends at "\n", "\r\n" or a lone "\r", whether or not the stream
    translates newlines itself (``sys.stdin`` does not).  Unlike
    ``str.splitlines()``, no other character ends a line, so a token that
    holds a form feed or U+2028 stays inside its row.  A batch ends at the
    end of a line.
    """
    while True:
        batch = stream.readlines(_BATCH_CHARS)
        if not batch:
            return
        text = "".join(batch)
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if text.endswith("\n"):
            lines.pop()
        yield lines


def _check_prob_rows(rows: list[str], lineno: int, ncols: int, first: int) -> np.ndarray:
    """The rows' probabilities, one array row per column, parsed a row at a time.

    Raises the error of the first malformed row; `lineno` is the first row's
    line number and `first` the index it must carry.  Runs only when the
    fast path refused the rows, which it also does for valid rows such as
    indices "01" or "+1", or values with underscores or non-ASCII digits.
    """
    values = []
    for i, line in enumerate(rows):
        row = lineno + i
        parts = line.split("\t")
        if len(parts) != ncols:
            raise ProbFileError(
                f"row {row}: expected {ncols} columns (uni={int(ncols == 6)}), got {len(parts)}"
            )
        try:
            idx = int(parts[0])
        except ValueError:
            raise ProbFileError(f"row {row}: bad index {parts[0]!r}") from None
        if idx != first + i:
            raise ProbFileError(f"row {row}: index {idx}, expected {first + i}")
        for name, text in zip(_PROB_COLUMNS, parts[2:]):
            try:
                v = float(text)
            except ValueError:
                raise ProbFileError(f"row {row}: {name} is not a number: {text!r}") from None
            if not 0.0 <= v <= 1.0:
                raise ProbFileError(f"row {row}: {name}={v} outside [0, 1]")
            values.append(v)
    return np.array(values).reshape(len(rows), ncols - 2).T


def _prob_rows(rows: list[str], lineno: int, ncols: int, first: int) -> np.ndarray:
    """The probabilities of a run of one document's rows, one array row per column.

    numpy's C reader parses the rows unless they hold a character that it
    reads otherwise than int() and float() do.  Rows it refuses, and rows
    that fail a check, go to `_check_prob_rows`.
    """
    text = "\n".join(rows)
    # numpy strips these around a number as whitespace; int() and float() refuse them
    if not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        # numpy's integer parser misreads non-ASCII characters.  A "?" for each
        # fails any number that held one, and tokens are not checked.
        if text.isascii():
            ascii_rows = rows
        else:
            ascii_rows = text.encode("ascii", "replace").decode("ascii").split("\n")
        try:
            with warnings.catch_warnings():
                # numpy < 2 parses an integer via a float ("1.0") with only a warning
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt(
                    ascii_rows, dtype=_ROW_DTYPES[ncols], delimiter="\t", comments=None,
                    quotechar=None, ndmin=1,
                )
        except (ValueError, DeprecationWarning):
            table = None
        # written so that NaN fails too
        if (
            table is not None
            and np.array_equal(table["index"], np.arange(first, first + len(rows)))
            and ((table["p"] >= 0.0) & (table["p"] <= 1.0)).all()
        ):
            return table["p"].T
    return _check_prob_rows(rows, lineno, ncols, first)


def iter_prob_documents(stream) -> list[ProbMatrix]:
    """Parse a probability file from a text stream into one matrix per document.

    The stream is read one line batch at a time, and the rows of each batch
    are parsed before the next batch is read, so a document longer than a
    batch is parsed in pieces and joined when it ends.  Besides the parsed
    documents, the reader holds one batch, however long a document is.
    Tokens are not kept.  Errors name the first malformed row in file order.
    """
    batches = _line_batches(stream)
    batch = next(batches, [""])
    header = batch[0]
    if not header.startswith("#probs v1"):
        raise ProbFileError("missing '#probs v1' header")
    if header not in _PROB_HEADERS:
        raise ProbFileError(
            f"bad header {header!r}: expected '#probs v1', optionally with uni=0 or uni=1"
        )
    ncols = _PROB_HEADERS[header]
    docs = []
    pieces = []  # probability columns of the current document's rows so far
    n_parsed = 0  # rows in those pieces
    lineno = 2  # line number of the batch's first line
    for batch in chain([batch[1:]], batches):
        start = 0
        for end in [i for i, line in enumerate(batch) if not line.strip()] + [len(batch)]:
            if start < end:
                pieces.append(_prob_rows(batch[start:end], lineno + start, ncols, n_parsed))
                n_parsed += end - start
            # a blank line ends the document; the end of the batch does not
            if end < len(batch) and pieces:
                docs.append(ProbMatrix(*np.concatenate(pieces, axis=1)))
                pieces, n_parsed = [], 0
            start = end + 1
        lineno += len(batch)
    if pieces:
        docs.append(ProbMatrix(*np.concatenate(pieces, axis=1)))
    return docs


def read_prob_matrices(stream, name: str) -> list[ProbMatrix]:
    """The matrix of each document of a probability file, from a text stream.

    Text that is not UTF-8 raises ProbFileError naming `name`: the file's
    path, or ``<stdin>``.
    """
    try:
        return iter_prob_documents(stream)
    except UnicodeDecodeError as exc:
        raise ProbFileError(f"{name}: {exc}") from exc
