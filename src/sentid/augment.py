"""Training/evaluation input assembly: concatenation, augmentation, truncation.

Inputs are built by joining L consecutive corpus units, L drawn from a
geometric distribution with parameter p_cc (p_cc = 0 means "as many units as
fit").  Units are optionally perturbed before joining (re-casing or stripping
trailing end punctuation), and the assembled example's edge units may be
truncated, in which case the fragment no longer counts as sentential.  An
example holds its words and its units' provenance; its gold flags are derived
from the provenance alone, by the rule of `corpus.unit_spans`.
"""

import json
import sys
from dataclasses import dataclass, replace
from itertools import islice
from operator import sub

import numpy as np

from .corpus import Corpus, Unit, unit_spans
from .fileio import atomic_open
from .labels import BoundarySeq, spans_to_boundaries

# sample_length result when p_cc == 0: concatenate to the maximum.
UNBOUNDED_LENGTH = sys.maxsize

DEFAULT_PUNCT = ".?!\")'"
DEFAULT_END_PUNCT = ".?!"

CASING_TRANSFORMS = ("lower", "upper", "title")
TRANSFORMS = CASING_TRANSFORMS + ("strip_punct",)


@dataclass(frozen=True)
class AugmentConfig:
    """Concatenation, augmentation and truncation probabilities, and the example token cap."""

    p_cc: float = 0.5
    p_da: float = 0.3
    p_tr: float = 0.1
    max_tokens: int = 512
    punct_set: str = DEFAULT_PUNCT
    end_punct_set: str = DEFAULT_END_PUNCT

    def __post_init__(self):
        for name in ("p_cc", "p_da", "p_tr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} not in [0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be positive")
        extra = set(self.end_punct_set) - set(self.punct_set)
        if extra:
            raise ValueError(f"end punctuation {sorted(extra)} missing from punct_set")


@dataclass(frozen=True)
class UnitProvenance:
    """The corpus unit behind a run of an example's tokens, with its SU flag and transforms."""

    unit_index: int
    token_count: int
    is_su: bool
    transforms: tuple = ()

    def __len__(self) -> int:
        return self.token_count


@dataclass(frozen=True)
class TrainingExample:
    """One training or evaluation example: its words and the provenance of each unit in them."""

    words: tuple
    provenance: tuple

    def __len__(self) -> int:
        return len(self.words)

    @property
    def gold(self) -> BoundarySeq:
        """Flags bounding the SU spans of the provenance, whose token counts sum to len(words)."""
        return spans_to_boundaries(len(self.words), unit_spans(self.provenance))


def sample_length(cfg: AugmentConfig, rng: np.random.Generator) -> int:
    """L ~ Geometric(p_cc) on {1, 2, ...}; UNBOUNDED_LENGTH when p_cc == 0."""
    if cfg.p_cc == 0.0:
        return UNBOUNDED_LENGTH
    return int(rng.geometric(cfg.p_cc))


def strip_end_punctuation(word: str, punct: str, end_punct: str) -> str:
    """Drop the trailing punctuation run when it starts with an end mark."""
    i = len(word)
    while i > 0 and word[i - 1] in punct:
        i -= 1
    if i < len(word) and word[i] in end_punct:
        return word[:i]
    return word


def _word_gaps(unit: Unit) -> list[int]:
    offs = unit.offsets
    # each word's start less the end of the word before it
    return list(map(sub, offs[2::2], offs[1::2]))


def _rebuild_unit(words, gaps, is_su: bool) -> Unit:
    # Separator characters are normalized to spaces of the recorded widths.
    text = ""
    offsets = []
    for w, gap in zip(words, [*gaps, 0]):
        offsets += (len(text), len(text) + len(w))
        text += w + " " * gap
    return Unit(text=text, words=tuple(words), is_su=is_su, offsets=tuple(offsets))


def _apply_transform(unit: Unit, name: str, cfg: AugmentConfig) -> Unit:
    gaps = _word_gaps(unit)
    if name == "lower":
        words = [w.lower() for w in unit.words]
    elif name == "upper":
        words = [w.upper() for w in unit.words]
    elif name == "title":
        words = [w.capitalize() for w in unit.words]
    else:  # strip_punct: operates on the final word only (a unit has at least one)
        stripped = strip_end_punctuation(unit.words[-1], cfg.punct_set, cfg.end_punct_set)
        if stripped == unit.words[-1]:
            return unit
        words = list(unit.words[:-1])
        if stripped:
            words.append(stripped)
        else:
            gaps = gaps[:-1]  # final word emptied: drop it and its gap
        if not words:
            return unit  # refuse to empty the unit entirely
    return _rebuild_unit(words, gaps, unit.is_su)


def augment_unit(unit: Unit, cfg: AugmentConfig, rng: np.random.Generator) -> tuple:
    """With probability p_da apply one uniformly chosen transform.

    Returns (unit, transform name), the name None when the unit is unchanged.
    """
    if rng.random() >= cfg.p_da:
        return unit, None
    name = TRANSFORMS[int(rng.integers(0, len(TRANSFORMS)))]
    return _apply_transform(unit, name, cfg), name


def _assemble(units, start: int, transforms, cfg: AugmentConfig) -> TrainingExample:
    """Join consecutive units, the first of them unit `start`, under the token cap.

    Units are taken up to the first that does not fit.  A first unit longer
    than the cap keeps its head, and the clipped tail is treated like a
    truncation: the fragment is no longer sentential.
    """
    words = []
    provenance = []
    for k, u in enumerate(units):
        room = cfg.max_tokens - len(words)
        if room == 0 or provenance and len(u.words) > room:
            break
        names = (transforms[k],) if transforms and transforms[k] else ()
        is_su = u.is_su
        if len(u.words) > room:
            is_su, names = False, names + ("clip_tail",)
        words += u.words[:room]
        provenance.append(UnitProvenance(start + k, min(len(u.words), room), is_su, names))
    return TrainingExample(tuple(words), tuple(provenance))


def concat_units(corpus: Corpus, start_index: int, L: int, cfg: AugmentConfig) -> TrainingExample:
    """Join up to L consecutive units starting at start_index (no transforms)."""
    if not 0 <= start_index < len(corpus.units):
        raise IndexError(f"start_index {start_index} out of range")
    return _assemble(corpus.units[start_index : start_index + L], start_index, None, cfg)


def _cut(provenance: UnitProvenance, n: int, name: str) -> UnitProvenance:
    """The unit less `n` words cut off one edge: a fragment, no longer sentential."""
    return replace(
        provenance,
        token_count=provenance.token_count - n,
        is_su=False,
        transforms=provenance.transforms + (name,),
    )


def truncate_edges(
    example: TrainingExample, cfg: AugmentConfig, rng: np.random.Generator
) -> TrainingExample:
    """Randomly truncate the first/last unit, relabeling fragments NSU.

    Head truncation picks a word in the first unit and drops everything
    before it; tail truncation picks a word in the last unit and drops
    everything after.  A draw that removes nothing leaves the unit intact.
    """
    words, prov = example.words, example.provenance
    if not words:
        return example
    if rng.random() < cfg.p_tr:
        n = int(rng.integers(0, prov[0].token_count))
        if n:
            words, prov = words[n:], (_cut(prov[0], n, "truncate_head"),) + prov[1:]
    if rng.random() < cfg.p_tr:
        n = prov[-1].token_count - 1 - int(rng.integers(0, prov[-1].token_count))
        if n:
            words, prov = words[:-n], prov[:-1] + (_cut(prov[-1], n, "truncate_tail"),)
    return TrainingExample(words, prov)


def example_stream(corpus: Corpus, cfg: AugmentConfig, seed: int, epoch: int = 0, augment: bool = True):
    """One deterministic pass over the corpus, keyed by (seed, epoch).

    Each step draws L, joins the next L units (augmented per-unit when
    `augment`), truncates edges, and yields the example; the cursor advances
    by the number of units actually used.  An unbounded L takes at most
    `max_tokens` units: each holds a word, so no later unit fits.
    """
    rng = np.random.default_rng((seed, epoch))
    units = corpus.units
    cursor = 0
    while cursor < len(units):
        length = sample_length(cfg, rng)
        if length == UNBOUNDED_LENGTH:
            length = cfg.max_tokens
        window = units[cursor : cursor + length]
        transforms = None
        if augment:
            window, transforms = zip(*(augment_unit(u, cfg, rng) for u in window))
        example = _assemble(window, cursor, transforms, cfg)
        if augment:
            example = truncate_edges(example, cfg, rng)
        cursor += len(example.provenance)
        if example.words:
            yield example


def generate_examples(corpus: Corpus, cfg: AugmentConfig, seed: int, count: int):
    """Exactly `count` examples, wrapping over fresh epochs as needed."""
    out = []
    epoch = 0
    while len(out) < count:
        before = len(out)
        out += islice(example_stream(corpus, cfg, seed, epoch), count - before)
        if len(out) == before:
            raise ValueError("corpus yields no examples")
        epoch += 1
    return out


def write_examples(path, examples) -> None:
    with atomic_open(path) as f:
        for ex in examples:
            gold = ex.gold
            rec = {
                "words": list(ex.words),
                "bos": gold.bos_indices,
                "eos": gold.eos_indices,
                "provenance": [
                    {
                        "unit": p.unit_index,
                        "tokens": p.token_count,
                        "is_su": p.is_su,
                        "transforms": list(p.transforms),
                    }
                    for p in ex.provenance
                ],
            }
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")
