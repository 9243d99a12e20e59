"""Training/evaluation input assembly: concatenation, augmentation, truncation.

Inputs are built by joining L consecutive corpus units, L drawn from a
geometric distribution with parameter p_cc (p_cc = 0 means "as many units as
fit").  Units are optionally perturbed before joining (re-casing or stripping
trailing end punctuation), and the assembled example's edge units may be
truncated, in which case the fragment no longer counts as sentential.  An
example's gold flags come from its units' provenance alone, by the rule of
`corpus.unit_spans`.
"""

import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, Unit, unit_spans
from .fileio import atomic_open
from .labels import BoundarySeq

# sample_length result when p_cc == 0: concatenate to the maximum.
UNBOUNDED_LENGTH = sys.maxsize

DEFAULT_PUNCT = ".?!\")'"
DEFAULT_END_PUNCT = ".?!"

CASING_TRANSFORMS = ("lower", "upper", "title")
TRANSFORMS = CASING_TRANSFORMS + ("strip_punct",)


@dataclass(frozen=True)
class AugmentConfig:
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
    unit_index: int
    token_count: int
    is_su: bool
    transforms: tuple = ()

    def __len__(self) -> int:
        return self.token_count


@dataclass(frozen=True)
class TrainingExample:
    words: tuple
    gold: BoundarySeq
    provenance: tuple

    def __len__(self) -> int:
        return len(self.words)


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
    offs = unit.char_offsets
    return [offs[i + 1][0] - offs[i][1] for i in range(len(offs) - 1)]


def _rebuild_unit(words, gaps, is_su: bool) -> Unit:
    # Separator characters are normalized to spaces of the recorded widths.
    parts = []
    offsets = []
    cursor = 0
    for i, w in enumerate(words):
        offsets.append((cursor, cursor + len(w)))
        parts.append(w)
        cursor += len(w)
        if i < len(words) - 1:
            parts.append(" " * gaps[i])
            cursor += gaps[i]
    return Unit(
        text="".join(parts), words=tuple(words), is_su=is_su, char_offsets=tuple(offsets)
    )


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


def _example(words, provenance) -> TrainingExample:
    """The example of `words`, its gold flags bounding the SU spans of `provenance`."""
    bos = np.zeros(len(words), dtype=bool)
    eos = np.zeros(len(words), dtype=bool)
    for start, end in unit_spans(provenance):
        bos[start] = eos[end - 1] = True
    return TrainingExample(tuple(words), BoundarySeq(bos, eos), tuple(provenance))


def _assemble(units, unit_indices, transforms, cfg: AugmentConfig) -> TrainingExample:
    """Join units under the token cap, reducing the unit count if needed."""
    used = []
    total = 0
    for u in units:
        if used and total + len(u.words) > cfg.max_tokens:
            break
        used.append(u)
        total += len(u.words)
        if total >= cfg.max_tokens:
            break

    words = []
    provenance = []
    clipped = False
    for k, u in enumerate(used):
        u_words = list(u.words)
        u_transforms = (transforms[k],) if transforms and transforms[k] else ()
        is_su = u.is_su
        room = cfg.max_tokens - len(words)
        if len(u_words) > room:
            # single oversize unit: keep the head, treat the clipped tail
            # like a truncation (the fragment is no longer sentential)
            u_words = u_words[:room]
            is_su = False
            clipped = True
            u_transforms = u_transforms + ("clip_tail",)
        words.extend(u_words)
        provenance.append(
            UnitProvenance(
                unit_index=unit_indices[k],
                token_count=len(u_words),
                is_su=is_su,
                transforms=u_transforms,
            )
        )
        if clipped:
            break
    return _example(words, provenance)


def concat_units(corpus: Corpus, start_index: int, L: int, cfg: AugmentConfig) -> TrainingExample:
    """Join up to L consecutive units starting at start_index (no transforms)."""
    if not 0 <= start_index < len(corpus.units):
        raise IndexError(f"start_index {start_index} out of range")
    stop = min(start_index + L, len(corpus.units))
    units = corpus.units[start_index:stop]
    return _assemble(units, list(range(start_index, stop)), None, cfg)


def truncate_edges(
    example: TrainingExample, cfg: AugmentConfig, rng: np.random.Generator
) -> TrainingExample:
    """Randomly truncate the first/last unit, relabeling fragments NSU.

    Head truncation picks a word in the first unit and drops everything
    before it; tail truncation picks a word in the last unit and drops
    everything after.  A draw that removes nothing leaves the unit intact.
    """
    if not example.words:
        return example
    if rng.random() < cfg.p_tr:
        first = example.provenance[0]
        j = int(rng.integers(0, first.token_count))
        if j > 0:
            prov = (
                replace(
                    first,
                    token_count=first.token_count - j,
                    is_su=False,
                    transforms=first.transforms + ("truncate_head",),
                ),
            ) + example.provenance[1:]
            example = _example(example.words[j:], prov)
    if rng.random() < cfg.p_tr:
        last = example.provenance[-1]
        j = int(rng.integers(0, last.token_count))
        dropped = last.token_count - 1 - j
        if dropped > 0:
            prov = example.provenance[:-1] + (
                replace(
                    last,
                    token_count=last.token_count - dropped,
                    is_su=False,
                    transforms=last.transforms + ("truncate_tail",),
                ),
            )
            example = _example(example.words[: len(example.words) - dropped], prov)
    return example


def example_stream(corpus: Corpus, cfg: AugmentConfig, seed: int, epoch: int = 0, augment: bool = True):
    """One deterministic pass over the corpus, keyed by (seed, epoch).

    Each step draws L, joins the next L units (augmented per-unit when
    `augment`), truncates edges, and yields the example; the cursor advances
    by the number of units actually used.
    """
    rng = np.random.default_rng((seed, epoch))
    units = corpus.units
    cursor = 0
    while cursor < len(units):
        L = sample_length(cfg, rng)
        stop = min(cursor + L, len(units))
        window = units[cursor:stop]
        transforms = None
        if augment:
            pairs = [augment_unit(u, cfg, rng) for u in window]
            window = [p[0] for p in pairs]
            transforms = [p[1] for p in pairs]
        example = _assemble(window, list(range(cursor, stop)), transforms, cfg)
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
        produced = False
        for ex in example_stream(corpus, cfg, seed, epoch):
            produced = True
            out.append(ex)
            if len(out) == count:
                return out
        if not produced:
            raise ValueError("corpus yields no examples")
        epoch += 1
    return out


def write_examples(path, examples) -> None:
    with atomic_open(path) as f:
        for ex in examples:
            rec = {
                "words": list(ex.words),
                "bos": ex.gold.bos_indices,
                "eos": ex.gold.eos_indices,
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
