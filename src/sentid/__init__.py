"""sentid: sentential-unit identification for noisy text.

Extracts sentence spans by combining per-token begin-of-sentence and
end-of-sentence probabilities in a dynamic program, with the supporting
pipeline: treebank conversion, label algebra, a trainable probability
model, data augmentation, and evaluation.
"""

from .augment import AugmentConfig, TrainingExample, concat_units, sample_length, truncate_edges
from .corpus import (
    Corpus,
    CorpusStats,
    RelationRuleSet,
    Unit,
    classify_unit,
    compute_stats,
    convert_treebank,
    gold_word_labels,
    parse_conllu,
)
from .decode import (
    DecoderConfig,
    SpanResult,
    decode_document,
    identify,
    segment_eos_only,
)
from .evaluation import AggregateReport, EvalReport, aggregate, bio_f1, evaluate_documents, span_f1
from .labels import (
    BoundarySeq,
    LabelSeq,
    bio_to_boundaries,
    boundaries_to_bio,
    chars_to_coarse,
    coarse_to_chars,
)
from .model import (
    ClassifierModel,
    InterpConfig,
    ModelConfig,
    ProbMatrix,
    interpolate,
    predict,
    train,
)
from .pipeline import PipelineConfig, load_config, run_pipeline

__version__ = "0.1.0"
