"""Spotlighter: representative-token mining for prompt-tuned classification
on pre-extracted (or synthetic) token features.

The library selects the most activated visual tokens per item, refines them
through a momentum-updated semantic memory bank, fuses prototypes and tokens
into compact representative sets, and classifies with only those — trading
token count for throughput without giving up accuracy.
"""

from .activation import sample_scores, select_activated, semantic_scores, stratify
from .config import RunConfig
from .errors import SpotlighterError
from .features import FeatureSet, SynthSpec, generate_base_novel, generate_episode, read_features, write_features
from .memory_bank import Assignment, MemoryBank, assign_tokens, init_bank, local_loss, match_class, momentum_update
from .numerics import (
    TransformerBlockParams,
    cosine_matrix,
    grad_check,
    kl_divergence,
    l2_normalize,
    softmax,
)
from .objectives import LossBreakdown, LossWeights, total_loss
from .pipeline import (
    Metrics,
    ThroughputReport,
    TrainedState,
    bench_throughput,
    evaluate,
    gradcheck_total_loss,
    harmonic_mean,
    load_state,
    make_eval_class_set,
    predict,
    predict_batch,
    save_state,
    train,
)
from .representative import FrozenTheta, FusionParams, reps_fwd, trainable_param_count

__version__ = "0.1.0"
