"""Per-token activation scoring, top-k style selection, and the two-tier
stratification of the selected tokens.

Selection variants mirror the degradation studies: keep the k best scores
(`top-k`, the production path), keep the k worst (`bottom-k`), or drop the k
best and keep the rest (`remove-top-k`). All orderings break ties toward the
lower token index. The tier rule lives here too: the tier modes, the tiers
each reads (`reads`), the tier sizes and the kept-token check.

Scoring and stratification also take stacked (N, n, d) items with per-item
text rows and prototypes; selection takes one item's score vector.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimMismatch, EmptySelection, KOutOfRange
from .numerics import cosine_matrix

VARIANT_TOP = "top-k"
VARIANT_BOTTOM = "bottom-k"
VARIANT_REMOVE_TOP = "remove-top-k"
VARIANTS = (VARIANT_TOP, VARIANT_BOTTOM, VARIANT_REMOVE_TOP)

# tier mode -> the tiers it classifies from (0 high, 1 low)
_TIERS_READ = {"both": (0, 1), "lev1": (0,), "lev2": (1,)}
TIER_MODES = tuple(_TIERS_READ)


def sample_scores(visual_tokens: np.ndarray, text_embedding: np.ndarray) -> np.ndarray:
    """Cosine of each token against its item's class text embedding."""
    text_embedding = np.asarray(text_embedding, dtype=np.float64)
    if text_embedding.ndim != np.ndim(visual_tokens) - 1:
        raise DimMismatch("text embedding must be a single vector per item")
    return cosine_matrix(visual_tokens, text_embedding[..., None, :])[..., 0]


def semantic_scores(visual_tokens: np.ndarray, class_protos: np.ndarray) -> np.ndarray:
    """Best prototype cosine per token for its item's category prototypes."""
    return cosine_matrix(visual_tokens, class_protos).max(axis=-1)


def combine_scores(sample: np.ndarray, semantic: np.ndarray | None) -> np.ndarray:
    """Sample plus semantic scores; the sample scores alone when the semantic
    view is off (None)."""
    return sample if semantic is None else sample + semantic


def _order_desc(scores: np.ndarray) -> np.ndarray:
    # stable sort on negated scores: equal scores keep ascending index order
    return np.argsort(-scores, kind="stable")


def select_activated(scores: np.ndarray, k: int, variant: str = VARIANT_TOP) -> np.ndarray:
    """Indices retained by the chosen variant.

    top-k: k largest, descending score; bottom-k: k smallest, ascending;
    remove-top-k: everything but the k largest, descending among the kept.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    if variant == VARIANT_TOP:
        return _order_desc(scores)[:k]
    if variant == VARIANT_BOTTOM:
        return np.argsort(scores, kind="stable")[:k]
    if variant == VARIANT_REMOVE_TOP:
        return _order_desc(scores)[k:]
    raise ValueError(f"unknown selection variant {variant!r}")


def kept_count(n_tok: int, k: int, variant: str) -> int:
    """Number of tokens `select_activated` keeps: n_tok - k for remove-top-k,
    else k."""
    return n_tok - k if variant == VARIANT_REMOVE_TOP else k


def tier_sizes(m: int) -> tuple:
    """(high, low) tier sizes of m kept tokens: ceil(m/2) and floor(m/2)."""
    n1 = (m + 1) // 2
    return n1, m - n1


def reads(tier_mode: str, tier: int) -> bool:
    """Whether the tier mode classifies from tier `tier` (0 high, 1 low)."""
    return tier in _TIERS_READ[tier_mode]


def check_selection(n_tok: int, k: int, variant: str, tier_mode: str) -> None:
    """Reject an unknown tier mode, a k outside [1, n_tok], or a selection
    whose kept tokens leave the tiers the mode reads empty."""
    if tier_mode not in TIER_MODES:
        raise ConfigError(f"tier_mode {tier_mode!r} not in {TIER_MODES}")
    if not 1 <= k <= n_tok:
        raise KOutOfRange(f"k={k} outside [1, {n_tok}]")
    kept = kept_count(n_tok, k, variant)
    if not any(reads(tier_mode, t) and m for t, m in enumerate(tier_sizes(kept))):
        raise ConfigError(f"{variant} with k={k} of {n_tok} tokens keeps {kept}, "
                          f"too few for tier mode {tier_mode}")


def stratify(selected: np.ndarray, combined: np.ndarray, tokens: np.ndarray,
             class_protos: np.ndarray, recalc_on: bool):
    """Split the selected tokens into a high tier and a low tier.

    Ranking uses the combined scores, or — when recalc_on — semantic scores
    recomputed against the supplied (current) class prototypes. Tier 1 takes
    the best-ranked of the m selected tokens, tier 2 the remainder; both
    are index lists into the original token array (one row per item when the
    inputs are stacked); `tier_sizes` gives their lengths.
    """
    selected = np.asarray(selected, dtype=np.int64)
    if selected.shape[-1] == 0:
        raise EmptySelection("no tokens selected")
    if recalc_on:
        ranking = semantic_scores(np.take_along_axis(tokens, selected[..., None], axis=-2),
                                  class_protos)
    else:
        ranking = np.take_along_axis(np.asarray(combined, dtype=np.float64), selected, axis=-1)
    ranked = np.take_along_axis(selected, np.lexsort((selected, -ranking), axis=-1), axis=-1)
    n1, _ = tier_sizes(selected.shape[-1])
    return ranked[..., :n1], ranked[..., n1:]
