"""Per-token activation scoring, top-k style selection, and the two-tier
stratification of the selected tokens.

Selection variants mirror the degradation studies: keep the k best scores
(`top-k`, the production path), keep the k worst (`bottom-k`), or drop the k
best and keep the rest (`remove-top-k`). All orderings break ties toward the
lower token index.

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


def check_selection(n_tok: int, k: int, variant: str, tier_mode: str) -> None:
    """Reject a k outside [1, n_tok], or one whose variant keeps no token, or
    fewer than two under "lev2" (tier 2 holds floor(m/2) of m kept tokens)."""
    if not 1 <= k <= n_tok:
        raise KOutOfRange(f"k={k} outside [1, {n_tok}]")
    kept = kept_count(n_tok, k, variant)
    if kept < (2 if tier_mode == "lev2" else 1):
        raise ConfigError(f"{variant} with k={k} of {n_tok} tokens keeps {kept}, "
                          f"too few for tier mode {tier_mode}")


def stratify(selected: np.ndarray, combined: np.ndarray, tokens: np.ndarray,
             class_protos: np.ndarray, recalc_on: bool):
    """Split the selected tokens into a high tier and a low tier.

    Ranking uses the combined scores, or — when recalc_on — semantic scores
    recomputed against the supplied (current) class prototypes. Tier 1 takes
    the top ceil(m/2) of the m selected tokens, tier 2 the remainder; both
    are index lists into the original token array (one row per item when the
    inputs are stacked).
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
    n1 = (selected.shape[-1] + 1) // 2
    return ranked[..., :n1], ranked[..., n1:]
