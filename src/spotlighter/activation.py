"""Per-token activation scoring, top-k style selection, and the two-tier
stratification of the selected tokens.

Selection variants mirror the degradation studies: keep the k best scores
(`top-k`, the production path), keep the k worst (`bottom-k`), or drop the k
best and keep the rest (`remove-top-k`). All orderings break ties toward the
lower token index.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySelection, KOutOfRange, ZeroVector
from .numerics import cosine_matrix

VARIANT_TOP = "top-k"
VARIANT_BOTTOM = "bottom-k"
VARIANT_REMOVE_TOP = "remove-top-k"
VARIANTS = (VARIANT_TOP, VARIANT_BOTTOM, VARIANT_REMOVE_TOP)


def sample_scores(visual_tokens: np.ndarray, text_embedding: np.ndarray) -> np.ndarray:
    """Cosine of each token against one class text embedding."""
    text_embedding = np.asarray(text_embedding, dtype=np.float64)
    if text_embedding.ndim != 1:
        raise ZeroVector("text embedding must be a single vector")
    return cosine_matrix(visual_tokens, text_embedding[None, :])[:, 0]


def semantic_scores(visual_tokens: np.ndarray, class_protos: np.ndarray) -> np.ndarray:
    """Best prototype cosine per token for one category's prototypes."""
    return cosine_matrix(visual_tokens, class_protos).max(axis=1)


def combine_scores(sample: np.ndarray, semantic: np.ndarray | None,
                   semantic_on: bool) -> np.ndarray:
    if semantic_on:
        if semantic is None:
            raise ValueError("semantic scores required when semantic_on")
        return sample + semantic
    return sample.copy()


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


def stratify(selected: np.ndarray, combined: np.ndarray, tokens: np.ndarray,
             class_protos: np.ndarray, recalc_on: bool):
    """Split the selected tokens into a high tier and a low tier.

    Ranking uses the combined scores, or — when recalc_on — semantic scores
    recomputed against the supplied (current) class prototypes. Tier 1 takes
    the top ceil(m/2) of the m selected tokens, tier 2 the remainder; both
    are index lists into the original token array.
    """
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size == 0:
        raise EmptySelection("no tokens selected")
    if recalc_on:
        ranking = semantic_scores(tokens[selected], class_protos)
    else:
        ranking = np.asarray(combined, dtype=np.float64)[selected]
    order = np.lexsort((selected, -ranking))
    n1 = (selected.size + 1) // 2
    return selected[order[:n1]], selected[order[n1:]]
