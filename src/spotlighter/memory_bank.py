"""Semantic memory bank: per-class prototype storage, soft/hard token
assignment, momentum refresh, and the local alignment loss.

Prototypes live in a (C, K, d) float64 tensor. Updates are functional: every
mutator returns a fresh bank so evaluation snapshots stay immutable. The
momentum rule for a touched prototype j of one category is

    u_j <- beta * u_j + (1 - beta) * sum_{i in bucket_j} D[i, j] * tok_i

followed by re-normalization to unit length; prototypes whose bucket is
empty are left bit-identical, as is the whole bank when beta == 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidK, LabelOutOfRange, ZeroVector
from .numerics import cosine_matrix, softmax_rows
from .rng import Stream

INIT_TEXT = "text"
INIT_RANDOM = "random"


@dataclass
class MemoryBank:
    """Per-class prototype matrices with momentum state."""

    prototypes: np.ndarray  # (C, K, d) float64
    beta: float

    def __post_init__(self):
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.prototypes.ndim != 3:
            raise DimMismatch("prototypes must be (C, K, d)")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1]")

    @property
    def n_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def n_prototypes(self) -> int:
        return self.prototypes.shape[1]

    @property
    def d(self) -> int:
        return self.prototypes.shape[2]

    def copy(self) -> "MemoryBank":
        return MemoryBank(self.prototypes.copy(), self.beta)


@dataclass
class Assignment:
    """Soft assignment D (rows sum to 1) and per-token argmax bucket."""

    D: np.ndarray      # (n, K)
    hard: np.ndarray   # (n,) int64


def init_bank(text_embeddings: np.ndarray, n_prototypes: int, mode: str,
              sigma: float, seed: int, beta: float = 0.8) -> MemoryBank:
    """Build a bank of K prototypes per class.

    text mode seeds prototype (c, k) with normalize(T_c + jitter); random mode
    draws independent unit vectors. Jitter uses the same width-calibrated
    convention as the feature generator (per-coordinate std sigma/sqrt(d)).
    """
    if n_prototypes < 1:
        raise InvalidK(f"K must be >= 1, got {n_prototypes}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    text = np.asarray(text_embeddings, dtype=np.float64)
    C, d = text.shape
    stream = Stream(seed)
    if mode == INIT_TEXT:
        raw = text[:, None, :] + sigma / np.sqrt(d) * stream.normals(C, n_prototypes, d)
    elif mode == INIT_RANDOM:
        raw = stream.normals(C, n_prototypes, d)
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ZeroVector("degenerate prototype seed")
    return MemoryBank(raw / norms, beta=beta)


def _class_scores(queries: np.ndarray, bank: MemoryBank) -> np.ndarray:
    """(n, C) best prototype cosine of each query row for each category."""
    sims = cosine_matrix(queries, bank.prototypes.reshape(-1, bank.d))
    return sims.reshape(-1, bank.n_classes, bank.n_prototypes).max(axis=-1)


def match_class(pooled_visual: np.ndarray, bank: MemoryBank):
    """Category whose best prototype is most cosine-similar to the query.

    A (d,) query gives an int; (N, d) queries give an (N,) array. Ties break
    to the lowest category index.
    """
    best = np.argmax(_class_scores(pooled_visual, bank), axis=-1)
    return int(best[0]) if np.ndim(pooled_visual) == 1 else best


def assign_tokens(tok_act: np.ndarray, class_protos: np.ndarray,
                  temperature: float) -> Assignment:
    """Soft-assign each activated token over one category's K prototypes."""
    D = softmax_rows(cosine_matrix(tok_act, class_protos), temperature)
    return Assignment(D=D, hard=np.argmax(D, axis=1).astype(np.int64))


def momentum_update(bank: MemoryBank, category: int, assignment: Assignment,
                    tok_act: np.ndarray) -> MemoryBank:
    """Momentum-refresh one category's prototypes; returns a new bank.

    Only prototypes with a nonempty bucket move; everything else (including
    the whole bank at beta == 1) is preserved bit-exactly.
    """
    tok_act = np.asarray(tok_act, dtype=np.float64)
    K, d = bank.n_prototypes, bank.d
    if tok_act.ndim != 2 or tok_act.shape[1] != d:
        raise DimMismatch(f"tokens must be (n, {d})")
    if assignment.D.shape != (tok_act.shape[0], K):
        raise DimMismatch("assignment shape does not match tokens/prototypes")
    if not 0 <= category < bank.n_classes:
        raise LabelOutOfRange(f"category {category} of {bank.n_classes}")

    out = bank.copy()
    if bank.beta == 1.0:
        return out
    protos = out.prototypes[category]
    for j in range(K):
        bucket = assignment.hard == j
        if not bucket.any():
            continue
        pulled = assignment.D[bucket, j] @ tok_act[bucket]
        u = bank.beta * protos[j] + (1.0 - bank.beta) * pulled
        n = float(np.linalg.norm(u))
        if n < 1e-12:
            raise ZeroVector(f"prototype {j} collapsed during update")
        protos[j] = u / n
    return out


def local_loss(bank: MemoryBank, tok_act: np.ndarray, label: int,
               temperature: float) -> float:
    """Cross-entropy of the label under per-category prototype alignment.

    The category logit is the mean over activated tokens of the best
    prototype cosine (max pools over K, mean pools over tokens), scaled by
    1/temperature before the softmax.
    """
    if not 0 <= label < bank.n_classes:
        raise LabelOutOfRange(f"label {label} of {bank.n_classes}")
    z = _class_scores(tok_act, bank).mean(axis=0) / temperature
    m = float(z.max())
    return float(np.log(np.exp(z - m).sum()) + m - z[label])
