"""Representative-token fusion.

Visual side: one trainable cross-attention block per tier takes the class
prototypes as queries and the tier tokens as keys/values; the fused
prototypes are then concatenated with the tier tokens and passed through a
frozen, seeded transformer block (full self-attention), whose first K output
rows are the representative visual tokens.

Text side: every class text token attends over the tier tokens with a
temperature-scaled cosine softmax, the weighted aggregate is concatenated to
the token, and a single trainable linear layer (shared by both tiers) maps
the pair back to width d with a residual scaled by alpha.

`reps_fwd`/`reps_bwd` run the trainable chain with caches and exact
gradients; the frozen block propagates gradients but never receives them.
`pipeline.predict_batch` repeats this chain, forward only, over a leading
item axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .numerics import (
    TransformerBlockParams,
    cosine_matrix,
    softmax_rows,
    block_param_count,
    transformer_block_bwd,
    transformer_block_fwd,
)
from .rng import Stream


@dataclass
class FusionParams:
    """The only trainable parameters: per-tier IRM blocks plus the TRM linear.

    irm holds one block per tier, or a single shared block. trm_w maps the
    concatenated (text token, aggregate) pair of width 2d back to d.
    """

    irm: tuple
    trm_w: np.ndarray
    trm_b: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        d = self.irm[0].d_model
        self.trm_w = np.asarray(self.trm_w, dtype=np.float64)
        self.trm_b = np.asarray(self.trm_b, dtype=np.float64)
        if self.trm_w.shape != (2 * d, d) or self.trm_b.shape != (d,):
            raise DimMismatch(f"TRM weights must be ({2 * d}, {d}) and ({d},)")

    @property
    def d_model(self) -> int:
        return self.irm[0].d_model

    def irm_for_tier(self, tier: int) -> TransformerBlockParams:
        return self.irm[min(tier, len(self.irm) - 1)]

    def irm_key_for_tier(self, tier: int) -> str:
        return f"irm{min(tier, len(self.irm) - 1)}"

    def tensors(self):
        out = []
        for i, block in enumerate(self.irm):
            out.extend((f"irm{i}.{name}", arr) for name, arr in block.tensors())
        out.append(("trm.w", self.trm_w))
        out.append(("trm.b", self.trm_b))
        return out

    def n_params(self) -> int:
        return sum(int(a.size) for _, a in self.tensors())

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for _, a in self.tensors()])

    def load_flat(self, vec: np.ndarray) -> None:
        """Write a flat vector back into the parameter tensors, wire order."""
        pos = 0
        for _, a in self.tensors():
            a[...] = vec[pos : pos + a.size].reshape(a.shape)
            pos += a.size
        if pos != vec.size:
            raise DimMismatch(f"flat vector has {vec.size} entries, expected {pos}")

    def copy(self) -> "FusionParams":
        return FusionParams(
            irm=tuple(b.copy() for b in self.irm),
            trm_w=self.trm_w.copy(), trm_b=self.trm_b.copy(), alpha=self.alpha,
        )

    @classmethod
    def init(cls, d: int, n_heads: int, stream: Stream, *, ffn_mult: int = 2,
             alpha: float = 0.2, shared_irm: bool = False,
             scale: float = 0.05) -> "FusionParams":
        n_blocks = 1 if shared_irm else 2
        irm = tuple(
            TransformerBlockParams.random(d, n_heads, stream, ffn_mult=ffn_mult, scale=scale)
            for _ in range(n_blocks)
        )
        trm_w = scale / np.sqrt(2 * d) * stream.normals(2 * d, d)
        return cls(irm=irm, trm_w=trm_w, trm_b=np.zeros(d), alpha=alpha)

    @classmethod
    def zeros(cls, d: int, n_heads: int, *, ffn_mult: int = 2, alpha: float = 0.0,
              shared_irm: bool = False) -> "FusionParams":
        n_blocks = 1 if shared_irm else 2
        irm = tuple(TransformerBlockParams.zeros(d, n_heads, ffn_mult) for _ in range(n_blocks))
        return cls(irm=irm, trm_w=np.zeros((2 * d, d)), trm_b=np.zeros(d), alpha=alpha)


@dataclass
class FrozenTheta:
    """Seeded transformer block, frozen after initialization."""

    block: TransformerBlockParams

    def to_bytes(self) -> bytes:
        return self.block.to_bytes()

    @classmethod
    def init(cls, d: int, n_heads: int, stream: Stream, *, ffn_mult: int = 2,
             scale: float = 0.05) -> "FrozenTheta":
        return cls(TransformerBlockParams.random(d, n_heads, stream,
                                            ffn_mult=ffn_mult, scale=scale))

    @classmethod
    def zeros(cls, d: int, n_heads: int, ffn_mult: int = 2) -> "FrozenTheta":
        return cls(TransformerBlockParams.zeros(d, n_heads, ffn_mult))


def trainable_param_count(d: int, ffn_mult: int = 2, shared_irm: bool = False) -> int:
    """Analytic count of trainable tensor entries at the configured widths."""
    n_blocks = 1 if shared_irm else 2
    return n_blocks * block_param_count(d, ffn_mult) + 2 * d * d + d


# --------------------------------------------------------------------------
# cached forward / exact backward
# --------------------------------------------------------------------------

def reps_fwd(tiers, class_protos: np.ndarray, text_tokens: np.ndarray,
             params: FusionParams, theta: FrozenTheta, temperature: float):
    """Run IRM -> frozen block -> TRM per tier, keeping backward caches.

    Returns (V_list, R_list, cache): one (K, d) visual and one (C, d) text
    representative set per nonempty tier, in tier order.
    """
    protos = np.asarray(class_protos, dtype=np.float64)
    text = np.asarray(text_tokens, dtype=np.float64)
    K = protos.shape[0]
    V_list, R_list, tier_caches = [], [], []
    for tier_idx, tokens in tiers:
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.shape[0] == 0:
            continue
        irm = params.irm_for_tier(tier_idx)
        fused, irm_cache = transformer_block_fwd(protos, tokens, irm)
        seq = np.vstack([fused, tokens])
        out, theta_cache = transformer_block_fwd(seq, seq, theta.block)
        V_list.append(out[:K])

        W = softmax_rows(cosine_matrix(text, tokens), temperature)
        Z = np.hstack([text, W @ tokens])
        R_list.append(params.alpha * (Z @ params.trm_w + params.trm_b) + text)
        tier_caches.append((params.irm_key_for_tier(tier_idx), irm_cache, theta_cache, Z, K))
    cache = (params, tier_caches)
    return V_list, R_list, cache


def reps_bwd(cache, dV_list, dR_list) -> dict:
    """Gradients of every trainable tensor given representative gradients.

    The frozen block only routes gradients; its tensors are absent from the
    result. Shared-IRM configurations accumulate both tiers into irm0.
    """
    params, tier_caches = cache
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    for (irm_key, irm_cache, theta_cache, Z, K), dV, dR in zip(tier_caches, dV_list, dR_list):
        # text side: W and Z are constants of the trainable set
        grads["trm.w"] += params.alpha * (Z.T @ dR)
        grads["trm.b"] += params.alpha * dR.sum(axis=0)
        # visual side: route through frozen theta, then the tier's IRM block
        seq_len = theta_cache[1].shape[0]  # K + m rows entered the frozen block
        d_out = np.zeros((seq_len, dV.shape[1]))
        d_out[:K] = dV
        dQ_t, dKV_t, _ = transformer_block_bwd(theta_cache, d_out)
        d_fused = (dQ_t + dKV_t)[:K]
        _, _, irm_grads = transformer_block_bwd(irm_cache, d_fused)
        for name, g in irm_grads.items():
            grads[f"{irm_key}.{name}"] += g
    return grads
