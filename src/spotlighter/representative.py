"""Representative-token fusion.

Visual side: one trainable cross-attention block per tier takes the class
prototypes as queries and the tier tokens as keys/values; the fused
prototypes are then concatenated with the tier tokens and passed through a
frozen, seeded transformer block (full self-attention), whose first K output
rows are the representative visual tokens.

Text side: every class text token attends over the tier tokens with a
temperature-scaled cosine softmax and is concatenated with the weighted
aggregate. That matching depends on no trainable parameter, so `tier_inputs`
computes it once per tier set, dropping empty tiers. A single trainable linear
layer (shared by both tiers) maps the pair back to width d with a residual
scaled by alpha.

`reps_fwd` runs only the work the parameters touch, over an optional leading
item axis, with backward caches or (batched prediction, finite-difference
probes) without; `reps_bwd` turns representative gradients into exact
parameter gradients, and the frozen block routes gradients but never
receives them.
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
    transformer_block_batch,
    transformer_block_bwd,
    transformer_block_fwd,
)
from .rng import Stream


@dataclass
class FusionParams:
    """The only trainable parameters: per-tier IRM blocks plus the TRM linear.

    irm holds one block per tier, irm[t] for tier t. trm_w maps the
    concatenated (text token, aggregate) pair of width 2d back to d.
    """

    irm: tuple
    trm_w: np.ndarray
    trm_b: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        if len(self.irm) != 2:
            raise DimMismatch(f"one IRM block per tier is 2 blocks, got {len(self.irm)}")
        d = self.irm[0].d_model
        self.trm_w = np.asarray(self.trm_w, dtype=np.float64)
        self.trm_b = np.asarray(self.trm_b, dtype=np.float64)
        if self.trm_w.shape != (2 * d, d) or self.trm_b.shape != (d,):
            raise DimMismatch(f"TRM weights must be ({2 * d}, {d}) and ({d},)")

    @property
    def d_model(self) -> int:
        return self.irm[0].d_model

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

    def flat_view(self):
        """(buffer, params): `flatten()` and a FusionParams whose tensors view
        that buffer, so writing a flat vector into it loads every tensor."""
        buf = self.flatten()
        views, pos = {}, 0
        for name, a in self.tensors():
            views[name] = buf[pos : pos + a.size].reshape(a.shape)
            pos += a.size
        irm = tuple(TransformerBlockParams(n_heads=b.n_heads, **{
                        name: views[f"irm{i}.{name}"] for name, _ in b.tensors()})
                    for i, b in enumerate(self.irm))
        return buf, FusionParams(irm=irm, trm_w=views["trm.w"], trm_b=views["trm.b"],
                                 alpha=self.alpha)

    @classmethod
    def init(cls, d: int, n_heads: int, stream: Stream, *, ffn_mult: int = 2,
             alpha: float = 0.2, scale: float = 0.05) -> "FusionParams":
        irm = tuple(
            TransformerBlockParams.random(d, n_heads, stream, ffn_mult=ffn_mult, scale=scale)
            for _ in range(2)
        )
        trm_w = scale / np.sqrt(2 * d) * stream.normals(2 * d, d)
        return cls(irm=irm, trm_w=trm_w, trm_b=np.zeros(d), alpha=alpha)

    @classmethod
    def zeros(cls, d: int, n_heads: int, *, ffn_mult: int = 2,
              alpha: float = 0.0) -> "FusionParams":
        irm = tuple(TransformerBlockParams.zeros(d, n_heads, ffn_mult) for _ in range(2))
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


def trainable_param_count(d: int, ffn_mult: int = 2) -> int:
    """Analytic count of trainable tensor entries at the configured widths."""
    return 2 * block_param_count(d, ffn_mult) + 2 * d * d + d


# --------------------------------------------------------------------------
# cached forward / exact backward
# --------------------------------------------------------------------------

def tier_inputs(tiers, text_tokens: np.ndarray, temperature: float):
    """(tier index, tokens, Z) per nonempty (tier index, tokens) pair, where
    Z = [text | softmax(cos(text, tokens) / temperature) @ tokens] is the TRM
    input; stacked (N, m, d) tokens give an (N, C, 2d) Z."""
    text = np.asarray(text_tokens, dtype=np.float64)
    out = []
    for tier_idx, tokens in tiers:
        tokens = np.asarray(tokens, dtype=np.float64)
        if tokens.shape[-2] == 0:
            continue
        agg = softmax_rows(cosine_matrix(text, tokens), temperature) @ tokens
        out.append((tier_idx, tokens,
                    np.concatenate([np.broadcast_to(text, agg.shape), agg], axis=-1)))
    return out


def reps_fwd(tiers, class_protos: np.ndarray, params: FusionParams,
             theta: FrozenTheta, *, keep_cache: bool = True):
    """Run IRM -> frozen block -> TRM per tier of `tier_inputs`.

    Returns (V_list, R_list, cache): one (K, d) visual and one (C, d) text
    representative set per tier, in tier order; the text residual is the text
    half of Z. Stacked inputs — (N, m, d) tier tokens and (N, K, d) prototypes
    — give (N, K, d) and (N, C, d) sets. With keep_cache=False the blocks drop
    their intermediates and the returned cache is None.
    """
    protos = np.asarray(class_protos, dtype=np.float64)
    K, d = protos.shape[-2:]

    def block(Q, KV, p):
        if keep_cache:
            return transformer_block_fwd(Q, KV, p)
        return transformer_block_batch(Q, KV, p), None

    V_list, R_list, tier_caches = [], [], []
    for tier_idx, tokens, Z in tiers:
        fused, irm_cache = block(protos, tokens, params.irm[tier_idx])
        seq = np.concatenate([fused, tokens], axis=-2)
        out, theta_cache = block(seq, seq, theta.block)
        V_list.append(out[..., :K, :])
        R_list.append(params.alpha * (Z @ params.trm_w + params.trm_b) + Z[..., :d])
        if keep_cache:
            tier_caches.append((f"irm{tier_idx}", irm_cache, theta_cache, Z, K))
    return V_list, R_list, (params, tier_caches) if keep_cache else None


def reps_bwd(cache, dV_list, dR_list) -> dict:
    """Gradients of every trainable tensor given representative gradients.

    The frozen block only routes gradients; its tensors are absent from the
    result.
    """
    params, tier_caches = cache
    grads = {name: np.zeros_like(arr) for name, arr in params.tensors()}
    for (irm_key, irm_cache, theta_cache, Z, K), dV, dR in zip(tier_caches, dV_list, dR_list):
        # text side: Z is a constant of the trainable set
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
