"""Representative-token fusion.

Visual side: one trainable cross-attention block per tier takes the class
prototypes as queries and the tier tokens as keys/values; the fused
prototypes then pass through a frozen, seeded transformer block (`theta`, a
plain `TransformerBlockParams` that nothing trains) as its K query rows over
the keys/values [fused; tier tokens]; its K output rows are the
representative visual tokens. The tier-token rows are keys and values only,
since nothing reads their outputs. The trainable tensors live in one float64
vector (`FusionParams.flat`); the two IRM blocks view it on a leading tier axis.

Text side: every class text token attends over the tier tokens with a
temperature-scaled cosine softmax and is concatenated with the weighted
aggregate. That matching depends on no trainable parameter, so `tier_inputs`
computes it once per tier set, dropping empty tiers. A single trainable linear
layer (shared by both tiers) maps the pair back to width d with a residual
scaled by alpha.

`reps_fwd` runs only the work the parameters touch, over an optional leading
item axis (batched prediction) or a leading probe axis of the parameters
themselves (`FusionParams.over`: one finite-difference probe per row), with
backward caches or (prediction, probes) without; `reps_bwd` turns
representative gradients into the exact gradient, one vector laid out like
`FusionParams.flat`, and the frozen block routes gradients but never
receives them.

Both functions work on tier groups, each one IRM call and one frozen-block
call over a tier axis, the last leading axis of the block inputs, against
which the stacked IRM weights broadcast. The tiers of one item (a training
step, a block of gradient-check probes) form one group when they hold the
same number of tokens, which even k gives, and one group each otherwise: a
group of one is the same code with a tier axis of length 1. Tiers with an item axis (batched
prediction) stay one group each: the item axis already amortises the call
overhead, and stacking both tiers there made the bulk forwards slower.
"""

from __future__ import annotations

import copy
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

    irm stacks one block per tier on a leading tier axis, irm[t] for tier t.
    trm_w maps the concatenated (text token, aggregate) pair of width 2d back
    to d. Construction copies the given tensors into `flat`, one float64
    vector in `tensors()` order, and rebinds irm, trm_w and trm_b as views of
    it; the SGD step writes that vector, and `over` lays the same views over
    a block of finite-difference probe rows.
    """

    irm: TransformerBlockParams
    trm_w: np.ndarray
    trm_b: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha {self.alpha} outside [0, 1]")
        n_blocks = self.irm.wq.shape[:-2]
        if n_blocks != (2,):
            raise DimMismatch(f"one IRM block per tier is 2 stacked blocks, got {n_blocks}")
        d = self.irm.d_model
        if np.shape(self.trm_w) != (2 * d, d) or np.shape(self.trm_b) != (d,):
            raise DimMismatch(f"TRM weights must be ({2 * d}, {d}) and ({d},)")
        self._bind(np.concatenate([np.ravel(a) for _, a in self.tensors()], dtype=np.float64))

    def _bind(self, buf: np.ndarray):
        self.flat = buf
        irm, self.trm_w, self.trm_b = self._views(buf)
        self.irm = TransformerBlockParams(n_heads=self.irm.n_heads, **irm)

    def _views(self, buf: np.ndarray):
        """(stacked IRM tensors by name, trm_w, trm_b) viewing a wire-order
        vector, or (P, n) rows of them with the probe axis leading every
        tensor. The two IRM blocks share one layout, one block apart, so each
        stacked tensor is a strided view."""
        d, lead = self.d_model, buf.shape[:-1]
        n_block = (buf.shape[-1] - 2 * d * d - d) // 2
        blocks, pos, irm = buf[..., : 2 * n_block].reshape(*lead, 2, n_block), 0, {}
        for name, a in self.irm.tensors():
            irm[name] = blocks[..., pos : pos + a.size // 2].reshape(*lead, *a.shape)
            pos += a.size // 2
        return irm, buf[..., 2 * n_block : -d].reshape(*lead, 2 * d, d), buf[..., -d:]

    def over(self, rows: np.ndarray) -> "FusionParams":
        """These parameters' layout over other values, without a copy: `rows`
        is (P, n), one wire-order vector per probe row, and every tensor of the
        result leads with that probe axis (irm.wq is (P, 2, d, d)). Call it on
        vector-layout parameters."""
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape[-1:] != self.flat.shape:
            raise DimMismatch(f"rows of {self.flat.size} parameters expected, got {rows.shape}")
        out = copy.copy(self)
        out._bind(rows)
        return out

    @property
    def d_model(self) -> int:
        return self.irm.d_model

    def tensors(self):
        """Named per-tier views in wire order: irm0.*, irm1.*, trm.w, trm.b."""
        out = [(f"irm{t}.{name}", arr[t]) for t in range(2) for name, arr in self.irm.tensors()]
        out.append(("trm.w", self.trm_w))
        out.append(("trm.b", self.trm_b))
        return out

    @classmethod
    def init(cls, d: int, n_heads: int, stream: Stream, *,
             alpha: float = 0.2, scale: float = 0.05) -> "FusionParams":
        irm = TransformerBlockParams.stack([
            TransformerBlockParams.random(d, n_heads, stream, scale=scale) for _ in range(2)
        ])
        trm_w = scale / np.sqrt(2 * d) * stream.normals(2 * d, d)
        return cls(irm=irm, trm_w=trm_w, trm_b=np.zeros(d), alpha=alpha)

    @classmethod
    def zeros(cls, d: int, n_heads: int, *, alpha: float = 0.0) -> "FusionParams":
        irm = TransformerBlockParams.stack([TransformerBlockParams.zeros(d, n_heads)] * 2)
        return cls(irm=irm, trm_w=np.zeros((2 * d, d)), trm_b=np.zeros(d), alpha=alpha)


def trainable_param_count(d: int) -> int:
    """Analytic count of trainable tensor entries at width d."""
    return 2 * block_param_count(d) + 2 * d * d + d


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


def _tier_groups(tiers, batched: bool):
    """`tier_inputs` entries split into the groups that share one IRM call
    and one frozen-block call: consecutive single-item tiers with the same
    token count; with an item axis, one tier per group."""
    groups = []
    for entry in tiers:
        if groups and not batched and groups[-1][-1][1].shape == entry[1].shape:
            groups[-1].append(entry)
        else:
            groups.append([entry])
    return groups


def reps_fwd(tiers, class_protos: np.ndarray, params: FusionParams,
             theta: TransformerBlockParams, *, keep_cache: bool = True):
    """Run IRM -> frozen block -> TRM per tier of `tier_inputs`.

    Returns (V_list, R_list, cache): one (K, d) visual and one (C, d) text
    representative set per tier, in tier order; the text residual is the text
    half of Z. Stacked inputs — (N, m, d) tier tokens and (N, K, d) prototypes
    — give (N, K, d) and (N, C, d) sets. Each tier group runs its blocks once
    over a tier axis; the frozen block computes only the K fused-prototype
    rows, as queries over [fused; tier tokens]. Parameters with a probe axis
    (`FusionParams.over`) put it in front of every output: (P, K, d) and
    (P, C, d) sets. With keep_cache=False the blocks drop their intermediates
    and the returned cache is None.
    """
    protos = np.asarray(class_protos, dtype=np.float64)
    K, d = protos.shape[-2:]
    probe = (slice(None),) * (params.flat.ndim - 1)

    def block(Q, KV, p):
        if keep_cache:
            return transformer_block_fwd(Q, KV, p)
        return transformer_block_batch(Q, KV, p), None

    V_list, R_list, group_caches = [], [], []
    for group in _tier_groups(tiers, protos.ndim == 3):
        first, T = group[0][0], len(group)
        tokens = np.stack([tok for _, tok, _ in group], axis=-3)  # (..., T, m, d)
        fused, irm_cache = block(protos[..., None, :, :], tokens,
                                 params.irm[(*probe, slice(first, first + T))])
        seq = np.concatenate([fused, np.broadcast_to(tokens, (*fused.shape[:-2],
                                                              *tokens.shape[-2:]))], axis=-2)
        out, theta_cache = block(fused, seq, theta)
        for i, (_, _, Z) in enumerate(group):
            V_list.append(out[..., i, :, :])
            R_list.append(params.alpha * (Z @ params.trm_w + params.trm_b[..., None, :])
                          + Z[..., :d])
        if keep_cache:
            group_caches.append((first, irm_cache, theta_cache, [Z for _, _, Z in group], K))
    return V_list, R_list, (params, group_caches) if keep_cache else None


def reps_bwd(cache, dV_list, dR_list) -> np.ndarray:
    """Gradient of every trainable tensor given representative gradients, as
    one vector laid out like `FusionParams.flat`.

    The frozen block only routes gradients; its tensors are absent from the
    result. The TRM gradient is accumulated tier by tier.
    """
    params, group_caches = cache
    grad = np.zeros_like(params.flat)
    irm, trm_w, trm_b = params._views(grad)
    tier = 0
    for first, irm_cache, theta_cache, Zs, K in group_caches:
        T = len(Zs)
        dVs, dRs = dV_list[tier : tier + T], dR_list[tier : tier + T]
        tier += T
        # text side: Z is a constant of the trainable set
        for Z, dR in zip(Zs, dRs):
            trm_w += params.alpha * (Z.T @ dR)
            trm_b += params.alpha * dR.sum(axis=0)
        # visual side: route through frozen theta, then the tiers' IRM blocks
        dQ_t, dKV_t, _ = transformer_block_bwd(theta_cache, np.stack(dVs), param_grads=False)
        d_fused = dQ_t + dKV_t[:, :K]
        _, _, irm_grads = transformer_block_bwd(irm_cache, d_fused)
        for name, g in irm_grads.items():
            irm[name][first : first + T] += g
    return grad
