"""Loss suite: contrastive classification, graded per-tier losses, text L1
regularization, pooled visual KL, and the weighted total.

Token sets are pooled to single vectors by mean-then-L2-normalize before any
similarity; classification logits are cosine over the pooled pair scaled by
1/tau. One forward evaluates the whole objective for one item:
`losses_fwd_bwd` adds exact gradients w.r.t. the per-tier visual and text
representatives, which `representative.reps_bwd` then turns into parameter
gradients, and `losses_value` returns the total alone for the gradient
check's finite-difference probes. The forward runs over any leading axes of
the representatives, so a block of probes, one per row of a leading probe
axis, is one call that returns one total per row; the backward serves one
training item. Both take a `LossItem`, the item's
constants (its text targets, the pooled softmax of its original tokens, its
local loss and label), which `loss_item` computes once per item, not once
per probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFiniteLoss, NonPositiveTemperature, ZeroVector
from .numerics import cross_entropy, softmax_rows


@dataclass
class LossWeights:
    """Coefficients of the weighted total plus the shared temperature;
    `RunConfig.loss_weights` holds the reference values."""

    lambda1: float
    lambda2: float
    lambda3: float
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise NonPositiveTemperature(f"tau {self.tau!r}")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass
class LossBreakdown:
    cls: float
    cls_low: float
    cls_high: float
    reg_text: float
    kl_visual: float
    local: float
    total: float


# --------------------------------------------------------------------------
# differentiable building blocks
# --------------------------------------------------------------------------

def _pool_fwd(tokens: np.ndarray):
    """Mean rows then normalize, over any leading axes; returns (unit
    vectors, cache)."""
    tokens = np.asarray(tokens, dtype=np.float64)
    m = tokens.mean(axis=-2)
    # the norm as one dot product per row, the bits np.linalg.norm gives a vector
    nrm = np.sqrt(m[..., None, :] @ m[..., :, None])[..., 0]
    if np.any(nrm < 1e-12):
        raise ZeroVector("pooled token set has zero norm")
    v = m / nrm
    return v, (v, nrm, tokens.shape[-2])


def _pool_bwd(cache, dv: np.ndarray) -> np.ndarray:
    v, nrm, M = cache
    dm = (dv - v * float(v @ dv)) / nrm
    return np.broadcast_to(dm / M, (M, dm.shape[0])).copy()


def _contrastive_fwd(v: np.ndarray, class_rows: np.ndarray, label: int, tau: float):
    """CE of the label under cosine logits between pooled sides.

    v is the (..., d) pooled visual set (`_pool_fwd`). class_rows is
    (..., C, R, d): R representative rows per class, pooled per class by the
    same mean-then-normalize rule. Leading axes, shared with v, give one loss
    each.
    """
    m = class_rows.mean(axis=-2)
    nrm = np.linalg.norm(m, axis=-1, keepdims=True)
    if np.any(nrm < 1e-12):
        raise ZeroVector("pooled class representative has zero norm")
    Tp = m / nrm
    z = (Tp @ v[..., None])[..., 0] / tau
    return cross_entropy(z, label), (v, nrm, Tp, z, label, tau, class_rows.shape[-2])


def _contrastive_bwd(cache, scale: float = 1.0):
    """(gradient w.r.t. the pooled v, gradient w.r.t. class_rows)."""
    v, nrm, Tp, z, label, tau, R = cache
    dz = softmax_rows(z)
    dz[label] -= 1.0
    dz *= scale / tau
    dv = dz @ Tp
    dTp = np.outer(dz, v)
    dm = (dTp - Tp * (Tp * dTp).sum(axis=1, keepdims=True)) / nrm
    d_class_rows = np.repeat(dm[:, None, :] / R, R, axis=1)
    return dv, d_class_rows


def _kl_pooled_fwd(r: np.ndarray, log_po: np.ndarray):
    """KL(softmax(r) || po) of a pooled set r, given log po of the original
    tokens."""
    pr = softmax_rows(r)
    log_ratio = np.log(pr) - log_po
    loss = (pr * log_ratio).sum(axis=-1)
    return loss, (pr, log_ratio)


def _kl_pooled_bwd(cache, scale: float = 1.0):
    """Gradient w.r.t. the pooled set r."""
    pr, log_ratio = cache
    dpr = (log_ratio + 1.0) * scale
    return pr * (dpr - float(dpr @ pr))


# --------------------------------------------------------------------------
# weighted total
# --------------------------------------------------------------------------

def total_loss(cls: float, cls_low: float, cls_high: float, reg_text: float,
               kl_visual: float, local: float, weights: LossWeights) -> LossBreakdown:
    """Weighted sum: cls + l1*(low+high) + l2*reg + l3*(kl+local).

    Parts given per probe row (arrays) give one total per row. A non-finite
    part, at any weight, makes the total non-finite, which raises.
    """
    total = (
        cls
        + weights.lambda1 * (cls_low + cls_high)
        + weights.lambda2 * reg_text
        + weights.lambda3 * (kl_visual + local)
    )
    if not np.isfinite(total).all():
        raise NonFiniteLoss("non-finite loss component: "
                            f"{(cls, cls_low, cls_high, reg_text, kl_visual, local)}")
    return LossBreakdown(cls=cls, cls_low=cls_low, cls_high=cls_high,
                         reg_text=reg_text, kl_visual=kl_visual, local=local,
                         total=total)


# --------------------------------------------------------------------------
# fused objective with exact representative gradients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LossItem:
    """The constants of one item's objective: the text target of every
    tier's representatives (text_ori once per tier), log of the clamped
    softmax of the pooled original tokens, the local loss (a constant of the
    trainable parameters) and the label."""

    text_targets: np.ndarray
    log_po: np.ndarray
    local: float
    label: int


def loss_item(text_ori: np.ndarray, all_tokens: np.ndarray, n_tiers: int,
              local_value: float, label: int) -> LossItem:
    """`LossItem` of an item with (C, d) text tokens, its (n, d) original
    tokens and n_tiers nonempty tiers."""
    if n_tiers < 1:
        raise DimMismatch("need one visual and one text set per tier")
    text_ori = np.asarray(text_ori, dtype=np.float64)
    o, _ = _pool_fwd(all_tokens)
    log_po = np.log(np.maximum(softmax_rows(o), 1e-12))
    return LossItem(np.vstack([text_ori] * n_tiers), log_po, local_value, label)


def _objective_fwd(V_list, R_list, item: LossItem, weights: LossWeights):
    """The weighted total of one item and the caches its backward needs.

    Representatives with leading (probe) axes, (..., K, d) and (..., C, d),
    give one total per leading index.
    """
    n_tiers = len(V_list)
    if n_tiers == 0 or n_tiers != len(R_list):
        raise DimMismatch("need one visual and one text set per tier")
    R_all = np.concatenate(R_list, axis=-2)
    if R_all.shape[-2:] != item.text_targets.shape:
        raise DimMismatch(f"text representatives must match the text tokens, "
                          f"{R_all.shape} vs {item.text_targets.shape}")
    tau, label = weights.tau, item.label

    v_all, v_cache = _pool_fwd(np.concatenate(V_list, axis=-2))
    class_rows = np.stack(R_list, axis=-2)  # (..., C, n_tiers, d)

    cls, cls_cache = _contrastive_fwd(v_all, class_rows, label, tau)
    # graded per-tier terms: tier 1 is the high tier, tier 2 (if present) the low
    tier_pools = [_pool_fwd(V) for V in V_list]
    tier_terms = [_contrastive_fwd(v, R[..., None, :], label, tau)
                  for (v, _), R in zip(tier_pools, R_list)]
    high, low = tier_terms[0][0], (tier_terms[1][0] if n_tiers > 1 else 0.0)

    diff = R_all - item.text_targets
    reg = np.abs(diff).mean(axis=(-2, -1))

    kl, kl_cache = _kl_pooled_fwd(v_all, item.log_po)
    breakdown = total_loss(cls, low, high, reg, kl, item.local, weights)
    return breakdown, (v_cache, cls_cache, tier_pools, tier_terms, diff, kl_cache)


def losses_value(V_list, R_list, item: LossItem, weights: LossWeights):
    """The total loss alone, for finite-difference probing: one total per
    probe row when the representatives lead with a probe axis."""
    return _objective_fwd(V_list, R_list, item, weights)[0].total


def losses_fwd_bwd(V_list, R_list, item: LossItem, weights: LossWeights):
    """Full objective for one item plus gradients w.r.t. the representatives.

    V_list / R_list hold one (K, d) visual and one (C, d) text representative
    set per nonempty tier (tier order). Returns (LossBreakdown, dV_list,
    dR_list); the local loss enters the total as a constant of the trainable
    parameters.
    """
    breakdown, (v_cache, cls_cache, tier_pools, tier_terms, diff, kl_cache) = _objective_fwd(
        V_list, R_list, item, weights)

    dv_all, d_class_rows = _contrastive_bwd(cls_cache)
    dV_all = _pool_bwd(v_cache, dv_all)
    dV_all += _pool_bwd(v_cache, _kl_pooled_bwd(kl_cache, weights.lambda3))
    dR_sign = weights.lambda2 * np.sign(diff) / diff.size

    K = V_list[0].shape[0]
    C = R_list[0].shape[0]
    dV_list, dR_list = [], []
    for i, ((_, pool_cache), (_, cache)) in enumerate(zip(tier_pools, tier_terms)):
        dv_t, dR_t = _contrastive_bwd(cache, weights.lambda1)
        dV_list.append(dV_all[i * K : (i + 1) * K] + _pool_bwd(pool_cache, dv_t))
        dR_list.append(d_class_rows[:, i, :] + dR_sign[i * C : (i + 1) * C] + dR_t[:, 0, :])
    return breakdown, dV_list, dR_list
