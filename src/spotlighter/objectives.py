"""Loss suite: contrastive classification, graded per-tier losses, text L1
regularization, pooled visual KL, and the weighted total.

Token sets are pooled to single vectors by mean-then-L2-normalize before any
similarity; classification logits are cosine over the pooled pair scaled by
1/tau. `losses_fwd_bwd` evaluates the whole objective for one item and
returns exact gradients w.r.t. the per-tier visual and text representatives,
which `representative.reps_bwd` then turns into parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, LabelOutOfRange, NonFiniteLoss, NonPositiveTemperature, ZeroVector


@dataclass
class LossWeights:
    """Coefficients of the weighted total plus the shared temperature."""

    lambda1: float = 0.02
    lambda2: float = 20.0
    lambda3: float = 0.1
    tau: float = 0.01

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

    def to_dict(self) -> dict:
        return {
            "cls": self.cls, "cls_low": self.cls_low, "cls_high": self.cls_high,
            "reg_text": self.reg_text, "kl_visual": self.kl_visual,
            "local": self.local, "total": self.total,
        }


# --------------------------------------------------------------------------
# differentiable building blocks
# --------------------------------------------------------------------------

def _pool_fwd(tokens: np.ndarray):
    """Mean rows then normalize; returns (unit vector, cache)."""
    tokens = np.asarray(tokens, dtype=np.float64)
    m = tokens.mean(axis=0)
    nrm = float(np.linalg.norm(m))
    if nrm < 1e-12:
        raise ZeroVector("pooled token set has zero norm")
    v = m / nrm
    return v, (v, nrm, tokens.shape[0])


def _pool_bwd(cache, dv: np.ndarray) -> np.ndarray:
    v, nrm, M = cache
    dm = (dv - v * float(v @ dv)) / nrm
    return np.broadcast_to(dm / M, (M, dm.shape[0])).copy()


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def _contrastive_fwd(v_tokens: np.ndarray, class_rows: np.ndarray, label: int, tau: float):
    """CE of the label under cosine logits between pooled sides.

    class_rows is (C, R, d): R representative rows per class, pooled per
    class by the same mean-then-normalize rule.
    """
    C = class_rows.shape[0]
    if not 0 <= label < C:
        raise LabelOutOfRange(f"label {label} of {C}")
    v, vcache = _pool_fwd(v_tokens)
    m = class_rows.mean(axis=1)
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    if np.any(nrm < 1e-12):
        raise ZeroVector("pooled class representative has zero norm")
    Tp = m / nrm
    z = (Tp @ v) / tau
    zmax = float(z.max())
    loss = float(np.log(np.exp(z - zmax).sum()) + zmax - z[label])
    return loss, (v, vcache, nrm, Tp, z, label, tau, class_rows.shape[1])


def _contrastive_bwd(cache, scale: float = 1.0):
    v, vcache, nrm, Tp, z, label, tau, R = cache
    dz = _softmax(z)
    dz[label] -= 1.0
    dz *= scale / tau
    dv = dz @ Tp
    dTp = np.outer(dz, v)
    dm = (dTp - Tp * (Tp * dTp).sum(axis=1, keepdims=True)) / nrm
    d_class_rows = np.repeat(dm[:, None, :] / R, R, axis=1)
    return _pool_bwd(vcache, dv), d_class_rows


def _kl_pooled_fwd(rep_tokens: np.ndarray, ori_tokens: np.ndarray):
    r, rcache = _pool_fwd(rep_tokens)
    o, _ = _pool_fwd(ori_tokens)
    pr = _softmax(r)
    po = np.maximum(_softmax(o), 1e-12)
    log_ratio = np.log(pr) - np.log(po)
    loss = float((pr * log_ratio).sum())
    return loss, (rcache, pr, log_ratio)


def _kl_pooled_bwd(cache, scale: float = 1.0):
    rcache, pr, log_ratio = cache
    dpr = (log_ratio + 1.0) * scale
    dr = pr * (dpr - float(dpr @ pr))
    return _pool_bwd(rcache, dr)


# --------------------------------------------------------------------------
# weighted total
# --------------------------------------------------------------------------

def total_loss(cls: float, cls_low: float, cls_high: float, reg_text: float,
               kl_visual: float, local: float, weights: LossWeights) -> LossBreakdown:
    """Weighted sum: cls + l1*(low+high) + l2*reg + l3*(kl+local)."""
    parts = (cls, cls_low, cls_high, reg_text, kl_visual, local)
    if not all(np.isfinite(parts)):
        raise NonFiniteLoss(f"non-finite loss component: {parts}")
    total = (
        cls
        + weights.lambda1 * (cls_low + cls_high)
        + weights.lambda2 * reg_text
        + weights.lambda3 * (kl_visual + local)
    )
    return LossBreakdown(cls=cls, cls_low=cls_low, cls_high=cls_high,
                         reg_text=reg_text, kl_visual=kl_visual, local=local,
                         total=float(total))


def losses_value(V_list, R_list, local_value: float, label: int,
                 weights: LossWeights, tiled_text: np.ndarray,
                 ori_probs: np.ndarray) -> float:
    """Value-only total loss for repeated probing (finite differences).

    tiled_text is text_ori stacked once per tier; ori_probs is the clamped
    softmax of the pooled original tokens (both constant across probes).
    """
    tau = weights.tau
    V_all = np.vstack(V_list)
    class_rows = np.stack(R_list, axis=1)
    cls, _ = _contrastive_fwd(V_all, class_rows, label, tau)
    high, _ = _contrastive_fwd(V_list[0], R_list[0][:, None, :], label, tau)
    low = 0.0
    if len(V_list) > 1:
        low, _ = _contrastive_fwd(V_list[1], R_list[1][:, None, :], label, tau)
    reg = float(np.abs(np.vstack(R_list) - tiled_text).mean())
    pr = _softmax(_pool_fwd(V_all)[0])
    kl = float((pr * (np.log(pr) - np.log(ori_probs))).sum())
    return total_loss(cls, low, high, reg, kl, local_value, weights).total


# --------------------------------------------------------------------------
# fused objective with exact representative gradients
# --------------------------------------------------------------------------

def losses_fwd_bwd(V_list, R_list, text_ori: np.ndarray, all_tokens: np.ndarray,
                   local_value: float, label: int, weights: LossWeights):
    """Full objective for one item plus gradients w.r.t. the representatives.

    V_list / R_list hold one (K, d) visual and one (C, d) text representative
    set per nonempty tier (tier order). Returns (LossBreakdown, dV_list,
    dR_list); the local loss enters the total as a constant of the trainable
    parameters.
    """
    text_ori = np.asarray(text_ori, dtype=np.float64)
    n_tiers = len(V_list)
    if n_tiers == 0 or n_tiers != len(R_list):
        raise DimMismatch("need one visual and one text set per tier")
    if any(R.shape != text_ori.shape for R in R_list):
        raise DimMismatch(f"text representatives must match text_ori {text_ori.shape}")
    tau = weights.tau

    V_all = np.vstack(V_list)
    class_rows = np.stack(R_list, axis=1)  # (C, n_tiers, d)

    cls, cls_cache = _contrastive_fwd(V_all, class_rows, label, tau)
    high, high_cache = _contrastive_fwd(V_list[0], R_list[0][:, None, :], label, tau)
    if n_tiers > 1:
        low, low_cache = _contrastive_fwd(V_list[1], R_list[1][:, None, :], label, tau)
    else:
        low, low_cache = 0.0, None

    R_all = np.vstack(R_list)
    T_tiled = np.vstack([text_ori] * n_tiers)
    diff = R_all - T_tiled
    reg = float(np.abs(diff).mean())

    kl, kl_cache = _kl_pooled_fwd(V_all, all_tokens)
    breakdown = total_loss(cls, low, high, reg, kl, local_value, weights)

    # ---- backward ----
    dV_all, d_class_rows = _contrastive_bwd(cls_cache)
    dV_all += _kl_pooled_bwd(kl_cache, weights.lambda3)
    dR_sign = weights.lambda2 * np.sign(diff) / diff.size

    K = V_list[0].shape[0]
    C = text_ori.shape[0]
    dV_list, dR_list = [], []
    for i in range(n_tiers):
        dV = dV_all[i * K : (i + 1) * K].copy()
        dR = d_class_rows[:, i, :] + dR_sign[i * C : (i + 1) * C]
        dV_list.append(dV)
        dR_list.append(dR)

    dV_h, dR_h = _contrastive_bwd(high_cache, weights.lambda1)
    dV_list[0] += dV_h
    dR_list[0] += dR_h[:, 0, :]
    if low_cache is not None:
        dV_l, dR_l = _contrastive_bwd(low_cache, weights.lambda1)
        dV_list[1] += dV_l
        dR_list[1] += dR_l[:, 0, :]

    return breakdown, dV_list, dR_list
