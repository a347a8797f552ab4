import math

import numpy as np
import pytest

from spotlighter.errors import DimMismatch, LabelOutOfRange, NonFiniteLoss
from spotlighter.numerics import finite_difference_errors, normalize_rows, softmax
from spotlighter.objectives import (
    LossBreakdown,
    LossWeights,
    losses_fwd_bwd,
    total_loss,
)

from .reference_impls import ref_contrastive, ref_kl_extended, ref_pool_normalize


def parts(V_list, R_list, text, X, label=0, tau=0.1):
    """The LossBreakdown losses_fwd_bwd reports (local loss 0)."""
    b, _, _ = losses_fwd_bwd(V_list, R_list, text, X, 0.0, label, LossWeights(tau=tau))
    return b


# --- contrastive (cls) ----------------------------------------------------------

def test_contrastive_perfect_alignment_near_zero():
    d = 8
    T = np.eye(d)[:5]
    v_tokens = np.tile(T[2], (3, 1))
    assert parts([v_tokens], [T], T, v_tokens, 2, 0.01).cls < 1e-6


def test_contrastive_uniform_logits_ln_c(rng):
    t = normalize_rows(rng.normal(size=(1, 8)))[0]
    T = np.tile(t, (7, 1))
    v = rng.normal(size=(2, 8))
    assert abs(parts([v], [T], T, v, 3, 0.5).cls - math.log(7)) < 1e-9


def test_contrastive_matches_exp_sum_oracle(rng):
    # two tiers: the pooled visual side is all 4 rows, each class pools its
    # 2 text rows (one per tier)
    v_tokens = rng.normal(size=(4, 8))
    reps = rng.normal(size=(5, 2, 8))
    got = parts([v_tokens[:2], v_tokens[2:]], [reps[:, 0], reps[:, 1]],
                reps[:, 0], v_tokens, 1, 0.3).cls
    want = ref_contrastive(v_tokens, list(reps), 1, 0.3)
    assert abs(got - want) < 1e-8


def test_contrastive_scale_invariance(rng):
    v_tokens = rng.normal(size=(4, 8))
    reps = rng.normal(size=(5, 8))
    a = parts([v_tokens], [reps], reps, v_tokens, 0, 0.2).cls
    b = parts([4.2 * v_tokens], [reps], reps, v_tokens, 0, 0.2).cls
    assert abs(a - b) < 1e-9


def test_contrastive_label_validation(rng):
    reps = rng.normal(size=(3, 4))
    v = rng.normal(size=(2, 4))
    with pytest.raises(LabelOutOfRange):
        parts([v], [reps], reps, v, 3, 0.1)


# --- graded (cls_high, cls_low) -------------------------------------------------------

def test_graded_empty_tier2_zero(rng):
    v1 = rng.normal(size=(3, 8))
    t1 = rng.normal(size=(4, 8))
    b = parts([v1], [t1], t1, v1, 1, 0.1)
    assert b.cls_low == 0.0
    assert abs(b.cls_high - ref_contrastive(v1, [r[None, :] for r in t1], 1, 0.1)) < 1e-8


def test_graded_identical_tiers_equal(rng):
    v = rng.normal(size=(3, 8))
    t = rng.normal(size=(4, 8))
    b = parts([v, v.copy()], [t, t.copy()], t, v, 2, 0.1)
    assert abs(b.cls_high - b.cls_low) < 1e-12


def test_graded_matches_per_tier_oracle(rng):
    v1, v2 = rng.normal(size=(3, 8)), rng.normal(size=(3, 8))
    t1, t2 = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    b = parts([v1, v2], [t1, t2], t1, v1, 0, 0.2)
    assert abs(b.cls_high - ref_contrastive(v1, [r[None, :] for r in t1], 0, 0.2)) < 1e-8
    assert abs(b.cls_low - ref_contrastive(v2, [r[None, :] for r in t2], 0, 0.2)) < 1e-8


# --- text regularizer (reg_text) ------------------------------------------------------

def test_text_reg_identity_zero(rng):
    T = rng.normal(size=(4, 8))
    V = rng.normal(size=(2, 8))
    assert parts([V], [T.copy()], T, V).reg_text == 0.0


def test_text_reg_constant_offset(rng):
    T = np.zeros((3, 5))
    V = rng.normal(size=(2, 5))
    assert abs(parts([V], [T + 0.5], T, V).reg_text - 0.5) < 1e-12


def test_text_reg_matches_elementwise_oracle(rng):
    A = rng.normal(size=(6, 7))
    B = rng.normal(size=(6, 7))
    V = rng.normal(size=(2, 7))
    want = float(sum(abs(A[i, j] - B[i, j]) for i in range(6) for j in range(7)) / 42)
    assert abs(parts([V], [B], A, V).reg_text - want) < 1e-10


def test_text_reg_shape_mismatch(rng):
    V = rng.normal(size=(2, 3))
    with pytest.raises(DimMismatch):
        parts([V], [rng.normal(size=(3, 3))], np.zeros((2, 3)), V)


# --- visual KL (kl_visual) ----------------------------------------------------------

def test_visual_kl_identity_zero(rng):
    V = rng.normal(size=(5, 8))
    T = rng.normal(size=(3, 8))
    assert abs(parts([V], [T], T, V.copy()).kl_visual) < 1e-12


def test_visual_kl_nonnegative(rng):
    T = rng.normal(size=(3, 6))
    for _ in range(100):
        V, X = rng.normal(size=(4, 6)), rng.normal(size=(7, 6))
        assert parts([V], [T], T, X).kl_visual >= -1e-9


def test_visual_kl_matches_composed_oracle(rng):
    rep = rng.normal(size=(4, 9))
    ori = rng.normal(size=(6, 9))
    T = rng.normal(size=(3, 9))
    p = softmax(ref_pool_normalize(rep), 1.0)
    q = softmax(ref_pool_normalize(ori), 1.0)
    assert abs(parts([rep], [T], T, ori).kl_visual - ref_kl_extended(p, q)) < 1e-9


# --- total ----------------------------------------------------------------

def test_total_zero_weights_is_cls():
    w = LossWeights(0.0, 0.0, 0.0, 0.01)
    b = total_loss(1.23, 4.0, 5.0, 6.0, 7.0, 8.0, w)
    assert b.total == 1.23


def test_total_reference_weights_hand_arithmetic():
    w = LossWeights(0.02, 20.0, 0.1, 0.01)
    b = total_loss(1.0, 0.5, 0.25, 0.01, 0.2, 0.3, w)
    want = 1.0 + 0.02 * (0.5 + 0.25) + 20.0 * 0.01 + 0.1 * (0.2 + 0.3)
    assert abs(b.total - want) < 1e-12


def test_total_matches_formula_random(rng):
    for _ in range(50):
        c, lo, hi, rg, kl, lc = rng.random(6)
        l1, l2, l3 = rng.random(3)
        w = LossWeights(l1, l2, l3, 0.1)
        b = total_loss(c, lo, hi, rg, kl, lc, w)
        assert abs(b.total - (c + l1 * (lo + hi) + l2 * rg + l3 * (kl + lc))) < 1e-12


def test_breakdown_invariant(rng):
    w = LossWeights(0.02, 20.0, 0.1, 0.01)
    b = total_loss(0.9, 0.1, 0.2, 0.01, 0.05, 0.4, w)
    recomputed = (b.cls + w.lambda1 * (b.cls_low + b.cls_high)
                  + w.lambda2 * b.reg_text + w.lambda3 * (b.kl_visual + b.local))
    assert abs(b.total - recomputed) < 1e-9


def test_total_rejects_non_finite():
    w = LossWeights()
    with pytest.raises(NonFiniteLoss):
        total_loss(float("nan"), 0, 0, 0, 0, 0, w)


# --- fused objective gradients --------------------------------------------------------

def test_losses_fwd_bwd_gradients_wrt_representatives(rng):
    d, K, C = 6, 2, 3
    V_list = [rng.normal(size=(K, d)), rng.normal(size=(K, d))]
    R_list = [rng.normal(size=(C, d)) + 0.3, rng.normal(size=(C, d)) - 0.3]
    text = rng.normal(size=(C, d))
    X = rng.normal(size=(7, d))
    w = LossWeights(0.02, 20.0, 0.1, 0.05)

    breakdown, dV, dR = losses_fwd_bwd(V_list, R_list, text, X, 0.37, 1, w)
    assert isinstance(breakdown, LossBreakdown)

    x0 = np.concatenate([V_list[0].ravel(), V_list[1].ravel(),
                         R_list[0].ravel(), R_list[1].ravel()])
    analytic = np.concatenate([dV[0].ravel(), dV[1].ravel(),
                               dR[0].ravel(), dR[1].ravel()])

    def objective(flat):
        n = K * d
        m = C * d
        Vs = [flat[:n].reshape(K, d), flat[n : 2 * n].reshape(K, d)]
        Rs = [flat[2 * n : 2 * n + m].reshape(C, d),
              flat[2 * n + m :].reshape(C, d)]
        b, _, _ = losses_fwd_bwd(Vs, Rs, text, X, 0.37, 1, w)
        return b.total

    errs = finite_difference_errors(objective, x0, analytic, 1e-5)
    assert errs.max() < 1e-6
