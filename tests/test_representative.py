from dataclasses import replace

import numpy as np
import pytest

from spotlighter.errors import DimMismatch
from spotlighter.numerics import (
    TransformerBlockParams,
    block_param_count,
    normalize_rows,
    transformer_block_fwd,
)
from spotlighter.representative import (
    FusionParams,
    reps_bwd,
    reps_fwd,
    tier_inputs,
    trainable_param_count,
)
from spotlighter.rng import Stream

from .reference_impls import ref_transformer_block, ref_trm


def rand_params(d=8, heads=2, seed=3, scale=0.3, alpha=0.2):
    return FusionParams.init(d, heads, Stream(seed), alpha=alpha, scale=scale)


def fwd(tiers, protos, text, params, theta, temperature, **kw):
    """reps_fwd over (tier index, tokens) pairs, TRM inputs built first."""
    return reps_fwd(tier_inputs(tiers, text, temperature), protos, params, theta, **kw)


def one_tier(tokens, protos, text, params, theta, temperature=0.01):
    """(V, R) of a single tier-0 pass through reps_fwd."""
    V, R, _ = fwd([(0, tokens)], protos, text, params, theta, temperature)
    return V[0], R[0]


# --- IRM: prototypes cross-attend over tier tokens ---------------------------------

def test_irm_zero_params_residual_identity(rng):
    protos = rng.normal(size=(5, 8))
    tier = rng.normal(size=(6, 8))
    theta = TransformerBlockParams.random(8, 2, Stream(5), scale=0.4)
    V, _ = one_tier(tier, protos, rng.normal(size=(3, 8)),
                    FusionParams.zeros(8, 2), theta)
    # a zero IRM block hands the prototypes to the frozen block unchanged
    seq = np.vstack([protos, tier])
    assert np.array_equal(V, transformer_block_fwd(seq, seq, theta)[0][:5])
    # stacked on an item axis, item by item
    protos, tiers = rng.normal(size=(3, 5, 8)), rng.normal(size=(3, 6, 8))
    (V,), _, _ = fwd([(0, tiers)], protos, rng.normal(size=(3, 8)),
                     FusionParams.zeros(8, 2), theta, 0.01)
    for i in range(3):
        seq = np.vstack([protos[i], tiers[i]])
        assert np.array_equal(V[i], transformer_block_fwd(seq, seq, theta)[0][:5])


def test_irm_matches_reference(rng):
    p = TransformerBlockParams.random(8, 2, Stream(4), scale=0.4)
    protos = rng.normal(size=(5, 8))
    tier = rng.normal(size=(8, 8))
    got, _ = transformer_block_fwd(protos, tier, p)
    assert np.abs(got - ref_transformer_block(protos, tier, p)).max() < 1e-8


# --- frozen block: self-attention over [fused prototypes; tier tokens] -----------

def test_extract_zero_theta_passthrough(rng):
    fused = rng.normal(size=(4, 8))
    tier = rng.normal(size=(3, 8))
    seq = np.vstack([fused, tier])
    out, _ = transformer_block_fwd(seq, seq, TransformerBlockParams.zeros(8, 2))
    assert np.array_equal(out[:4], fused)
    assert np.array_equal(out[4:], tier)


def test_extract_matches_reference_self_attention(rng):
    theta = TransformerBlockParams.random(8, 2, Stream(6), scale=0.4)
    protos = rng.normal(size=(1, 8))
    tier = rng.normal(size=(1, 8))
    V, _ = one_tier(tier, protos, rng.normal(size=(3, 8)),
                    FusionParams.zeros(8, 2), theta)
    seq = np.vstack([protos, tier])
    want = ref_transformer_block(seq, seq, theta)
    assert np.abs(V - want[:1]).max() < 1e-8


def test_extract_row_counts(rng):
    theta = TransformerBlockParams.random(8, 2, Stream(7))
    for K, m in [(2, 5), (4, 1), (1, 1)]:
        V, R = one_tier(rng.normal(size=(m, 8)), rng.normal(size=(K, 8)),
                        rng.normal(size=(3, 8)), rand_params(), theta)
        assert V.shape == (K, 8) and R.shape == (3, 8)


# --- TRM: residual linear fusion of text tokens with tier aggregates ---------------

def test_trm_alpha_zero_is_identity(rng):
    text = rng.normal(size=(4, 8))
    tier = rng.normal(size=(5, 8))
    _, R = one_tier(tier, rng.normal(size=(2, 8)), text, rand_params(alpha=0.0),
                    TransformerBlockParams.zeros(8, 2))
    assert np.array_equal(R, text)


def test_trm_single_candidate_softmax(rng):
    text = normalize_rows(rng.normal(size=(3, 8)))
    tier = rng.normal(size=(1, 8))
    p = rand_params(alpha=0.5)
    _, R = one_tier(tier, rng.normal(size=(2, 8)), text, p, TransformerBlockParams.zeros(8, 2))
    # one candidate takes all the matching weight
    want = 0.5 * (np.hstack([text, np.tile(tier[0], (3, 1))]) @ p.trm_w + p.trm_b) + text
    assert np.abs(R - want).max() < 1e-12


def test_trm_matches_loop_reference(rng):
    text = rng.normal(size=(4, 8))
    tier = rng.normal(size=(6, 8))
    p = rand_params(seed=9)
    _, got = one_tier(tier, rng.normal(size=(2, 8)), text, p,
                      TransformerBlockParams.zeros(8, 2), 0.05)
    want = ref_trm(text, tier, p.trm_w, p.trm_b, 0.2, 0.05)
    assert np.abs(got - want).max() < 1e-8


def test_trm_match_rows_sum_to_one(rng):
    # with trm_w = [0; I], zero bias and alpha = 1 the fusion adds the
    # aggregate W @ tier to the text; every tier token has coordinate 0 equal
    # to 1, so that coordinate of the aggregate is the row sum of W
    d = 8
    tier = rng.normal(size=(7, d))
    tier[:, 0] = 1.0
    text = rng.normal(size=(5, d))
    p = rand_params(alpha=1.0)
    p.trm_w[...] = np.vstack([np.zeros((d, d)), np.eye(d)])
    p.trm_b[...] = 0.0
    _, R = one_tier(tier, rng.normal(size=(2, d)), text, p, TransformerBlockParams.zeros(d, 2))
    assert np.abs((R - text)[:, 0] - 1.0).max() < 1e-9


def test_tier_inputs_match_reference_matching(rng):
    # with trm_w = [0; I], zero bias and alpha = 1 the loop oracle returns
    # text + aggregate, so its matching aggregate is that minus the text
    d = 8
    text = rng.normal(size=(4, d))
    tiers = [(0, rng.normal(size=(6, d))), (1, rng.normal(size=(3, d)))]
    pick_agg = np.vstack([np.zeros((d, d)), np.eye(d)])
    got = tier_inputs(tiers, text, 0.05)
    assert [t for t, _, _ in got] == [0, 1]
    for (t, tokens), (t_got, tokens_got, Z) in zip(tiers, got):
        assert t_got == t and np.array_equal(tokens_got, tokens)
        assert Z.shape == (4, 2 * d) and np.array_equal(Z[:, :d], text)
        want = ref_trm(text, tokens, pick_agg, np.zeros(d), 1.0, 0.05) - text
        assert np.abs(Z[:, d:] - want).max() < 1e-12


# --- the full chain over both tiers ------------------------------------------------

def test_build_zero_params_residual_chain(rng):
    d = 8
    protos = normalize_rows(rng.normal(size=(3, d)))
    text = normalize_rows(rng.normal(size=(4, d)))
    t1 = rng.normal(size=(2, d))
    t2 = rng.normal(size=(2, d))
    params = FusionParams.zeros(d, 2, alpha=0.0)
    theta = TransformerBlockParams.zeros(d, 2)
    V, R, _ = fwd([(0, t1), (1, t2)], protos, text, params, theta, 0.01)
    assert np.array_equal(np.vstack(V), np.vstack([protos, protos]))
    assert np.array_equal(np.vstack(R), np.vstack([text, text]))


def test_build_empty_tier_is_tier1_only(rng):
    d = 8
    protos = rng.normal(size=(3, d))
    text = rng.normal(size=(4, d))
    t1 = rng.normal(size=(2, d))
    params = rand_params(d)
    theta = TransformerBlockParams.random(d, 2, Stream(8))
    tiers_a = tier_inputs([(0, t1), (1, np.zeros((0, d)))], text, 0.01)
    tiers_b = tier_inputs([(0, t1)], text, 0.01)
    assert [t for t, _, _ in tiers_a] == [0]
    assert all(np.array_equal(a, b) for a, b in zip(tiers_a[0], tiers_b[0]))
    V_a, R_a, _ = reps_fwd(tiers_a, protos, params, theta)
    V_b, R_b, _ = reps_fwd(tiers_b, protos, params, theta)
    assert len(V_a) == len(R_a) == 1
    assert np.array_equal(V_a[0], V_b[0])
    assert np.array_equal(R_a[0], R_b[0])
    assert V_b[0].shape == (3, d) and R_b[0].shape == (4, d)


def test_build_matches_composed_oracle(rng):
    d = 8
    protos = rng.normal(size=(5, d))
    text = rng.normal(size=(4, d))
    t1 = rng.normal(size=(3, d))
    t2 = rng.normal(size=(2, d))
    params = rand_params(d, seed=10)
    theta = TransformerBlockParams.random(d, 2, Stream(11), scale=0.4)
    V, R, _ = fwd([(0, t1), (1, t2)], protos, text, params, theta, 0.05)
    V, R = np.vstack(V), np.vstack(R)
    assert V.shape == (10, d) and R.shape == (8, d)
    parts_v, parts_r = [], []
    for tier, tokens in ((0, t1), (1, t2)):
        fused = ref_transformer_block(protos, tokens, params.irm[tier])
        seq = np.vstack([fused, tokens])
        out = ref_transformer_block(seq, seq, theta)
        parts_v.append(out[:5])
        parts_r.append(ref_trm(text, tokens, params.trm_w, params.trm_b, 0.2, 0.05))
    assert np.abs(V - np.vstack(parts_v)).max() < 1e-8
    assert np.abs(R - np.vstack(parts_r)).max() < 1e-8


def test_stacked_items_match_single_calls_and_oracle(rng):
    d, N = 8, 3
    protos = rng.normal(size=(N, 5, d))
    text = rng.normal(size=(4, d))
    t1, t2 = rng.normal(size=(N, 3, d)), rng.normal(size=(N, 2, d))
    params = rand_params(d, seed=12)
    theta = TransformerBlockParams.random(d, 2, Stream(13), scale=0.4)
    V, R, _ = fwd([(0, t1), (1, t2)], protos, text, params, theta, 0.05)
    assert [v.shape for v in V] == [(N, 5, d)] * 2 and [r.shape for r in R] == [(N, 4, d)] * 2
    for i in range(N):
        V_i, R_i, _ = fwd([(0, t1[i]), (1, t2[i])], protos[i], text, params, theta, 0.05)
        for tier, tokens in ((0, t1[i]), (1, t2[i])):
            assert np.abs(V[tier][i] - V_i[tier]).max() < 1e-12
            assert np.abs(R[tier][i] - R_i[tier]).max() < 1e-12
            fused = ref_transformer_block(protos[i], tokens, params.irm[tier])
            seq = np.vstack([fused, tokens])
            want_v = ref_transformer_block(seq, seq, theta)[:5]
            assert np.abs(V[tier][i] - want_v).max() < 1e-8
            want_r = ref_trm(text, tokens, params.trm_w, params.trm_b, 0.2, 0.05)
            assert np.abs(R[tier][i] - want_r).max() < 1e-8


def test_cache_free_forward_equals_cached(rng):
    d = 8
    params = rand_params(d, seed=14)
    theta = TransformerBlockParams.random(d, 2, Stream(15), scale=0.4)
    text = rng.normal(size=(4, d))
    for protos, tiers in (
        (rng.normal(size=(5, d)), [(0, rng.normal(size=(3, d))), (1, rng.normal(size=(2, d)))]),
        (rng.normal(size=(2, 5, d)), [(0, rng.normal(size=(2, 3, d)))]),
    ):
        V, R, cache = fwd(tiers, protos, text, params, theta, 0.05)
        V_free, R_free, no_cache = fwd(tiers, protos, text, params, theta, 0.05,
                                       keep_cache=False)
        assert cache is not None and no_cache is None
        assert all(np.array_equal(a, b) for a, b in zip(V + R, V_free + R_free))


# --- parameters -----------------------------------------------------------------

def test_param_count_formula_matches_enumeration():
    for d in (64, 16, 8):
        params = FusionParams.init(d, 4 if d % 4 == 0 else 2, Stream(1))
        assert sum(a.size for _, a in params.tensors()) == trainable_param_count(d)


def test_fusion_params_hold_one_irm_block_per_tier():
    block = TransformerBlockParams.zeros(8, 2)
    for irm in (block, TransformerBlockParams.stack([block]),
                TransformerBlockParams.stack([block] * 3)):
        with pytest.raises(DimMismatch):
            FusionParams(irm=irm, trm_w=np.zeros((16, 8)), trm_b=np.zeros(8), alpha=0.2)


def test_block_param_count_matches():
    for d in (4, 8, 64):
        p = TransformerBlockParams.zeros(d, 2)
        assert sum(a.size for _, a in p.tensors()) == block_param_count(d)


def test_params_share_one_flat_buffer(rng):
    params, source = rand_params(), rand_params(seed=99)
    # every tensor views flat, and flat lists them in wire order
    assert np.array_equal(params.flat, np.concatenate([a.ravel() for _, a in params.tensors()]))
    for name, arr in params.tensors():
        assert np.shares_memory(arr, params.flat), name
    # the stacked tensors reps_fwd reads view flat, one block apart
    for name, arr in params.irm.tensors():
        assert arr.shape[0] == 2 and np.shares_memory(arr, params.flat), name
    d = params.d_model
    tiers = tier_inputs([(0, rng.normal(size=(3, d))), (1, rng.normal(size=(3, d)))],
                        rng.normal(size=(4, d)), 0.05)
    protos, theta = rng.normal(size=(2, d)), TransformerBlockParams.random(d, 2, Stream(5))

    def forward(p):
        V, R, _ = reps_fwd(tiers, protos, p, theta, keep_cache=False)
        return V + R

    want = forward(params)
    assert not all(np.array_equal(a, b) for a, b in zip(forward(source), want))
    source.flat[...] = params.flat  # loads every tensor of source
    for (na, a), (nb, b) in zip(params.tensors(), source.tensors()):
        assert na == nb
        assert np.array_equal(a, b)
    assert all(np.array_equal(a, b) for a, b in zip(forward(source), want))


def test_construction_copies_the_given_tensors():
    # a replace() copy owns its vector: writing it leaves the parameters it
    # copied as they were
    params = rand_params()
    before = params.flat.copy()
    probe = replace(params)
    assert not np.shares_memory(probe.flat, params.flat)
    probe.flat[...] = 1.0
    probe.trm_b[0] = 2.0
    assert params.flat.tobytes() == before.tobytes()


def test_theta_bytes_stable_under_reads(rng):
    theta = TransformerBlockParams.random(8, 2, Stream(12))
    before = theta.to_bytes()
    fwd([(0, rng.normal(size=(3, 8)))], rng.normal(size=(2, 8)),
        rng.normal(size=(4, 8)), rand_params(), theta, 0.01)
    assert theta.to_bytes() == before


# --- gradients through the composition ------------------------------------------------

@pytest.mark.parametrize("m1, m2", [(2, 2), (3, 2)])
def test_reps_bwd_matches_finite_differences(rng, m1, m2):
    # equal tier sizes run as one stacked group, unequal ones as two groups
    from spotlighter.numerics import finite_difference_errors

    d = 8
    protos = rng.normal(size=(3, d))
    text = rng.normal(size=(3, d))
    tiers = tier_inputs([(0, rng.normal(size=(m1, d))), (1, rng.normal(size=(m2, d)))],
                        text, 0.05)
    params = rand_params(d, seed=20)
    theta = TransformerBlockParams.random(d, 2, Stream(21), scale=0.3)
    WV = [rng.normal(size=(3, d)), rng.normal(size=(3, d))]
    WR = [rng.normal(size=(3, d)), rng.normal(size=(3, d))]

    def objective(rows):
        V, R, _ = reps_fwd(tiers, protos, params.over(rows), theta, keep_cache=False)
        return (sum((v * w).sum(axis=(-2, -1)) for v, w in zip(V, WV))
                + sum((r * w).sum(axis=(-2, -1)) for r, w in zip(R, WR)))

    V, R, cache = reps_fwd(tiers, protos, params, theta)
    assert len(cache[1]) == (1 if m1 == m2 else 2)  # tier groups
    # the frozen block ran the K = 3 prototype rows as its only queries
    assert all(theta_cache[1].shape[-2] == 3 for _, _, theta_cache, _, _ in cache[1])
    analytic = reps_bwd(cache, WV, WR)
    errs = finite_difference_errors(objective, params.flat, analytic, 1e-5)
    assert errs.max() < 1e-6
