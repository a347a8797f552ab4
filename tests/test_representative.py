import numpy as np

from spotlighter.numerics import (
    TransformerBlockParams,
    block_param_count,
    normalize_rows,
    transformer_block_fwd,
)
from spotlighter.representative import (
    FrozenTheta,
    FusionParams,
    reps_bwd,
    reps_fwd,
    trainable_param_count,
)
from spotlighter.rng import Stream

from .reference_impls import ref_transformer_block, ref_trm


def rand_params(d=8, heads=2, seed=3, scale=0.3, shared=False, alpha=0.2):
    return FusionParams.init(d, heads, Stream(seed), ffn_mult=2, alpha=alpha,
                             shared_irm=shared, scale=scale)


def one_tier(tokens, protos, text, params, theta, temperature=0.01):
    """(V, R) of a single tier-0 pass through reps_fwd."""
    V, R, _ = reps_fwd([(0, tokens)], protos, text, params, theta, temperature)
    return V[0], R[0]


# --- IRM: prototypes cross-attend over tier tokens ---------------------------------

def test_irm_zero_params_residual_identity(rng):
    protos = rng.normal(size=(5, 8))
    tier = rng.normal(size=(6, 8))
    theta = FrozenTheta.init(8, 2, Stream(5), scale=0.4)
    V, _ = one_tier(tier, protos, rng.normal(size=(3, 8)),
                    FusionParams.zeros(8, 2), theta)
    # a zero IRM block hands the prototypes to the frozen block unchanged
    seq = np.vstack([protos, tier])
    assert np.array_equal(V, transformer_block_fwd(seq, seq, theta.block)[0][:5])


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
    out, _ = transformer_block_fwd(seq, seq, FrozenTheta.zeros(8, 2).block)
    assert np.array_equal(out[:4], fused)
    assert np.array_equal(out[4:], tier)


def test_extract_matches_reference_self_attention(rng):
    theta = FrozenTheta.init(8, 2, Stream(6), scale=0.4)
    protos = rng.normal(size=(1, 8))
    tier = rng.normal(size=(1, 8))
    V, _ = one_tier(tier, protos, rng.normal(size=(3, 8)),
                    FusionParams.zeros(8, 2), theta)
    seq = np.vstack([protos, tier])
    want = ref_transformer_block(seq, seq, theta.block)
    assert np.abs(V - want[:1]).max() < 1e-8


def test_extract_row_counts(rng):
    theta = FrozenTheta.init(8, 2, Stream(7))
    for K, m in [(2, 5), (4, 1), (1, 1)]:
        V, R = one_tier(rng.normal(size=(m, 8)), rng.normal(size=(K, 8)),
                        rng.normal(size=(3, 8)), rand_params(), theta)
        assert V.shape == (K, 8) and R.shape == (3, 8)


# --- TRM: residual linear fusion of text tokens with tier aggregates ---------------

def test_trm_alpha_zero_is_identity(rng):
    text = rng.normal(size=(4, 8))
    tier = rng.normal(size=(5, 8))
    _, R = one_tier(tier, rng.normal(size=(2, 8)), text, rand_params(alpha=0.0),
                    FrozenTheta.zeros(8, 2))
    assert np.array_equal(R, text)


def test_trm_single_candidate_softmax(rng):
    text = normalize_rows(rng.normal(size=(3, 8)))
    tier = rng.normal(size=(1, 8))
    p = rand_params(alpha=0.5)
    _, R = one_tier(tier, rng.normal(size=(2, 8)), text, p, FrozenTheta.zeros(8, 2))
    # one candidate takes all the matching weight
    want = 0.5 * (np.hstack([text, np.tile(tier[0], (3, 1))]) @ p.trm_w + p.trm_b) + text
    assert np.abs(R - want).max() < 1e-12


def test_trm_matches_loop_reference(rng):
    text = rng.normal(size=(4, 8))
    tier = rng.normal(size=(6, 8))
    p = rand_params(seed=9)
    _, got = one_tier(tier, rng.normal(size=(2, 8)), text, p,
                      FrozenTheta.zeros(8, 2), 0.05)
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
    _, R = one_tier(tier, rng.normal(size=(2, d)), text, p, FrozenTheta.zeros(d, 2))
    assert np.abs((R - text)[:, 0] - 1.0).max() < 1e-9


# --- the full chain over both tiers ------------------------------------------------

def test_build_zero_params_residual_chain(rng):
    d = 8
    protos = normalize_rows(rng.normal(size=(3, d)))
    text = normalize_rows(rng.normal(size=(4, d)))
    t1 = rng.normal(size=(2, d))
    t2 = rng.normal(size=(2, d))
    params = FusionParams.zeros(d, 2, alpha=0.0)
    theta = FrozenTheta.zeros(d, 2)
    V, R, _ = reps_fwd([(0, t1), (1, t2)], protos, text, params, theta, 0.01)
    assert np.array_equal(np.vstack(V), np.vstack([protos, protos]))
    assert np.array_equal(np.vstack(R), np.vstack([text, text]))


def test_build_empty_tier_is_tier1_only(rng):
    d = 8
    protos = rng.normal(size=(3, d))
    text = rng.normal(size=(4, d))
    t1 = rng.normal(size=(2, d))
    params = rand_params(d)
    theta = FrozenTheta.init(d, 2, Stream(8))
    V_a, R_a, _ = reps_fwd([(0, t1), (1, np.zeros((0, d)))], protos,
                           text, params, theta, 0.01)
    V_b, R_b, _ = reps_fwd([(0, t1)], protos, text, params, theta, 0.01)
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
    theta = FrozenTheta.init(d, 2, Stream(11), scale=0.4)
    V, R, _ = reps_fwd([(0, t1), (1, t2)], protos, text, params, theta, 0.05)
    V, R = np.vstack(V), np.vstack(R)
    assert V.shape == (10, d) and R.shape == (8, d)
    parts_v, parts_r = [], []
    for tier, tokens in ((0, t1), (1, t2)):
        fused = ref_transformer_block(protos, tokens, params.irm[tier])
        seq = np.vstack([fused, tokens])
        out = ref_transformer_block(seq, seq, theta.block)
        parts_v.append(out[:5])
        parts_r.append(ref_trm(text, tokens, params.trm_w, params.trm_b, 0.2, 0.05))
    assert np.abs(V - np.vstack(parts_v)).max() < 1e-8
    assert np.abs(R - np.vstack(parts_r)).max() < 1e-8


def test_shared_irm_uses_one_block(rng):
    d = 8
    params = rand_params(d, shared=True)
    assert len(params.irm) == 1
    protos = rng.normal(size=(2, d))
    text = rng.normal(size=(3, d))
    tokens = rng.normal(size=(2, d))
    V, _, _ = reps_fwd([(0, tokens), (1, tokens)], protos, text,
                       params, FrozenTheta.zeros(d, 2), 0.01)
    assert np.array_equal(V[0], V[1])


# --- parameters -----------------------------------------------------------------

def test_param_count_formula_matches_enumeration():
    for d, e, shared in [(64, 2, False), (64, 2, True), (16, 1, False), (8, 4, False)]:
        params = FusionParams.init(d, 4 if d % 4 == 0 else 2, Stream(1),
                                   ffn_mult=e, shared_irm=shared)
        assert params.n_params() == trainable_param_count(d, e, shared)


def test_block_param_count_matches():
    for d, e in [(4, 1), (8, 2), (64, 2)]:
        p = TransformerBlockParams.zeros(d, 2, e)
        assert p.n_params() == block_param_count(d, e)


def test_flatten_roundtrip(rng):
    params = rand_params()
    flat = params.flatten()
    other = rand_params(seed=99)
    other.load_flat(flat)
    assert np.array_equal(other.flatten(), flat)
    for (na, a), (nb, b) in zip(params.tensors(), other.tensors()):
        assert na == nb
        assert np.array_equal(a, b)


def test_theta_bytes_stable_under_reads(rng):
    theta = FrozenTheta.init(8, 2, Stream(12))
    before = theta.to_bytes()
    reps_fwd([(0, rng.normal(size=(3, 8)))], rng.normal(size=(2, 8)),
             rng.normal(size=(4, 8)), rand_params(), theta, 0.01)
    assert theta.to_bytes() == before


# --- gradients through the composition ------------------------------------------------

def test_reps_bwd_matches_finite_differences(rng):
    from spotlighter.numerics import finite_difference_errors

    d = 8
    protos = rng.normal(size=(3, d))
    text = rng.normal(size=(3, d))
    tiers = [(0, rng.normal(size=(2, d))), (1, rng.normal(size=(2, d)))]
    params = rand_params(d, seed=20)
    theta = FrozenTheta.init(d, 2, Stream(21), scale=0.3)
    WV = [rng.normal(size=(3, d)), rng.normal(size=(3, d))]
    WR = [rng.normal(size=(3, d)), rng.normal(size=(3, d))]

    def objective(flat):
        work = rand_params(d, seed=20)
        work.load_flat(flat)
        V, R, _ = reps_fwd(tiers, protos, text, work, theta, 0.05)
        return float(sum((v * w).sum() for v, w in zip(V, WV))
                     + sum((r * w).sum() for r, w in zip(R, WR)))

    V, R, cache = reps_fwd(tiers, protos, text, params, theta, 0.05)
    grads = reps_bwd(cache, WV, WR)
    analytic = np.concatenate([grads[name].ravel() for name, _ in params.tensors()])
    errs = finite_difference_errors(objective, params.flatten(), analytic, 1e-5)
    assert errs.max() < 1e-6
