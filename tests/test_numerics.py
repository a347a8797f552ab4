import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotlighter.errors import DimMismatch, NonPositiveTemperature, NumericError, ZeroVector
from spotlighter.numerics import (
    TENSOR_ORDER,
    TransformerBlockParams,
    cosine_matrix,
    finite_difference_errors,
    normalize_rows,
    softmax_rows,
    transformer_block_batch,
    transformer_block_bwd,
    transformer_block_fwd,
)
from spotlighter.rng import Stream

from .reference_impls import ref_cosine, ref_softmax_extended, ref_transformer_block


# --- L2 normalisation (normalize_rows; a vector is one row) ------------------

def test_l2_normalize_345_triangle():
    assert np.allclose(normalize_rows([3.0, 4.0]), [0.6, 0.8])


def test_l2_normalize_already_unit():
    assert np.allclose(normalize_rows([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(ZeroVector):
        normalize_rows([0.0, 0.0])


def test_l2_normalize_norm_one(rng):
    for _ in range(50):
        v = rng.normal(size=rng.integers(1, 20))
        if np.linalg.norm(v) < 1e-6:
            continue
        assert abs(np.linalg.norm(normalize_rows(v)) - 1.0) < 1e-9


@pytest.mark.parametrize("row", [[1e300, 1e300], [np.nan, 1.0], [np.inf, 0.0]])
def test_normalize_rows_rejects_non_finite_norms(row):
    # unchecked, an overflowing norm gives a zero row and a NaN row passes through
    with pytest.raises(NumericError) as info, np.errstate(over="ignore"):
        normalize_rows([[1.0, 0.0], row])
    assert info.type is NumericError
    assert np.isfinite(normalize_rows([1e150, 1e150])).all()


# --- cosine_matrix -----------------------------------------------------------

def test_cosine_self_similarity():
    assert np.allclose(cosine_matrix([[1.0, 0.0]], [[1.0, 0.0]]), [[1.0]])


def test_cosine_orthogonal():
    assert np.allclose(cosine_matrix([[1.0, 0.0]], [[0.0, 1.0]]), [[0.0]])


def test_cosine_matches_double_loop_oracle(rng):
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(2, 4))
    assert np.abs(cosine_matrix(A, B) - ref_cosine(A, B)).max() < 1e-10


def test_cosine_bounds_and_diagonal(rng):
    A = rng.normal(size=(12, 6))
    C = cosine_matrix(A, A)
    assert C.max() <= 1 + 1e-9 and C.min() >= -1 - 1e-9
    assert np.abs(np.diag(C) - 1.0).max() < 1e-9


def test_cosine_zero_row_raises():
    with pytest.raises(ZeroVector):
        cosine_matrix([[0.0, 0.0]], [[1.0, 0.0]])


def test_cosine_dim_mismatch():
    with pytest.raises(DimMismatch):
        cosine_matrix([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


# --- softmax -----------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(softmax_rows([2.5, 2.5, 2.5], 0.7), np.full(3, 1 / 3))


def test_softmax_analytic_quarter():
    assert np.allclose(softmax_rows([0.0, math.log(3.0)], 1.0), [0.25, 0.75])


def test_softmax_low_temperature_matches_extended_precision(rng):
    x = rng.normal(size=5)
    got = softmax_rows(x, 0.01)
    want = ref_softmax_extended(x, 0.01)
    assert np.abs(got - want).max() < 1e-8


def test_softmax_temperature_validation():
    with pytest.raises(NonPositiveTemperature):
        softmax_rows([1.0, 2.0], 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_softmax_sums_to_one_and_shift_invariant(values, tau):
    x = np.array(values)
    p = softmax_rows(x, tau)
    assert abs(p.sum() - 1.0) < 1e-9
    assert np.all(p >= 0)
    q = softmax_rows(x + 7.25, tau)
    assert np.abs(p - q).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e308, max_value=1e308, allow_nan=False,
                       allow_infinity=False), min_size=1, max_size=8),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_softmax_survives_any_finite_input(values, tau):
    p = softmax_rows(np.array(values), tau)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-9


# --- transformer block -------------------------------------------------------

def _random_params(d, heads, seed, scale=0.4):
    return TransformerBlockParams.random(d, heads, Stream(seed), scale=scale)


def test_block_zero_params_is_identity():
    p = TransformerBlockParams.zeros(4, 2)
    Q = np.arange(12, dtype=float).reshape(3, 4) / 7.0
    KV = np.ones((5, 4))
    out = transformer_block_fwd(Q, KV, p)[0]
    assert np.array_equal(out, Q)


def test_block_single_token_hand_chain():
    # identity projections, zero FFN, unit LN scales: out = LN(KV) + Q
    d = 2
    p = TransformerBlockParams.zeros(d, 1)
    for name in ("wq", "wk", "wv", "wo"):
        getattr(p, name)[...] = np.eye(d)
    p.ln1_g[...] = 1.0
    p.ln2_g[...] = 1.0
    Q = np.array([[1.0, 2.0]])
    KV = np.array([[3.0, 5.0]])
    # hand evaluation: LN of [3, 5] -> mean 4, var 1
    inv = 1.0 / math.sqrt(1.0 + 1e-5)
    expected = Q + np.array([[-inv, inv]])
    out = transformer_block_fwd(Q, KV, p)[0]
    assert np.abs(out - expected).max() < 1e-12


def test_block_matches_loop_reference(rng):
    p = _random_params(8, 2, seed=5)
    Q = rng.normal(size=(3, 8))
    KV = rng.normal(size=(5, 8))
    got = transformer_block_fwd(Q, KV, p)[0]
    want = ref_transformer_block(Q, KV, p)
    assert np.abs(got - want).max() < 1e-8


def test_block_deterministic_and_shape(rng):
    p = _random_params(8, 4, seed=9)
    Q = rng.normal(size=(6, 8))
    KV = rng.normal(size=(4, 8))
    a = transformer_block_fwd(Q, KV, p)[0]
    b = transformer_block_fwd(Q, KV, p)[0]
    assert a.shape == (6, 8)
    assert np.array_equal(a, b)


def test_block_dim_mismatch():
    p = _random_params(8, 2, seed=1)
    with pytest.raises(DimMismatch):
        transformer_block_fwd(np.ones((2, 4)), np.ones((3, 8)), p)


def test_block_width_head_divisibility():
    with pytest.raises(DimMismatch):
        TransformerBlockParams.zeros(6, 4)


def test_block_batch_matches_single(rng):
    p = _random_params(8, 2, seed=17)
    Q = rng.normal(size=(4, 3, 8))
    KV = rng.normal(size=(4, 5, 8))
    batched = transformer_block_batch(Q, KV, p)
    assert batched.shape == (4, 3, 8)
    for i in range(4):
        assert np.abs(batched[i] - ref_transformer_block(Q[i], KV[i], p)).max() < 1e-8


def test_stacked_block_equals_single_blocks_bitwise(rng):
    # one call over two stacked weight sets is the two single-block calls:
    # output, input gradients and each set's weight gradients, bit for bit
    blocks = [_random_params(8, 2, seed=s) for s in (31, 32)]
    stacked = TransformerBlockParams.stack(blocks)
    Q, KV, dY = rng.normal(size=(2, 3, 8)), rng.normal(size=(2, 5, 8)), rng.normal(size=(2, 3, 8))
    out, cache = transformer_block_fwd(Q, KV, stacked)
    dQ, dKV, grads = transformer_block_bwd(cache, dY)
    assert np.array_equal(transformer_block_batch(Q, KV, stacked), out)
    for t, block in enumerate(blocks):
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(stacked[t].tensors(),
                                                                 block.tensors()))
        out_t, cache_t = transformer_block_fwd(Q[t], KV[t], block)
        dQ_t, dKV_t, grads_t = transformer_block_bwd(cache_t, dY[t])
        assert np.array_equal(out[t], out_t)
        assert np.array_equal(dQ[t], dQ_t) and np.array_equal(dKV[t], dKV_t)
        for name in TENSOR_ORDER:
            assert np.array_equal(grads[name][t], grads_t[name]), name


def test_block_input_gradients_alone(rng):
    # a shared weight set over a leading axis (the frozen block over stacked
    # tiers): input gradients only, equal to the per-slice calls
    p = _random_params(8, 2, seed=33)
    X, dY = rng.normal(size=(2, 4, 8)), rng.normal(size=(2, 4, 8))
    dQ, dKV, grads = transformer_block_bwd(transformer_block_fwd(X, X, p)[1], dY,
                                           param_grads=False)
    assert grads is None
    for t in range(2):
        dQ_t, dKV_t, _ = transformer_block_bwd(transformer_block_fwd(X[t], X[t], p)[1], dY[t])
        assert np.array_equal(dQ[t], dQ_t) and np.array_equal(dKV[t], dKV_t)


def test_stacked_block_serves_outer_item_axes(rng):
    # weights stacked on one axis broadcast against the inputs' last leading
    # axis, so an item axis may sit outside the tier axis
    blocks = [_random_params(8, 2, seed=s) for s in (34, 35)]
    stacked = TransformerBlockParams.stack(blocks)
    Q, KV = rng.normal(size=(3, 2, 1, 8)), rng.normal(size=(3, 2, 4, 8))
    out = transformer_block_batch(Q, KV, stacked)
    assert out.shape == (3, 2, 1, 8)
    for t, block in enumerate(blocks):
        assert np.array_equal(out[:, t], transformer_block_batch(Q[:, t], KV[:, t], block))
    # one query set broadcast over both weight sets
    shared = transformer_block_batch(Q[:1, :1], KV[0], stacked)
    for t, block in enumerate(blocks):
        assert np.array_equal(shared[0, t], transformer_block_batch(Q[0, 0], KV[0, t], block))


# --- finite_difference_errors ----------------------------------------------

def test_grad_check_quadratic():
    err = finite_difference_errors(lambda X: X[:, 0] ** 2, np.array([3.0]),
                                   np.array([6.0])).max()
    assert err < 1e-9


def test_grad_check_flags_wrong_gradient():
    err = finite_difference_errors(lambda X: X[:, 0] ** 2, np.array([3.0]),
                                   np.array([6.5])).max()
    assert err > 1e-2


def test_grad_check_rejects_a_non_vector_x0():
    with pytest.raises(DimMismatch):
        finite_difference_errors(lambda X: X.sum(axis=1), np.zeros((2, 3)), np.zeros((2, 3)))


def test_grad_check_rejects_one_value_for_a_block():
    # an objective of one vector, not of a block of rows, would broadcast
    with pytest.raises(DimMismatch):
        finite_difference_errors(lambda X: float(X[0, 0] ** 2), np.array([3.0]),
                                 np.array([6.0]))


def test_grad_check_eps_range():
    with pytest.raises(ValueError):
        finite_difference_errors(lambda X: np.zeros(len(X)), np.zeros(1), np.zeros(1),
                                 eps=1e-2)
