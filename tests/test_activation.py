import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotlighter.activation import (
    VARIANTS,
    combine_scores,
    sample_scores,
    select_activated,
    semantic_scores,
    stratify,
)
from spotlighter.errors import DimMismatch, EmptySelection, KOutOfRange
from spotlighter.numerics import normalize_rows

from .reference_impls import ref_cosine, ref_topk_indices


# --- scores ---------------------------------------------------------------------

def test_sample_score_parallel_and_orthogonal():
    tokens = np.array([[2.0, 0.0], [0.0, 5.0]])
    text = np.array([1.0, 0.0])
    s = sample_scores(tokens, text)
    assert abs(s[0] - 1.0) < 1e-12
    assert abs(s[1]) < 1e-12


def test_sample_scores_match_rowwise_oracle(rng):
    tokens = rng.normal(size=(32, 6))
    text = rng.normal(size=6)
    want = ref_cosine(tokens, text[None, :])[:, 0]
    assert np.abs(sample_scores(tokens, text) - want).max() < 1e-10
    # stacked items, each against its own text row
    stack, texts = rng.normal(size=(3, 32, 6)), rng.normal(size=(3, 6))
    got = sample_scores(stack, texts)
    assert got.shape == (3, 32)
    for i in range(3):
        assert np.abs(got[i] - sample_scores(stack[i], texts[i])).max() < 1e-12
        assert np.abs(got[i] - ref_cosine(stack[i], texts[i][None, :])[:, 0]).max() < 1e-10
    # a text matrix where one row per item is due is a shape error (exit 2)
    with pytest.raises(DimMismatch):
        sample_scores(np.ones((3, 4)), np.ones((2, 4)))


def test_semantic_score_identity_and_k1(rng):
    protos = normalize_rows(rng.normal(size=(3, 5)))
    s = semantic_scores(protos[1][None, :], protos)
    assert abs(s[0] - 1.0) < 1e-12
    tokens = rng.normal(size=(4, 5))
    one = semantic_scores(tokens, protos[:1])
    assert np.abs(one - ref_cosine(tokens, protos[:1])[:, 0]).max() < 1e-12


def test_semantic_scores_match_max_oracle(rng):
    tokens = rng.normal(size=(16, 7))
    protos = rng.normal(size=(5, 7))
    want = ref_cosine(tokens, protos).max(axis=1)
    assert np.abs(semantic_scores(tokens, protos) - want).max() < 1e-10
    # stacked items, each against its own prototypes
    stack, stack_protos = rng.normal(size=(3, 16, 7)), rng.normal(size=(3, 5, 7))
    got = semantic_scores(stack, stack_protos)
    assert got.shape == (3, 16)
    for i in range(3):
        assert np.abs(got[i] - semantic_scores(stack[i], stack_protos[i])).max() < 1e-12
        assert np.abs(got[i] - ref_cosine(stack[i], stack_protos[i]).max(axis=1)).max() < 1e-10


def test_combined_is_exact_sum(rng):
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    assert np.array_equal(combine_scores(a, b), a + b)
    assert np.array_equal(combine_scores(a, None), a)


# --- selection ---------------------------------------------------------------------

def test_select_whole_set_is_descending_sort(rng):
    scores = rng.normal(size=9)
    idx = select_activated(scores, 9, "top-k")
    assert np.array_equal(np.sort(idx), np.arange(9))
    assert np.all(np.diff(scores[idx]) <= 0)


def test_select_small_example():
    assert list(select_activated(np.array([0.9, 0.1, 0.5]), 2, "top-k")) == [0, 2]


def test_select_tie_breaks_to_lower_index():
    scores = np.array([0.5, 0.9, 0.5, 0.9])
    assert list(select_activated(scores, 2, "top-k")) == [1, 3]
    assert list(select_activated(scores, 2, "bottom-k")) == [0, 2]


def test_select_matches_sort_oracle_all_variants(rng):
    for _ in range(100):
        n = int(rng.integers(2, 40))
        scores = rng.normal(size=n)
        if rng.random() < 0.3:  # force ties
            scores = np.round(scores, 1)
        k = int(rng.integers(1, n + 1))
        for variant in VARIANTS:
            got = list(select_activated(scores, k, variant))
            assert got == ref_topk_indices(scores, k, variant), (variant, scores, k)


def test_select_k_validation(rng):
    with pytest.raises(KOutOfRange):
        select_activated(rng.normal(size=5), 0, "top-k")
    with pytest.raises(KOutOfRange):
        select_activated(rng.normal(size=5), 6, "top-k")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-10240, max_value=10240), min_size=2, max_size=24),
       st.integers(min_value=1, max_value=24),
       st.integers(min_value=-5120, max_value=5120))
def test_select_shift_invariance(values, k, shift):
    # dyadic grid keeps the shifted sums exactly representable
    scores = np.array(values, dtype=np.float64) * 2.0**-10
    k = min(k, len(values))
    base = list(select_activated(scores, k, "top-k"))
    shifted = list(select_activated(scores + shift * 2.0**-10, k, "top-k"))
    assert base == shifted


def test_select_permutation_equivariance(rng):
    scores = rng.normal(size=12)
    k = 5
    perm = rng.permutation(12)
    base = select_activated(scores, k, "top-k")
    permuted = select_activated(scores[perm], k, "top-k")
    # ties absent: position of selected scores must correspond
    assert np.allclose(np.sort(scores[base]), np.sort(scores[perm][permuted]))


# --- stratification ---------------------------------------------------------------------

def test_stratify_single_token(rng):
    tokens = rng.normal(size=(5, 4))
    protos = rng.normal(size=(2, 4))
    sel = np.array([3])
    t1, t2 = stratify(sel, rng.normal(size=5), tokens, protos, recalc_on=False)
    assert list(t1) == [3] and t2.size == 0


def test_stratify_halves_by_score():
    combined = np.array([0.9, 0.8, 0.1, 0.4, 0.6])
    sel = np.array([0, 1, 4, 3])
    tokens = np.eye(5)[:, :4] + 0.1
    protos = np.ones((1, 4))
    t1, t2 = stratify(sel, combined, tokens, protos, recalc_on=False)
    assert list(t1) == [0, 1]
    assert list(t2) == [4, 3]
    assert len(t1) == (len(sel) + 1) // 2


def test_stratify_partition_property(rng):
    combined = rng.normal(size=10)
    sel = select_activated(combined, 7, "top-k")
    t1, t2 = stratify(sel, combined, rng.normal(size=(10, 4)),
                      rng.normal(size=(3, 4)), recalc_on=False)
    assert sorted(list(t1) + list(t2)) == sorted(sel.tolist())
    assert set(t1).isdisjoint(t2)
    assert len(t1) == 4 and len(t2) == 3
    # stacked items split exactly as one item at a time
    combined = rng.normal(size=(4, 10))
    tokens, protos = rng.normal(size=(4, 10, 4)), rng.normal(size=(4, 3, 4))
    sel = np.stack([select_activated(row, 7, "top-k") for row in combined])
    for recalc in (False, True):
        t1, t2 = stratify(sel, combined, tokens, protos, recalc_on=recalc)
        assert t1.shape == (4, 4) and t2.shape == (4, 3)
        for i in range(4):
            w1, w2 = stratify(sel[i], combined[i], tokens[i], protos[i], recalc_on=recalc)
            assert np.array_equal(t1[i], w1) and np.array_equal(t2[i], w2)


def test_stratify_recalc_follows_new_ranking(rng):
    # prototypes chosen so semantic ranking inverts the combined ranking
    tokens = normalize_rows(rng.normal(size=(6, 8)))
    combined = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    sel = np.array([0, 1, 2, 3])
    protos = tokens[3][None, :]  # token 3 becomes the best semantic match
    t1, t2 = stratify(sel, combined, tokens, protos, recalc_on=True)
    recomputed = ref_cosine(tokens[sel], protos).max(axis=1)
    order = sorted(range(4), key=lambda i: (-recomputed[i], sel[i]))
    assert list(t1) == [sel[i] for i in order[:2]]
    assert list(t2) == [sel[i] for i in order[2:]]
    assert t1[0] == 3


def test_stratify_empty_selection_rejected(rng):
    with pytest.raises(EmptySelection):
        stratify(np.array([], dtype=int), rng.normal(size=4),
                 rng.normal(size=(4, 4)), rng.normal(size=(2, 4)), False)
