import math

import numpy as np
import pytest

from spotlighter.errors import InvalidK, LabelOutOfRange
from spotlighter.memory_bank import (
    Assignment,
    MemoryBank,
    assign_tokens,
    init_bank,
    local_loss,
    match_class,
    momentum_update,
)
from spotlighter.numerics import normalize_rows

from .reference_impls import ref_cosine


def unit(v):
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def text_rows(rng, C, d):
    return normalize_rows(rng.normal(size=(C, d)))


# --- init ----------------------------------------------------------------------

def test_text_seeded_zero_jitter_copies_text(rng):
    text = text_rows(rng, 4, 8)
    bank = init_bank(text, 3, "text", 0.0, seed=1)
    for c in range(4):
        for k in range(3):
            assert np.allclose(bank.prototypes[c, k], unit(text[c]), atol=1e-12)


def test_bank_storage_ten_kb_per_category(rng):
    text = text_rows(rng, 3, 512)
    bank = init_bank(text, 5, "text", 0.1, seed=2)
    per_category = bank.prototypes.astype(np.float32).nbytes // bank.n_classes
    assert per_category == 5 * 512 * 4 == 10240


def test_random_init_deterministic(rng):
    text = text_rows(rng, 4, 8)
    a = init_bank(text, 2, "random", 0.0, seed=5)
    b = init_bank(text, 2, "random", 0.0, seed=5)
    assert np.array_equal(a.prototypes, b.prototypes)
    c = init_bank(text, 2, "random", 0.0, seed=6)
    assert not np.array_equal(a.prototypes, c.prototypes)


def test_init_rejects_bad_k(rng):
    with pytest.raises(InvalidK):
        init_bank(text_rows(rng, 2, 4), 0, "text", 0.0, seed=1)


# --- match_class ----------------------------------------------------------------

def test_match_class_returns_seeded_class(rng):
    text = text_rows(rng, 5, 16)
    bank = init_bank(text, 3, "text", 0.0, seed=3)
    assert match_class(text[2].astype(float), bank) == 2


def test_match_class_orthogonal_construction():
    # class 0 prototypes on axis 0; others far away on axes 2, 3
    protos = np.zeros((3, 1, 4))
    protos[0, 0] = [1, 0, 0, 0]
    protos[1, 0] = [0, 0, 1, 0]
    protos[2, 0] = [0, 0, 0, 1]
    bank = MemoryBank(protos, beta=0.8)
    assert match_class(np.array([0.9, 0.1, 0.0, 0.0]), bank) == 0


def test_match_class_scale_invariant(rng):
    text = text_rows(rng, 4, 8)
    bank = init_bank(text, 2, "text", 0.2, seed=9)
    q = rng.normal(size=8)
    assert match_class(q, bank) == match_class(3.7 * q, bank)


def test_match_class_agrees_with_brute_force(rng):
    text = text_rows(rng, 10, 12)
    bank = init_bank(text, 4, "random", 0.0, seed=11)
    queries = rng.normal(size=(20, 12))
    for q in queries:
        best, best_val = None, -np.inf
        for c in range(10):
            for k in range(4):
                val = ref_cosine(q[None, :], bank.prototypes[c, k][None, :])[0, 0]
                if val > best_val:
                    best, best_val = c, val
        assert match_class(q, bank) == best
    # stacked queries give one category per row, as the one-query call does
    assert match_class(queries, bank).tolist() == [match_class(q, bank) for q in queries]


# --- assign_tokens ----------------------------------------------------------------

def test_assignment_picks_matching_prototype():
    protos = np.eye(4)[:4]
    tok = np.array([[0.0, 0.0, 0.0, 1.0]])
    a = assign_tokens(tok, protos, 0.01)
    assert a.hard[0] == 3
    assert a.D[0, 3] > 0.99


def test_assignment_uniform_for_identical_prototypes(rng):
    p = unit(rng.normal(size=6))
    protos = np.tile(p, (5, 1))
    a = assign_tokens(rng.normal(size=(3, 6)), protos, 0.5)
    assert np.abs(a.D - 0.2).max() < 1e-12
    assert np.all(a.hard == 0)  # ties break to the lowest index


def test_assignment_matches_loop_oracle(rng):
    tokens = rng.normal(size=(50, 8))
    protos = normalize_rows(rng.normal(size=(5, 8)))
    a = assign_tokens(tokens, protos, 0.3)
    sims = ref_cosine(tokens, protos) / 0.3
    for i in range(50):
        row = np.exp(sims[i] - sims[i].max())
        row /= row.sum()
        assert np.abs(a.D[i] - row).max() < 1e-9
        assert a.hard[i] == int(np.argmax(row))
    assert np.abs(a.D.sum(axis=1) - 1.0).max() < 1e-9


# --- momentum_update ----------------------------------------------------------------

def test_beta_one_freezes_bank_bit_exact(rng):
    text = text_rows(rng, 3, 8)
    bank = init_bank(text, 2, "text", 0.1, seed=4, beta=1.0)
    before = bank.prototypes.tobytes()
    tokens = rng.normal(size=(6, 8))
    for _ in range(100):
        a = assign_tokens(tokens, bank.prototypes[1], 0.01)
        bank = momentum_update(bank, 1, a, tokens)
    assert bank.prototypes.tobytes() == before


def test_hand_evaluated_update():
    protos = np.zeros((1, 1, 2))
    protos[0, 0] = [1.0, 0.0]
    bank = MemoryBank(protos, beta=0.8)
    assignment = Assignment(D=np.array([[1.0]]), hard=np.array([0]))
    updated = momentum_update(bank, 0, assignment, np.array([[0.0, 1.0]]))
    assert np.allclose(updated.prototypes[0, 0], np.array([0.8, 0.2]) / np.sqrt(0.68),
                       atol=1e-15)


def test_beta_zero_single_token_replaces_prototype(rng):
    protos = normalize_rows(rng.normal(size=(1, 1, 4))).reshape(1, 1, 4)
    bank = MemoryBank(protos.copy(), beta=0.0)
    tok = rng.normal(size=(1, 4))
    assignment = assign_tokens(tok, bank.prototypes[0], 0.01)
    updated = momentum_update(bank, 0, assignment, tok)
    assert np.allclose(updated.prototypes[0, 0], tok[0] / np.linalg.norm(tok[0]), atol=1e-15)


def test_empty_bucket_untouched(rng):
    text = text_rows(rng, 2, 6)
    bank = init_bank(text, 3, "text", 0.3, seed=8)
    tok = bank.prototypes[0, 1][None, :] * 1.0
    a = assign_tokens(tok, bank.prototypes[0], 0.001)
    assert a.hard[0] == 1
    updated = momentum_update(bank, 0, a, tok)
    for j in (0, 2):
        assert updated.prototypes[0, j].tobytes() == bank.prototypes[0, j].tobytes()


def test_update_leaves_other_categories_untouched(rng):
    text = text_rows(rng, 4, 6)
    bank = init_bank(text, 2, "text", 0.2, seed=12)
    tokens = rng.normal(size=(5, 6))
    a = assign_tokens(tokens, bank.prototypes[2], 0.01)
    updated = momentum_update(bank, 2, a, tokens)
    for c in (0, 1, 3):
        assert updated.prototypes[c].tobytes() == bank.prototypes[c].tobytes()
    assert not np.array_equal(updated.prototypes[2], bank.prototypes[2])


def test_update_is_functional(rng):
    text = text_rows(rng, 2, 6)
    bank = init_bank(text, 2, "text", 0.2, seed=13)
    before = bank.prototypes.copy()
    tokens = rng.normal(size=(4, 6))
    a = assign_tokens(tokens, bank.prototypes[0], 0.01)
    momentum_update(bank, 0, a, tokens)
    assert np.array_equal(bank.prototypes, before)


def test_ema_displacement_decays_under_replay(rng):
    text = text_rows(rng, 3, 16)
    bank = init_bank(text, 2, "text", 0.1, seed=21, beta=0.8)
    tokens = rng.normal(size=(8, 16))
    disp = []
    for _ in range(40):
        prev = bank.prototypes[1].copy()
        a = assign_tokens(tokens, bank.prototypes[1], 0.01)
        bank = momentum_update(bank, 1, a, tokens)
        disp.append(float(np.linalg.norm(bank.prototypes[1] - prev)))
    assert disp[-1] < 1e-3 * disp[0]


# --- local loss ----------------------------------------------------------------

def test_local_loss_perfect_alignment(rng):
    text = text_rows(rng, 4, 16)
    bank = init_bank(text, 2, "text", 0.0, seed=14)
    tokens = np.tile(bank.prototypes[1, 0], (5, 1))
    assert local_loss(bank, tokens, 1, 0.01) < 0.01


def test_local_loss_uniform_when_prototypes_identical(rng):
    p = unit(rng.normal(size=8))
    protos = np.tile(p, (6, 3, 1))
    bank = MemoryBank(protos, beta=0.8)
    tokens = rng.normal(size=(4, 8))
    assert abs(local_loss(bank, tokens, 2, 0.01) - math.log(6)) < 1e-9


def test_local_loss_matches_loop_oracle(rng):
    text = text_rows(rng, 3, 8)
    bank = init_bank(text, 2, "text", 0.4, seed=15)
    tokens = rng.normal(size=(6, 8))
    label, tau = 1, 0.05
    sims = ref_cosine(tokens, bank.prototypes.reshape(-1, 8)).reshape(6, 3, 2)
    logits = sims.max(axis=2).mean(axis=0) / tau
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    want = -math.log(probs[label])
    assert abs(local_loss(bank, tokens, label, tau) - want) < 1e-8


def test_local_loss_label_validation(rng):
    text = text_rows(rng, 3, 8)
    bank = init_bank(text, 2, "text", 0.0, seed=16)
    with pytest.raises(LabelOutOfRange):
        local_loss(bank, rng.normal(size=(2, 8)), 3, 0.01)
