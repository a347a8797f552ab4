"""Finite-difference verification of every trainable operation."""

import numpy as np
import pytest

from spotlighter.config import RunConfig
from spotlighter.errors import NonFiniteLoss
from spotlighter.features import generate_base_novel
from spotlighter.memory_bank import init_bank
from spotlighter.numerics import (
    TransformerBlockParams,
    finite_difference_errors,
    transformer_block_bwd,
    transformer_block_fwd,
)
from spotlighter.objectives import _contrastive_bwd, _contrastive_fwd, loss_item, losses_fwd_bwd
from spotlighter.pipeline import _fast_objective, _front_end, gradcheck_total_loss
from spotlighter.representative import FusionParams, reps_fwd
from spotlighter.rng import Stream


def _block_fd_error(p, Q, KV, W):
    """Worst finite-difference error of every weight gradient of one block
    call (weights with or without leading axes)."""
    ends = np.cumsum([a.size for _, a in p.tensors()])[:-1]

    def objective(flat):
        probe = TransformerBlockParams(n_heads=p.n_heads, **{
            name: chunk.reshape(a.shape)
            for (name, a), chunk in zip(p.tensors(), np.split(flat, ends))})
        out, _ = transformer_block_fwd(Q, KV, probe)
        return float((out * W).sum())

    out, cache = transformer_block_fwd(Q, KV, p)
    _, _, grads = transformer_block_bwd(cache, W)
    x0 = np.concatenate([a.ravel() for _, a in p.tensors()])
    analytic = np.concatenate([grads[n].ravel() for n, _ in p.tensors()])
    return float(finite_difference_errors(objective, x0, analytic, 1e-5).max())


def test_block_gradients_at_100_random_points():
    # tiny width keeps 100 full coordinate sweeps affordable
    d, H = 4, 2
    worst = 0.0
    for point in range(100):
        s = Stream(1000 + point)
        p = TransformerBlockParams.random(d, H, s, ffn_mult=1, scale=0.5)
        worst = max(worst, _block_fd_error(p, s.normals(2, d), s.normals(3, d),
                                           s.normals(2, d)))
        if point % 5 == 0:
            # leading-axis case: two weight sets stacked, one per input slice
            stacked = TransformerBlockParams.stack(
                [p, TransformerBlockParams.random(d, H, s, ffn_mult=1, scale=0.5)])
            worst = max(worst, _block_fd_error(stacked, s.normals(2, 2, d),
                                               s.normals(2, 3, d), s.normals(2, 2, d)))
    assert worst < 1e-4, worst


def test_contrastive_gradients_on_two_class_toy():
    s = Stream(77)
    v_tokens = s.normals(3, 6)
    class_rows = s.normals(2, 2, 6)
    label, tau = 0, 0.05

    loss, cache = _contrastive_fwd(v_tokens, class_rows, label, tau)
    dv_tokens, d_rows = _contrastive_bwd(cache)
    x0 = np.concatenate([v_tokens.ravel(), class_rows.ravel()])
    analytic = np.concatenate([dv_tokens.ravel(), d_rows.ravel()])

    def objective(flat):
        v = flat[:18].reshape(3, 6)
        rows = flat[18:].reshape(2, 2, 6)
        val, _ = _contrastive_fwd(v, rows, label, tau)
        return val

    assert finite_difference_errors(objective, x0, analytic, 1e-5).max() < 1e-4


def test_total_loss_gradients_with_reference_weights():
    cfg = RunConfig(d=8, n_tok=8, n_classes=3, signal_tokens=2, k_act=4,
                    n_proto=2, heads=2, shots=1, test_per_class=1, epochs=0)
    report = gradcheck_total_loss(cfg, n_seeds=3)
    assert report["passed"]
    assert report["max_rel_error"] < 1e-4
    assert set(report["per_group"]) == {name for name, _ in
                                        _expected_groups(cfg)}


def _expected_groups(cfg):
    params = FusionParams.zeros(cfg.d, cfg.heads, ffn_mult=cfg.ffn_mult, alpha=cfg.alpha)
    return params.tensors()


@pytest.mark.parametrize("k_act, n_tiers", [(4, 2), (1, 1)])
def test_probe_value_is_the_training_total(k_act, n_tiers):
    # the finite-difference probe runs the training forward: at the
    # unperturbed parameters it returns the training total, bit for bit
    cfg = RunConfig(d=8, n_tok=8, n_classes=3, signal_tokens=2, k_act=k_act,
                    n_proto=2, heads=2, shots=1, test_per_class=1, epochs=0)
    train_fs, _, _ = generate_base_novel(cfg.synth_spec(), 1, 1)
    X, label = train_fs.tokens[0].astype(float), int(train_fs.labels[0])
    text = train_fs.text_embeddings.astype(float)
    bank = init_bank(text, cfg.n_proto, cfg.init_mode, cfg.bank_sigma, seed=3)
    bank, tiers, local = _front_end(X, label, bank, text, cfg)
    assert len(tiers) == n_tiers
    protos = bank.prototypes[label]
    params = FusionParams.init(cfg.d, cfg.heads, Stream(4), alpha=cfg.alpha, scale=0.1)
    theta = TransformerBlockParams.random(cfg.d, cfg.heads, Stream(5))
    V, R, _ = reps_fwd(tiers, protos, params, theta)
    item = loss_item(text, X, len(tiers), local, label)
    want = losses_fwd_bwd(V, R, item, cfg.loss_weights())[0].total
    objective = _fast_objective(params, tiers, protos, theta, item, cfg.loss_weights())
    assert objective(params.flatten()) == want


def test_gradcheck_detects_corruption(corrupt_gradient):
    cfg = RunConfig(d=4, n_tok=8, n_classes=3, signal_tokens=2, k_act=4,
                    n_proto=2, heads=2, shots=1, test_per_class=1, epochs=0)
    report = gradcheck_total_loss(cfg, n_seeds=1)
    assert not report["passed"]
    assert report["per_group"]["irm0.wq"] > 1e-4 > report["per_group"]["trm.w"]


def test_gradcheck_rejects_large_width():
    cfg = RunConfig(d=32, n_tok=8, n_classes=3, signal_tokens=2, k_act=4,
                    n_proto=2, heads=2, shots=1, test_per_class=1, epochs=0)
    from spotlighter.errors import ConfigError

    with pytest.raises(ConfigError):
        gradcheck_total_loss(cfg, n_seeds=1)


def test_grad_check_raises_on_non_finite():
    def bad(x):
        return float("nan")

    with pytest.raises(NonFiniteLoss):
        finite_difference_errors(bad, np.zeros(2), np.zeros(2))
