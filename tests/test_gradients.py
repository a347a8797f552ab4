"""Finite-difference verification of every trainable operation."""

import numpy as np
import pytest

from spotlighter import numerics, pipeline
from spotlighter.cli import _GRADCHECK_DEFAULTS
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
from spotlighter.objectives import (
    _contrastive_bwd,
    _contrastive_fwd,
    _pool_bwd,
    _pool_fwd,
    loss_item,
    losses_fwd_bwd,
)
from spotlighter.pipeline import _fast_objective, _front_end, gradcheck_total_loss
from spotlighter.representative import FusionParams, reps_fwd
from spotlighter.rng import Stream

from .reference_impls import ref_finite_difference_errors


def _block_fd_error(p, Q, KV, W):
    """Worst finite-difference error of every weight gradient of one block
    call (weights with or without leading axes)."""
    ends = np.cumsum([a.size for _, a in p.tensors()])[:-1]

    def objective(rows):
        # the probe rows become one more leading weight axis, which the block
        # broadcasts against the inputs: one call serves the whole block
        probe = TransformerBlockParams(n_heads=p.n_heads, **{
            name: chunk.reshape(len(rows), *a.shape)
            for (name, a), chunk in zip(p.tensors(), np.split(rows, ends, axis=1))})
        out, _ = transformer_block_fwd(Q, KV, probe)
        return (out * W).reshape(len(rows), -1).sum(axis=1)

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
        p = TransformerBlockParams.random(d, H, s, scale=0.5)
        worst = max(worst, _block_fd_error(p, s.normals(2, d), s.normals(3, d),
                                           s.normals(2, d)))
        if point % 5 == 0:
            # leading-axis case: two weight sets stacked, one per input slice
            stacked = TransformerBlockParams.stack(
                [p, TransformerBlockParams.random(d, H, s, scale=0.5)])
            worst = max(worst, _block_fd_error(stacked, s.normals(2, 2, d),
                                               s.normals(2, 3, d), s.normals(2, 2, d)))
    assert worst < 1e-4, worst


def test_contrastive_gradients_on_two_class_toy():
    s = Stream(77)
    v_tokens = s.normals(3, 6)
    class_rows = s.normals(2, 2, 6)
    label, tau = 0, 0.05

    v, v_cache = _pool_fwd(v_tokens)
    loss, cache = _contrastive_fwd(v, class_rows, label, tau)
    dv, d_rows = _contrastive_bwd(cache)
    dv_tokens = _pool_bwd(v_cache, dv)
    x0 = np.concatenate([v_tokens.ravel(), class_rows.ravel()])
    analytic = np.concatenate([dv_tokens.ravel(), d_rows.ravel()])

    def objective(rows):
        v = rows[:, :18].reshape(-1, 3, 6)
        class_rows = rows[:, 18:].reshape(-1, 2, 2, 6)
        val, _ = _contrastive_fwd(_pool_fwd(v)[0], class_rows, label, tau)
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
    params = FusionParams.zeros(cfg.d, cfg.heads, alpha=pipeline._ALPHA)
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
    bank = init_bank(text, cfg.n_proto, cfg.init_mode, 0.05, seed=3)
    bank, tiers, local = _front_end(X, label, bank, text, cfg)
    assert len(tiers) == n_tiers
    protos = bank.prototypes[label]
    params = FusionParams.init(cfg.d, cfg.heads, Stream(4), alpha=pipeline._ALPHA, scale=0.1)
    theta = TransformerBlockParams.random(cfg.d, cfg.heads, Stream(5))
    V, R, _ = reps_fwd(tiers, protos, params, theta)
    item = loss_item(text, X, len(tiers), local, label)
    want = losses_fwd_bwd(V, R, item, cfg.loss_weights())[0].total
    objective = _fast_objective(params, tiers, protos, theta, item, cfg.loss_weights())
    assert objective(params.flat[None])[0] == want
    # a probe elsewhere leaves the parameters it was built from as they were
    before = params.flat.copy()
    objective(before[None] + 1e-3)
    assert params.flat.tobytes() == before.tobytes()


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


def _shrink_row(R_list):
    R_list[0][0] *= 1e-6 / np.linalg.norm(R_list[0][0])


def _cancel_tier_mean(R_list):
    R_list[1][0] = 1e-6 - R_list[0][0]


@pytest.mark.parametrize("degrade", [_shrink_row, _cancel_tier_mean])
def test_kink_safe_draw_guards_the_norms_the_objective_divides_by(monkeypatch, degrade):
    # every draw gets a near-zero norm the objective divides by: one class
    # row of a tier (the per-tier terms), or one class's mean over the tiers
    # (the joint term). The |R - text| margin passes at this seed, so only
    # the norm guard can refuse the draws.
    def degraded(*args, **kwargs):
        V_list, R_list, cache = reps_fwd(*args, **kwargs)
        R_list = [R.copy() for R in R_list]
        degrade(R_list)
        return V_list, R_list, cache

    monkeypatch.setattr(pipeline, "reps_fwd", degraded)
    cfg = RunConfig().with_overrides(**_GRADCHECK_DEFAULTS, seed=7)
    with pytest.raises(NonFiniteLoss, match="could not find a kink-safe parameter draw"):
        gradcheck_total_loss(cfg, n_seeds=1)


def test_grad_check_raises_on_non_finite():
    def bad(rows):
        return np.full(len(rows), np.nan)

    with pytest.raises(NonFiniteLoss):
        finite_difference_errors(bad, np.zeros(2), np.zeros(2))


def test_grad_check_names_the_first_non_finite_coordinate(monkeypatch):
    # rows 5 (coordinate 2 lowered), 6 and 7 (coordinate 3) are infinite;
    # blocks of 5 rows put the first of them at the start of the second block
    monkeypatch.setattr(numerics, "_FD_BLOCK", 5)

    def bad(rows):
        return np.where((rows[:, 2] < 0) | (rows[:, 3] != 0), np.inf, 0.0)

    with pytest.raises(NonFiniteLoss, match="coordinate 2$"):
        finite_difference_errors(bad, np.zeros(4), np.zeros(4))


def _gradcheck_probes(monkeypatch, seed):
    """(objective, x0, analytic, eps) of every seed `gradcheck_total_loss`
    checks at the CLI's config, as it hands them to the harness."""
    calls = []

    def capture(f, x0, analytic, eps):
        calls.append((f, x0.copy(), analytic, eps))
        return finite_difference_errors(f, x0, analytic, eps)

    monkeypatch.setattr(pipeline, "finite_difference_errors", capture)
    cfg = RunConfig().with_overrides(**_GRADCHECK_DEFAULTS, seed=seed)
    gradcheck_total_loss(cfg, n_seeds=2)
    return calls


@pytest.mark.parametrize("block", [numerics._FD_BLOCK, 1, 7])
def test_blocked_probes_equal_the_serial_loop_bitwise(monkeypatch, block):
    # the oracle probes one vector at a time through the forward without a
    # probe axis; the harness probes blocks of rows, of any size (1, and 7,
    # which divides no 2n here and splits a coordinate's two probes across
    # blocks), and must return the same bytes
    calls = _gradcheck_probes(monkeypatch, seed=3)
    assert len(calls) == 2
    monkeypatch.setattr(numerics, "_FD_BLOCK", block)
    for f, x0, analytic, eps in calls:
        assert (2 * x0.size) % 7 != 0
        want = ref_finite_difference_errors(f, x0, analytic, eps)
        got = finite_difference_errors(f, x0, analytic, eps)
        assert got.tobytes() == want.tobytes()
