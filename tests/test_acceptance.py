"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavyweight pieces
(the 72-cell sweep, the 100-seed gradient check, the reference training run)
stay inside their stated runtime budgets on a desktop-class machine.
"""

import csv
import json
import time

import numpy as np
import pytest

from spotlighter.activation import VARIANTS, select_activated
from spotlighter.cli import EXIT_OK, main
from spotlighter.config import RunConfig
from spotlighter.features import generate_base_novel
from spotlighter.memory_bank import assign_tokens, init_bank, match_class, momentum_update
from spotlighter.numerics import TransformerBlockParams, normalize_rows
from spotlighter.pipeline import (
    bench_throughput,
    evaluate,
    flop_count_inference,
    harmonic_mean,
    save_state,
    train,
)
from spotlighter.representative import FusionParams, reps_fwd, tier_inputs

from .reference_impls import ref_cosine, ref_topk_indices


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{label}]: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} ({label}): {detail}"


@pytest.fixture(scope="module")
def default_config():
    return RunConfig()  # seed 7, 10+10 classes, 16-shot, d=64, 32 tokens


@pytest.fixture(scope="module")
def default_episode(default_config):
    cfg = default_config
    return generate_base_novel(cfg.synth_spec(), cfg.shots, cfg.test_per_class)


@pytest.fixture(scope="module")
def default_state(default_config, default_episode):
    base_train, _, _ = default_episode
    return train(default_config, base_train)


def test_criterion_1_metric_fidelity():
    errs = [
        abs(harmonic_mean(77.62, 71.71) - 74.55),
        abs(harmonic_mean(69.34, 74.22) - 71.70),
    ]
    report(1, "metric fidelity", max(errs) <= 0.01,
           f"harmonic-mean deviations {[round(e, 5) for e in errs]}")


def test_criterion_2_gradient_suite(capsys):
    t0 = time.perf_counter()
    code = main(["gradcheck", "--seeds", "100"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    with capsys.disabled():
        payload = json.loads(out.strip().splitlines()[-1])
        report(2, "gradient suite",
               code == EXIT_OK and payload["passed"] and
               payload["max_rel_error"] < 1e-4 and elapsed < 120.0,
               f"max_rel_error={payload['max_rel_error']:.3e} over 100 seeds "
               f"in {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(100):
        n = int(rng.integers(4, 40))
        scores = rng.normal(size=n)
        if trial % 3 == 0:
            scores = np.round(scores, 1)  # force ties
        k = int(rng.integers(1, n + 1))
        for variant in VARIANTS:
            if list(select_activated(scores, k, variant)) != ref_topk_indices(scores, k, variant):
                failures.append(f"selection {variant} trial {trial}")

        d = int(rng.integers(4, 12))
        K = int(rng.integers(1, 6))
        tokens = rng.normal(size=(int(rng.integers(2, 12)), d))
        protos = normalize_rows(rng.normal(size=(K, d)))
        a = assign_tokens(tokens, protos, 0.2)
        sims = ref_cosine(tokens, protos) / 0.2
        D_ref = np.exp(sims - sims.max(axis=1, keepdims=True))
        D_ref /= D_ref.sum(axis=1, keepdims=True)
        if np.abs(a.D - D_ref).max() > 1e-9:
            failures.append(f"soft assignment trial {trial}")
        if not np.array_equal(a.hard, np.argmax(D_ref, axis=1)):
            failures.append(f"hard bucketing trial {trial}")

        C = int(rng.integers(2, 8))
        bank = init_bank(normalize_rows(rng.normal(size=(C, d))), K, "random",
                         0.0, seed=trial)
        q = rng.normal(size=d)
        best = max(((c, k2) for c in range(C) for k2 in range(K)),
                   key=lambda ck: ref_cosine(q[None, :], bank.prototypes[ck[0], ck[1]][None, :])[0, 0])
        if match_class(q, bank) != best[0]:
            failures.append(f"match_class trial {trial}")
    report(3, "oracle equivalence", not failures,
           f"100 instances, failures: {failures[:5] if failures else 'none'}")


def test_criterion_4_residual_identity_and_frozen_bank():
    rng = np.random.default_rng(44)
    d = 64
    protos = normalize_rows(rng.normal(size=(5, d)))
    text = normalize_rows(rng.normal(size=(10, d)))
    tiers = [(0, rng.normal(size=(8, d))), (1, rng.normal(size=(8, d)))]
    params = FusionParams.zeros(d, 4, alpha=0.0)
    theta = TransformerBlockParams.zeros(d, 4)
    V, R, _ = reps_fwd(tier_inputs(tiers, text, 0.01), protos, params, theta)
    identity_ok = (np.array_equal(np.vstack(V), np.vstack([protos, protos]))
                   and np.array_equal(np.vstack(R), np.vstack([text, text])))

    bank = init_bank(text, 5, "text", 0.05, seed=4, beta=1.0)
    before = bank.prototypes.tobytes()
    tokens = rng.normal(size=(16, d))
    for _ in range(100):
        a = assign_tokens(tokens, bank.prototypes[3], 0.01)
        bank = momentum_update(bank, 3, a, tokens)
    frozen_ok = bank.prototypes.tobytes() == before
    report(4, "residual identity chain", identity_ok and frozen_ok,
           f"zero-weight identity={identity_ok}, beta=1 bank frozen over "
           f"100 updates={frozen_ok}")


def test_criterion_5_ema_convergence():
    rng = np.random.default_rng(55)
    text = normalize_rows(rng.normal(size=(4, 64)))
    bank = init_bank(text, 5, "text", 0.05, seed=5, beta=0.8)
    tokens = rng.normal(size=(16, 64))
    disp = []
    for _ in range(40):
        prev = bank.prototypes[2].copy()
        a = assign_tokens(tokens, bank.prototypes[2], 0.01)
        bank = momentum_update(bank, 2, a, tokens)
        disp.append(float(np.linalg.norm(bank.prototypes[2] - prev)))
    ratio = disp[-1] / disp[0]
    report(5, "EMA convergence", ratio < 1e-3,
           f"displacement ratio after 40 replayed updates: {ratio:.2e}")


def test_criterion_6_desk_scale_learning(default_state, default_episode):
    _, base_test, novel_test = default_episode
    hist = default_state.history
    loss_ok = hist[19]["total"] < hist[0]["total"]
    m = evaluate(default_state, base_test, novel_test)
    acc_ok = m.base_acc >= 95.0 and m.novel_acc >= 80.0
    report(6, "desk-scale learning", loss_ok and acc_ok,
           f"base={m.base_acc:.2f} novel={m.novel_acc:.2f} "
           f"epoch1={hist[0]['total']:.5f} epoch20={hist[19]['total']:.5f}")


def test_criterion_7_ablation_directionality(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    t0 = time.perf_counter()
    code = main(["ablate", "--epochs", "10", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))

    def cell(**kw):
        defaults = {"semantic_on": "True", "init_mode": "text",
                    "recalc_on": "True", "selection_variant": "top-k",
                    "tier_mode": "both"}
        defaults.update(kw)
        for r in rows:
            if all(r[k] == v for k, v in defaults.items()):
                return r
        raise KeyError(kw)

    top = cell()
    bottom = cell(selection_variant="bottom-k")
    random_init = cell(init_mode="random")
    sem_off = cell(semantic_on="False")
    gap = float(top["harmonic_mean"]) - float(bottom["harmonic_mean"])
    init_gap = float(top["harmonic_mean"]) - float(random_init["harmonic_mean"])
    sem_gap = float(top["harmonic_mean"]) - float(sem_off["harmonic_mean"])
    ok = (len(rows) == 72 and gap >= 10.0 and init_gap >= 0.0 and sem_gap >= -1.0
          and elapsed < 900.0)
    with capsys.disabled():
        report(7, "ablation directionality", ok,
               f"72 cells in {elapsed:.0f}s; top-k vs bottom-k HM gap={gap:.2f}, "
               f"text vs random init gap={init_gap:.2f}, "
               f"semantic on-off gap={sem_gap:.2f}")


def test_criterion_8_efficiency_direction(default_state):
    cfg = default_state.config
    k_quarter = cfg.n_tok // 4
    rep = bench_throughput(default_state, n_items=1000, k_list=[k_quarter], reps=5)
    pruned = next(row.items_per_sec for row in rep.rows if row.k == k_quarter)
    full = rep.full_row.items_per_sec
    flops = [flop_count_inference(cfg, k) for k in range(1, cfg.n_tok + 1)]
    monotone = all(b > a for a, b in zip(flops, flops[1:]))
    report(8, "efficiency direction", pruned > full and monotone,
           f"items/s k={k_quarter}: {pruned:.0f} vs full k={cfg.n_tok}: {full:.0f} "
           f"({pruned / full:.2f}x); analytic op count strictly increasing={monotone}")


def test_criterion_9_frozen_boundary_and_determinism(
        default_config, default_episode, default_state, tmp_path):
    base_train, base_test, novel_test = default_episode
    tokens_before = base_train.tokens.tobytes()
    text_before = base_train.text_embeddings.tobytes()

    second = train(default_config, base_train)
    frozen_ok = (base_train.tokens.tobytes() == tokens_before
                 and base_train.text_embeddings.tobytes() == text_before
                 and second.theta.to_bytes() == default_state.theta.to_bytes())

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_state(default_state, p1)
    save_state(second, p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()
    m1 = evaluate(default_state, base_test, novel_test)
    m2 = evaluate(second, base_test, novel_test)
    metrics_ok = m1.to_dict() == m2.to_dict()
    report(9, "frozen boundary and determinism",
           frozen_ok and ckpt_ok and metrics_ok,
           f"frozen={frozen_ok} identical_checkpoints={ckpt_ok} "
           f"identical_metrics={metrics_ok}")
