"""End-to-end orchestration: the few-shot training loop with its frozen /
trainable split, label-free pruned prediction, base/novel evaluation with
harmonic mean, checkpointing, gradient-check harness, parameter accounting,
and the throughput benchmark.

Training iterates items one at a time through `_front_end` (score -> select
-> momentum-update the bank -> local loss -> stratify), then fuses
representatives, takes the total loss and an SGD step on the fusion
parameters only; the gradient check runs the same front end. The frozen
transformer block, the feature arrays, and the text embeddings are never
written to.

Inference has one path, `predict_batch`, which walks the items in chunks of
`_CHUNK`; `predict` is a batch of one. The category is identified against a
zero-jitter matching bank built from the split's text embeddings under the
configured init mode (as `match_class` does); the trained bank (base split)
or the same on-the-fly bank (novel split) then supplies prototypes for
semantic scoring and fusion.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .activation import (
    VARIANT_TOP,
    combine_scores,
    sample_scores,
    select_activated,
    semantic_scores,
    stratify,
)
from .config import RunConfig
from .errors import (
    BadMagic,
    ConfigError,
    DimMismatch,
    EmptySelection,
    EmptySplit,
    HeaderMismatch,
    InvalidSpec,
    KOutOfRange,
    NonFiniteLoss,
    TruncatedFile,
    VersionMismatch,
    WorkloadTooSmall,
)
from .features import FeatureSet, generate_base_novel
from .memory_bank import MemoryBank, assign_tokens, init_bank, local_loss, momentum_update
from .numerics import (
    TransformerBlockParams,
    cosine_matrix,
    finite_difference_errors,
    normalize_rows,
    softmax_rows,
    transformer_block_batch,
    transformer_block_fwd,
)
from .objectives import LossWeights, losses_fwd_bwd, losses_value
from .representative import FrozenTheta, FusionParams, reps_bwd, reps_fwd
from .rng import Stream

CKPT_MAGIC = b"SPOTCKPT"
CKPT_VERSION = 1

# items per block-forward pass in predict_batch: the forward keeps every
# intermediate in its cache, so the pass size sets the peak memory
_CHUNK = 256

_TAG_BANK = 100
_TAG_THETA = 101
_TAG_FUSION = 102
_TAG_SHUFFLE = 103
_TAG_EVAL_BANK = 104
_TAG_GRADCHECK = 105


# --------------------------------------------------------------------------
# state containers
# --------------------------------------------------------------------------

@dataclass
class TrainedState:
    params: FusionParams
    theta: FrozenTheta
    bank: MemoryBank
    config: RunConfig
    history: list = field(default_factory=list)

    @property
    def trainable_params(self) -> int:
        return self.params.n_params()


@dataclass
class Metrics:
    base_acc: float
    novel_acc: float
    harmonic: float
    per_class_base: list
    per_class_novel: list

    def to_dict(self) -> dict:
        return {
            "base_acc": self.base_acc, "novel_acc": self.novel_acc,
            "harmonic_mean": self.harmonic,
            "per_class_base": self.per_class_base,
            "per_class_novel": self.per_class_novel,
        }


@dataclass
class EvalClassSet:
    """Per-split classification context.

    matching_bank identifies the category of a pooled query; fusion_bank
    supplies prototypes for semantic scores, tier recalc, and IRM queries.
    """

    text: np.ndarray
    matching_bank: MemoryBank
    fusion_bank: MemoryBank


def harmonic_mean(base: float, novel: float) -> float:
    """2bn/(b+n) on percentages; zero when the sum is zero."""
    if base + novel == 0:
        return 0.0
    return 2.0 * base * novel / (base + novel)


def make_eval_class_set(state: TrainedState, text_embeddings: np.ndarray,
                        use_trained_bank: bool) -> EvalClassSet:
    """Build the classification context for one split.

    The matching bank is a zero-jitter bank over the split's text embeddings
    under the configured init mode. The base split fuses with the trained
    bank; held-out splits fuse with the same on-the-fly bank (no updates
    ever happen on novel classes).
    """
    cfg = state.config
    text = np.asarray(text_embeddings, dtype=np.float64)
    if text.ndim != 2 or text.shape[1] != cfg.d:
        raise DimMismatch(
            f"text embeddings have width {text.shape[-1]}, model expects {cfg.d}"
        )
    matching = init_bank(text, cfg.n_proto, cfg.init_mode, 0.0,
                         seed=Stream(cfg.seed).child(_TAG_EVAL_BANK).seed,
                         beta=cfg.beta)
    fusion = state.bank if use_trained_bank else matching
    return EvalClassSet(text=text, matching_bank=matching, fusion_bank=fusion)


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def _front_end(X: np.ndarray, label: int, bank: MemoryBank, text: np.ndarray,
               cfg: RunConfig):
    """Score -> select -> momentum-update the bank -> local loss -> stratify.

    The non-trainable stage of one labeled item; returns (updated bank,
    tiers as (tier index, tokens) pairs, local loss).
    """
    samp = sample_scores(X, text[label])
    sem = semantic_scores(X, bank.prototypes[label]) if cfg.semantic_on else None
    combined = combine_scores(samp, sem, cfg.semantic_on)
    selected = select_activated(combined, cfg.k_act, cfg.selection_variant)
    if selected.size == 0:
        raise EmptySelection("selection variant kept no tokens")
    tok_act = X[selected]

    assignment = assign_tokens(tok_act, bank.prototypes[label], cfg.tau)
    bank = momentum_update(bank, label, assignment, tok_act,
                           renormalize=cfg.proto_renorm)
    local = local_loss(bank, tok_act, label, cfg.tau)

    tier1, tier2 = stratify(selected, combined, X, bank.prototypes[label],
                            cfg.recalc_on)
    tiers = [(0, X[tier1])]
    if tier2.size:
        tiers.append((1, X[tier2]))
    return bank, tiers, local


def _train_step(X: np.ndarray, label: int, bank: MemoryBank, text: np.ndarray,
                params: FusionParams, theta: FrozenTheta, cfg: RunConfig,
                weights: LossWeights, velocity: dict | None):
    """One optimizer step; returns (updated bank, LossBreakdown)."""
    bank, tiers, local = _front_end(X, label, bank, text, cfg)
    V_list, R_list, cache = reps_fwd(tiers, bank.prototypes[label], text,
                                     params, theta, cfg.tau)
    breakdown, dV, dR = losses_fwd_bwd(V_list, R_list, text, X, local,
                                       label, weights)
    grads = reps_bwd(cache, dV, dR)

    for name, arr in params.tensors():
        g = grads[name]
        if velocity is not None:
            velocity[name] = cfg.sgd_momentum * velocity[name] + g
            g = velocity[name]
        arr -= cfg.lr * g
    return bank, breakdown


def train(config: RunConfig, train_set: FeatureSet) -> TrainedState:
    """Few-shot training on one labeled split; deterministic under the seed."""
    config.validate()
    if train_set.n_items == 0:
        raise EmptySplit("training split is empty")
    if train_set.labels is None:
        raise InvalidSpec("training split must be labeled")
    if train_set.d != config.d:
        raise DimMismatch(f"config width {config.d} but features have {train_set.d}")
    if config.k_act > train_set.n_tok:
        raise ConfigError(f"k_act {config.k_act} exceeds token count {train_set.n_tok}")

    root = Stream(config.seed)
    text = np.asarray(train_set.text_embeddings, dtype=np.float64)
    bank = init_bank(text, config.n_proto, config.init_mode, config.bank_sigma,
                     seed=root.child(_TAG_BANK).seed, beta=config.beta)
    theta = FrozenTheta.init(config.d, config.heads, root.child(_TAG_THETA),
                             ffn_mult=config.ffn_mult, scale=config.init_scale)
    params = FusionParams.init(config.d, config.heads, root.child(_TAG_FUSION),
                               ffn_mult=config.ffn_mult, alpha=config.alpha,
                               shared_irm=config.share_irm, scale=config.init_scale)
    weights = config.loss_weights()
    velocity = ({name: np.zeros_like(arr) for name, arr in params.tensors()}
                if config.sgd_momentum > 0 else None)
    shuffle_root = root.child(_TAG_SHUFFLE)

    tokens = np.asarray(train_set.tokens, dtype=np.float64)
    labels = np.asarray(train_set.labels, dtype=np.int64)
    state = TrainedState(params=params, theta=theta, bank=bank, config=config)

    keys = ("cls", "cls_low", "cls_high", "reg_text", "kl_visual", "local", "total")
    for epoch in range(config.epochs):
        order = shuffle_root.child(epoch).permutation(train_set.n_items)
        sums = dict.fromkeys(keys, 0.0)
        for idx in order:
            bank, breakdown = _train_step(tokens[idx], int(labels[idx]), bank,
                                          text, params, theta, config, weights,
                                          velocity)
            if not np.isfinite(breakdown.total):
                raise NonFiniteLoss(f"epoch {epoch}, item {int(idx)}: {breakdown}")
            for key in keys:
                sums[key] += getattr(breakdown, key)
        state.bank = bank
        record = {key: sums[key] / train_set.n_items for key in keys}
        record["epoch"] = epoch
        record["train_acc"] = split_accuracy(state, train_set, use_trained_bank=True)[0]
        state.history.append(record)
    state.bank = bank
    return state


# --------------------------------------------------------------------------
# prediction
# --------------------------------------------------------------------------

def predict(tokens: np.ndarray, state: TrainedState, class_set: EvalClassSet,
            k: int | None = None, tier_mode: str | None = None):
    """Label-free pruned classification of one (n_tok, d) item.

    Returns (category id, probability vector over the split's classes);
    ties resolve to the lowest class index.
    """
    X = np.asarray(tokens, dtype=np.float64)
    if X.ndim != 2:
        raise DimMismatch(f"one item must be (n_tok, d), got shape {X.shape}")
    preds, probs = predict_batch(X[None], state, class_set, k, tier_mode)
    return int(preds[0]), probs[0]


def predict_batch(tokens: np.ndarray, state: TrainedState,
                  class_set: EvalClassSet, k: int | None = None,
                  tier_mode: str | None = None):
    """Label-free pruned classification of (N, n_tok, d) items: (preds, probs).

    Items are classified independently, _CHUNK at a time, which bounds the
    memory the block forward's caches hold.
    """
    cfg = state.config
    k = cfg.k_act if k is None else k
    tier_mode = cfg.tier_mode if tier_mode is None else tier_mode
    X = np.asarray(tokens, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != cfg.d:
        raise DimMismatch(f"tokens must be (N, n_tok, {cfg.d}), got shape {X.shape}")
    if not 1 <= k <= X.shape[1]:
        raise KOutOfRange(f"k={k} outside [1, {X.shape[1]}]")
    # an empty batch still runs one (empty) chunk: outputs (0,) and (0, C)
    parts = [_predict_chunk(X[i : i + _CHUNK], state, class_set, k, tier_mode)
             for i in range(0, max(len(X), 1), _CHUNK)]
    return (np.concatenate([preds for preds, _ in parts]),
            np.concatenate([probs for _, probs in parts]))


def _predict_chunk(X: np.ndarray, state: TrainedState, class_set: EvalClassSet,
                   k: int, tier_mode: str):
    cfg = state.config
    d = cfg.d
    pooled = normalize_rows(X.mean(axis=1))
    match_protos = normalize_rows(
        class_set.matching_bank.prototypes.reshape(-1, d)
    ).reshape(class_set.matching_bank.prototypes.shape)
    c_hat = np.argmax(
        np.einsum("nd,ckd->nck", pooled, match_protos).max(axis=2), axis=1
    )

    text_n = normalize_rows(class_set.text)
    Xn = normalize_rows(X.reshape(-1, d)).reshape(X.shape)
    fp = class_set.fusion_bank.prototypes[c_hat]                  # (N, K, d)
    fpn = normalize_rows(fp.reshape(-1, d)).reshape(fp.shape)
    samp = np.einsum("nid,nd->ni", Xn, text_n[c_hat])
    if cfg.semantic_on:
        combined = samp + np.einsum("nid,nkd->nik", Xn, fpn).max(axis=2)
    else:
        combined = samp

    if cfg.selection_variant == VARIANT_TOP:
        sel = np.argsort(-combined, axis=1, kind="stable")[:, :k]
    elif cfg.selection_variant == "bottom-k":
        sel = np.argsort(combined, axis=1, kind="stable")[:, :k]
    else:
        sel = np.argsort(-combined, axis=1, kind="stable")[:, k:]
    if sel.shape[1] == 0:
        raise EmptySelection("selection variant kept no tokens")

    if cfg.recalc_on:
        Xsel_n = np.take_along_axis(Xn, sel[:, :, None], axis=1)
        rank = np.einsum("nmd,nkd->nmk", Xsel_n, fpn).max(axis=2)
    else:
        rank = np.take_along_axis(combined, sel, axis=1)
    order = np.lexsort((sel, -rank), axis=-1)
    sel_sorted = np.take_along_axis(sel, order, axis=1)
    n1 = (sel.shape[1] + 1) // 2
    tier_idx = {0: sel_sorted[:, :n1], 1: sel_sorted[:, n1:]}

    if tier_mode == "lev1":
        active = [0]
    elif tier_mode == "lev2":
        if tier_idx[1].shape[1] == 0:
            raise EmptySelection("tier 2 is empty under lev2 inference")
        active = [1]
    else:
        active = [0] if tier_idx[1].shape[1] == 0 else [0, 1]

    params, theta = state.params, state.theta
    V_parts, R_parts = [], []
    for t in active:
        tier_tok = np.take_along_axis(X, tier_idx[t][:, :, None], axis=1)
        irm = params.irm_for_tier(t)
        fused = transformer_block_batch(fp, tier_tok, irm)
        seq = np.concatenate([fused, tier_tok], axis=1)
        out = transformer_block_batch(seq, seq, theta.block)
        V_parts.append(out[:, : fp.shape[1]])

        tier_n = normalize_rows(tier_tok.reshape(-1, d)).reshape(tier_tok.shape)
        W = softmax_rows(np.einsum("cd,nmd->ncm", text_n, tier_n), cfg.tau)
        agg = np.einsum("ncm,nmd->ncd", W, tier_tok)
        Zt = np.concatenate([np.broadcast_to(class_set.text, agg.shape), agg], axis=-1)
        R_parts.append(params.alpha * (Zt @ params.trm_w + params.trm_b) + class_set.text)

    V_all = np.concatenate(V_parts, axis=1)
    v = normalize_rows(V_all.mean(axis=1))
    Tp_raw = np.mean(np.stack(R_parts, axis=2), axis=2)           # (N, C, d)
    Tp = Tp_raw / np.linalg.norm(Tp_raw, axis=-1, keepdims=True)
    probs = softmax_rows(np.einsum("ncd,nd->nc", Tp, v), cfg.tau)
    return np.argmax(probs, axis=1), probs


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def split_accuracy(state: TrainedState, split: FeatureSet,
                   use_trained_bank: bool, tier_mode: str | None = None):
    """(accuracy %, per-class accuracy list) for one labeled split."""
    if split.n_items == 0:
        raise EmptySplit(f"{split.split} split is empty")
    if split.labels is None:
        raise InvalidSpec(f"{split.split} split must be labeled")
    ctx = make_eval_class_set(state, split.text_embeddings, use_trained_bank)
    preds, _ = predict_batch(split.tokens, state, ctx, tier_mode=tier_mode)
    labels = np.asarray(split.labels, dtype=np.int64)
    per_class = []
    for c in range(split.n_classes):
        mask = labels == c
        per_class.append(float(100.0 * np.mean(preds[mask] == c)) if mask.any() else 0.0)
    return float(100.0 * np.mean(preds == labels)), per_class


def evaluate(state: TrainedState, base_set: FeatureSet, novel_set: FeatureSet,
             tier_mode: str | None = None) -> Metrics:
    """Accuracy on both splits plus their harmonic mean."""
    base_acc, per_base = split_accuracy(state, base_set, True, tier_mode)
    novel_acc, per_novel = split_accuracy(state, novel_set, False, tier_mode)
    return Metrics(
        base_acc=base_acc, novel_acc=novel_acc,
        harmonic=harmonic_mean(base_acc, novel_acc),
        per_class_base=per_base, per_class_novel=per_novel,
    )


# --------------------------------------------------------------------------
# throughput benchmark
# --------------------------------------------------------------------------

@dataclass
class BenchRow:
    k: int
    items_per_sec: float
    wallclock_s: float
    accuracy: float
    flops: int
    rep_times: list

    def to_dict(self) -> dict:
        return {
            "k": self.k, "items_per_sec": self.items_per_sec,
            "wallclock_s": self.wallclock_s, "accuracy": self.accuracy,
            "flops": self.flops, "rep_times": self.rep_times,
        }


@dataclass
class ThroughputReport:
    rows: list
    full_row: BenchRow
    n_items: int
    reps: int
    trainable_param_count: int
    note: str

    def row_at(self, k: int) -> BenchRow:
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(f"no benchmark row for k={k}")

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "full_token": self.full_row.to_dict(),
            "n_items": self.n_items, "reps": self.reps,
            "trainable_param_count": self.trainable_param_count,
            "note": self.note,
        }


def flop_count_inference(cfg: RunConfig, k: int) -> int:
    """Analytic multiply-add count of the pruned inference path for one item.

    Strictly increasing in k: each extra retained token enlarges at least
    one tier everywhere the fusion stack touches it.
    """
    n, d, K, C = cfg.n_tok, cfg.d, cfg.n_proto, cfg.n_classes
    e = cfg.ffn_mult
    total = 2 * n * d + d                      # pooling + normalize
    total += 2 * C * K * d                     # category matching
    total += 2 * n * d                         # sample scores
    if cfg.semantic_on:
        total += 2 * n * K * d                 # semantic scores
    total += n * max(1, int(np.ceil(np.log2(max(n, 2)))))  # selection sort
    m1 = (k + 1) // 2
    tiers = {"both": (m1, k - m1), "lev1": (m1, 0), "lev2": (0, k - m1)}[cfg.tier_mode]
    for m in tiers:
        if m == 0:
            continue
        if cfg.recalc_on:
            total += 2 * m * K * d
        L = K + m
        total += 5 * d * (K + m) + 5 * d * K          # IRM layer norms
        total += 2 * d * d * (2 * K + 2 * m)          # IRM q/k/v/o projections
        total += 4 * K * m * d + 3 * K * m            # IRM attention
        total += 4 * e * K * d * d                    # IRM feed-forward
        total += 10 * d * L                           # frozen block layer norms
        total += 8 * L * d * d                        # frozen q/k/v/o
        total += 4 * L * L * d + 3 * L * L            # frozen attention
        total += 4 * e * L * d * d                    # frozen feed-forward
        total += 2 * m * d + 2 * C * m * d + 3 * C * m  # TRM matching
        total += 2 * C * m * d + 4 * C * d * d + C * d  # TRM aggregate + linear
    total += 2 * (2 * K) * d + 2 * C * d + 3 * C      # pooling + classification
    return int(total)


def bench_throughput(state: TrainedState, n_items: int, k_list,
                     reps: int = 5, warmup: int = 1) -> ThroughputReport:
    """Median items/second per k, plus the full-token reference.

    The workload is a fresh synthetic split over the training classes;
    generation happens before any clock starts.
    """
    cfg = state.config
    if n_items < 100:
        raise WorkloadTooSmall(f"need >= 100 items, got {n_items}")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    per_class = -(-n_items // cfg.n_classes)
    _, workload, _ = generate_base_novel(cfg.synth_spec(), 1, per_class)
    ctx = make_eval_class_set(state, workload.text_embeddings, True)
    tokens = np.asarray(workload.tokens, dtype=np.float64)
    labels = np.asarray(workload.labels, dtype=np.int64)
    actual = workload.n_items

    ks = sorted({int(k) for k in k_list})
    for k in ks:
        if not 1 <= k <= cfg.n_tok:
            raise ConfigError(f"bench k={k} outside [1, {cfg.n_tok}]")

    def measure(k: int) -> BenchRow:
        for _ in range(warmup):
            predict_batch(tokens, state, ctx, k=k)
        times = []
        preds = None
        for _ in range(reps):
            t0 = time.perf_counter()
            preds, _ = predict_batch(tokens, state, ctx, k=k)
            times.append(time.perf_counter() - t0)
        med = float(np.median(times))
        return BenchRow(
            k=k, items_per_sec=actual / med, wallclock_s=med,
            accuracy=float(100.0 * np.mean(preds == labels)),
            flops=flop_count_inference(cfg, k), rep_times=[float(t) for t in times],
        )

    rows = [measure(k) for k in ks]
    full = measure(cfg.n_tok) if cfg.n_tok not in ks else rows[ks.index(cfg.n_tok)]
    note = ("trainable_param_count is the exact number of trainable tensor "
            "entries at the configured widths")
    return ThroughputReport(rows=rows, full_row=full, n_items=actual, reps=reps,
                            trainable_param_count=state.trainable_params, note=note)


# --------------------------------------------------------------------------
# gradient-check harness
# --------------------------------------------------------------------------

def gradcheck_total_loss(cfg: RunConfig, n_seeds: int = 100, eps: float = 1e-5,
                         corrupt: bool = False) -> dict:
    """Finite-difference verification of the full objective's gradients.

    For each seed a tiny episode is generated, the non-trainable stage
    (scores, selection, bank update, tiers) is run once and frozen, and the
    analytic gradient of the total loss w.r.t. every fusion parameter is
    compared against central differences. Parameter draws that would place a
    text-regularizer entry within finite-difference reach of the absolute-
    value kink (or a pooled norm near zero) are deterministically redrawn,
    since the comparison is undefined at nondifferentiable points. The
    `corrupt` hook perturbs one analytic coordinate to prove the harness
    notices.
    """
    cfg.validate()
    if cfg.d > 16:
        raise ConfigError(f"gradient check requires d <= 16, got {cfg.d}")
    weights = cfg.loss_weights()
    worst = 0.0
    per_group: dict = {}
    root = Stream(cfg.seed).child(_TAG_GRADCHECK)

    for i in range(n_seeds):
        case = root.child(i)
        spec = cfg.synth_spec()
        spec.seed = case.child(0).seed
        train_fs, _, _ = generate_base_novel(spec, 1, 1)
        X = np.asarray(train_fs.tokens[0], dtype=np.float64)
        label = int(train_fs.labels[0])
        text = np.asarray(train_fs.text_embeddings, dtype=np.float64)

        bank = init_bank(text, cfg.n_proto, cfg.init_mode, cfg.bank_sigma,
                         seed=case.child(1).seed, beta=cfg.beta)
        bank, tiers, local = _front_end(X, label, bank, text, cfg)
        theta = FrozenTheta.init(cfg.d, cfg.heads, case.child(2),
                                 ffn_mult=cfg.ffn_mult, scale=cfg.init_scale)
        protos = bank.prototypes[label]

        params = _draw_kink_safe_params(cfg, case, tiers, protos, text, theta, eps)

        x0 = params.flatten()
        V_list, R_list, cache = reps_fwd(tiers, protos, text, params, theta, cfg.tau)
        _, dV, dR = losses_fwd_bwd(V_list, R_list, text, X, local, label, weights)
        grads = reps_bwd(cache, dV, dR)
        analytic = np.concatenate([grads[name].ravel() for name, _ in params.tensors()])
        if corrupt:
            analytic = analytic.copy()
            analytic[0] += 1e-2

        objective = _fast_objective(params, tiers, protos, text, theta, cfg,
                                    weights, X, local, label)
        errors = finite_difference_errors(objective, x0, analytic, eps)
        worst = max(worst, float(errors.max()))
        pos = 0
        for name, arr in params.tensors():
            group_err = float(errors[pos : pos + arr.size].max())
            per_group[name] = max(per_group.get(name, 0.0), group_err)
            pos += arr.size

    return {
        "seeds": n_seeds, "eps": eps, "threshold": 1e-4,
        "max_rel_error": worst,
        "per_group": dict(sorted(per_group.items())),
        "passed": bool(worst < 1e-4),
    }


def _fast_objective(params: FusionParams, tiers, protos, text,
                    theta: FrozenTheta, cfg: RunConfig, weights: LossWeights,
                    X: np.ndarray, local: float, label: int):
    """Value-only total-loss closure for finite-difference probing.

    The probe parameters back a single flat buffer (loading a probe vector
    is one copy) and everything constant across probes — the TRM matching
    inputs, the tiled text, the original-token distribution — is computed
    once here.
    """
    buf = params.flatten()
    pos = 0
    views = {}
    for name, arr in params.tensors():
        views[name] = buf[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size
    blocks = []
    for i in range(len(params.irm)):
        kw = {name: views[f"irm{i}.{name}"] for name in
              (n for n, _ in params.irm[i].tensors())}
        blocks.append(TransformerBlockParams(n_heads=params.irm[i].n_heads, **kw))
    work = FusionParams(irm=tuple(blocks), trm_w=views["trm.w"],
                        trm_b=views["trm.b"], alpha=params.alpha)

    K = protos.shape[0]
    tier_setup = []
    for tier_idx, tokens in tiers:
        W = softmax_rows(cosine_matrix(text, tokens), cfg.tau)
        Z = np.hstack([text, W @ tokens])
        tier_setup.append((tier_idx, tokens, Z))
    tiled_text = np.vstack([text] * len(tiers))
    ori_mean = X.mean(axis=0)
    ori = ori_mean / np.linalg.norm(ori_mean)
    ori_probs = np.maximum(np.exp(ori - ori.max()) / np.exp(ori - ori.max()).sum(), 1e-12)

    def objective(flat: np.ndarray) -> float:
        buf[...] = flat
        V_list, R_list = [], []
        for tier_idx, tokens, Z in tier_setup:
            fused, _ = transformer_block_fwd(protos, tokens, work.irm_for_tier(tier_idx))
            seq = np.vstack([fused, tokens])
            out, _ = transformer_block_fwd(seq, seq, theta.block)
            V_list.append(out[:K])
            R_list.append(work.alpha * (Z @ work.trm_w + work.trm_b) + text)
        return losses_value(V_list, R_list, local, label, weights,
                            tiled_text, ori_probs)

    return objective


def _draw_kink_safe_params(cfg: RunConfig, case: Stream, tiers, protos, text,
                           theta: FrozenTheta, eps: float) -> FusionParams:
    """Sample fusion parameters whose neighborhood is differentiable.

    Redraws (deterministically) while any |rep - text| entry sits within a
    safety margin of zero or any pooled representative norm is tiny.
    """
    margin = 50.0 * eps
    for attempt in range(64):
        stream = case.child(10 + attempt)
        params = FusionParams.init(cfg.d, cfg.heads, stream, ffn_mult=cfg.ffn_mult,
                                   alpha=cfg.alpha, shared_irm=cfg.share_irm,
                                   scale=0.1)
        params.trm_b[...] = 0.05 * stream.normals(cfg.d)
        V_list, R_list, _ = reps_fwd(tiers, protos, text, params, theta, cfg.tau)
        diff_ok = all(np.abs(R - text).min() > margin for R in R_list)
        norms_ok = (
            np.linalg.norm(np.vstack(V_list).mean(axis=0)) > 1e-3
            and all(np.linalg.norm(V.mean(axis=0)) > 1e-3 for V in V_list)
            and all(np.linalg.norm(R.mean(axis=0)) > 1e-3 for R in R_list)
        )
        if diff_ok and norms_ok:
            return params
    raise NonFiniteLoss("could not find a kink-safe parameter draw")


# --------------------------------------------------------------------------
# checkpoint format
# --------------------------------------------------------------------------

def _state_tensors(state: TrainedState):
    out = list(state.params.tensors())
    out.extend((f"theta.{name}", arr) for name, arr in state.theta.block.tensors())
    out.append(("bank.prototypes", state.bank.prototypes))
    return out


def save_state(state: TrainedState, path) -> None:
    """SPOTCKPT container: JSON config/history/manifest + f32 LE payload."""
    tensors = _state_tensors(state)
    header = {
        "config": state.config.to_dict(),
        "history": state.history,
        "tensors": [{"name": name, "shape": list(arr.shape)} for name, arr in tensors],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(bytes([CKPT_VERSION]))
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_state(path) -> TrainedState:
    raw = Path(path).read_bytes()
    if len(raw) < len(CKPT_MAGIC) + 1:
        raise TruncatedFile(f"{path}: shorter than magic")
    if raw[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise BadMagic(f"{path}: expected {CKPT_MAGIC!r}")
    if raw[len(CKPT_MAGIC)] != CKPT_VERSION:
        raise VersionMismatch(f"{path}: version {raw[len(CKPT_MAGIC)]}, expected {CKPT_VERSION}")
    off = len(CKPT_MAGIC) + 1
    if len(raw) < off + 4:
        raise TruncatedFile(f"{path}: missing header length")
    hlen = int.from_bytes(raw[off : off + 4], "little")
    off += 4
    if len(raw) < off + hlen:
        raise TruncatedFile(f"{path}: header cut short")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderMismatch(f"{path}: unparseable header: {exc}") from exc
    off += hlen

    cfg = RunConfig.from_dict(header["config"])
    manifest = header["tensors"]
    expected = sum(4 * int(np.prod(t["shape"])) for t in manifest)
    payload = raw[off:]
    if len(payload) < expected:
        raise TruncatedFile(f"{path}: payload is {len(payload)} bytes, manifest needs {expected}")
    if len(payload) > expected:
        raise HeaderMismatch(f"{path}: {len(payload) - expected} trailing bytes")

    arrays = {}
    pos = 0
    for entry in manifest:
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(payload, dtype="<f4", count=count, offset=pos)
        arrays[entry["name"]] = arr.astype(np.float64).reshape(entry["shape"])
        pos += 4 * count

    params = FusionParams.zeros(cfg.d, cfg.heads, ffn_mult=cfg.ffn_mult,
                                alpha=cfg.alpha, shared_irm=cfg.share_irm)
    theta = FrozenTheta.zeros(cfg.d, cfg.heads, cfg.ffn_mult)
    for name, arr in params.tensors():
        arr[...] = arrays[name]
    for name, arr in theta.block.tensors():
        arr[...] = arrays[f"theta.{name}"]
    bank = MemoryBank(arrays["bank.prototypes"], beta=cfg.beta, init_mode=cfg.init_mode)
    return TrainedState(params=params, theta=theta, bank=bank, config=cfg,
                        history=list(header["history"]))
