"""End-to-end orchestration: the few-shot training loop with its frozen /
trainable split, label-free pruned prediction, base/novel evaluation with
harmonic mean, checkpointing, gradient-check harness, parameter accounting,
and the throughput benchmark.

Training iterates items one at a time through `_front_end` (score -> select
-> momentum-update the bank -> local loss -> stratify -> the tiers' TRM
inputs), then fuses representatives, takes the total loss and an SGD step on
the fusion parameters only. The frozen transformer block, the feature arrays,
and the text embeddings are never written to.

The gradient check runs the same front end once per seed, then compares the
analytic gradient against central differences of the same forward: each
block of probe rows is one call of the cache-free `reps_fwd` and of
`losses_value` over a leading probe axis, and `losses_value` shares its
forward with `losses_fwd_bwd`, so the check has no copy of the objective.

Inference has one path, `predict_modes`, which walks the items in chunks of
`_CHUNK`; `predict_batch` is its one-mode case, and one item is a batch of
one, `X[None]`. A chunk runs the training stage functions over its item
axis: `match_class` identifies the category against a zero-jitter matching
bank built from the split's text embeddings under the configured init mode;
the trained bank (base split) or the same on-the-fly bank (novel split) then
supplies prototypes for scoring, stratification and the cache-free
`reps_fwd` of the tiers the requested tier modes read, and a pooled cosine
head classifies once per mode. `split_accuracies` scores a labeled split for
several tier modes from one such pass; `split_accuracy` is its one-mode case.
Every selection is checked against `activation`'s tier rule
(`check_selection`) before any item is scored.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .activation import (
    check_selection,
    combine_scores,
    kept_count,
    reads,
    sample_scores,
    select_activated,
    semantic_scores,
    stratify,
    tier_sizes,
)
from .config import RunConfig
from .container import read_container, write_container
from .errors import (
    ConfigError,
    DataError,
    DimMismatch,
    EmptySplit,
    HeaderMismatch,
    NonFiniteLoss,
    UnlabeledSplit,
    WorkloadTooSmall,
)
from .features import FeatureSet, generate_base_novel
from .memory_bank import (MemoryBank, assign_tokens, init_bank, local_loss, match_class,
                          momentum_update)
from .numerics import (FFN_MULT, TransformerBlockParams, block_param_count,
                       finite_difference_errors, normalize_rows, softmax_rows)
from .objectives import LossBreakdown, LossWeights, loss_item, losses_fwd_bwd, losses_value
from .representative import FusionParams, reps_bwd, reps_fwd, tier_inputs, trainable_param_count
from .rng import Stream

CKPT_MAGIC = b"SPOTCKPT"
CKPT_VERSION = 3

# items per block-forward pass in predict_batch: a block forward holds every
# intermediate of its pass while it runs (about 20 MiB at 64 items, k = 32, d = 64)
_CHUNK = 64

_TAG_BANK = 100
_TAG_THETA = 101
_TAG_FUSION = 102
_TAG_SHUFFLE = 103
_TAG_EVAL_BANK = 104
_TAG_GRADCHECK = 105

_GRADCHECK_EPS = 1e-5  # the gradient check's central-difference step
_BANK_SIGMA = 0.05  # jitter of the trained bank's initial prototypes


# --------------------------------------------------------------------------
# state containers
# --------------------------------------------------------------------------

@dataclass
class TrainedState:
    params: FusionParams
    theta: TransformerBlockParams  # the frozen block
    bank: MemoryBank
    config: RunConfig
    history: list = field(default_factory=list)


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
    if use_trained_bank and len(text) != cfg.n_classes:
        raise DimMismatch(f"split has {len(text)} classes, the trained bank {cfg.n_classes}")
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
    `reps_fwd` tiers, local loss).
    """
    sem = semantic_scores(X, bank.prototypes[label]) if cfg.semantic_on else None
    combined = combine_scores(sample_scores(X, text[label]), sem)
    selected = select_activated(combined, cfg.k_act, cfg.selection_variant)
    tok_act = X[selected]

    assignment = assign_tokens(tok_act, bank.prototypes[label], cfg.tau)
    bank = momentum_update(bank, label, assignment, tok_act)
    local = local_loss(bank, tok_act, label, cfg.tau)

    tier1, tier2 = stratify(selected, combined, X, bank.prototypes[label],
                            cfg.recalc_on)
    return bank, _tier_list(X, tier1, tier2, ("both",), text, cfg.tau), local


def _tier_list(X: np.ndarray, tier1: np.ndarray, tier2: np.ndarray, tier_modes,
               text: np.ndarray, tau: float):
    """`reps_fwd` tiers: every nonempty tier that one of `tier_modes` reads,
    with its TRM input computed once here."""
    return tier_inputs([(t, np.take_along_axis(X, idx[..., None], axis=-2))
                        for t, idx in enumerate((tier1, tier2))
                        if any(reads(mode, t) for mode in tier_modes)], text, tau)


_LR = 0.01  # the SGD step on the fusion parameters


def _train_step(X: np.ndarray, label: int, bank: MemoryBank, text: np.ndarray,
                params: FusionParams, theta: TransformerBlockParams, cfg: RunConfig,
                weights: LossWeights):
    """One optimizer step; returns (updated bank, LossBreakdown)."""
    bank, tiers, local = _front_end(X, label, bank, text, cfg)
    V_list, R_list, cache = reps_fwd(tiers, bank.prototypes[label], params, theta)
    breakdown, dV, dR = losses_fwd_bwd(V_list, R_list,
                                       loss_item(text, X, len(tiers), local, label), weights)
    params.flat -= _LR * reps_bwd(cache, dV, dR)
    return bank, breakdown


def train(config: RunConfig, train_set: FeatureSet) -> TrainedState:
    """Few-shot training on one labeled split; deterministic under the seed.

    Each epoch's history record holds the mean of every loss part, the epoch
    and `bank_drift`, the Frobenius norm of the epoch's change in the bank's
    prototypes; training scores no split.
    """
    config.validate()
    if train_set.n_items == 0:
        raise EmptySplit("training split is empty")
    if train_set.labels is None:
        raise UnlabeledSplit("training split must be labeled")
    for key in ("d", "n_tok", "n_classes"):
        if getattr(train_set, key) != getattr(config, key):
            raise DimMismatch(f"config {key} {getattr(config, key)} but features have "
                              f"{getattr(train_set, key)}")
    check_selection(train_set.n_tok, config.k_act, config.selection_variant,
                    config.tier_mode)

    root = Stream(config.seed)
    text = np.asarray(train_set.text_embeddings, dtype=np.float64)
    bank = init_bank(text, config.n_proto, config.init_mode, _BANK_SIGMA,
                     seed=root.child(_TAG_BANK).seed, beta=config.beta)
    theta = TransformerBlockParams.random(config.d, config.heads, root.child(_TAG_THETA))
    params = FusionParams.init(config.d, config.heads, root.child(_TAG_FUSION),
                               alpha=config.alpha)
    weights = config.loss_weights()
    shuffle_root = root.child(_TAG_SHUFFLE)

    tokens = np.asarray(train_set.tokens, dtype=np.float64)
    labels = np.asarray(train_set.labels, dtype=np.int64)
    history = []

    keys = [f.name for f in fields(LossBreakdown)]
    for epoch in range(config.epochs):
        order = shuffle_root.child(epoch).permutation(train_set.n_items)
        sums = dict.fromkeys(keys, 0.0)
        start = bank.prototypes  # updates return a fresh bank
        for idx in order:
            bank, breakdown = _train_step(tokens[idx], int(labels[idx]), bank,
                                          text, params, theta, config, weights)
            for key in keys:
                sums[key] += getattr(breakdown, key)
        record = {key: sums[key] / train_set.n_items for key in keys}
        record["epoch"] = epoch
        record["bank_drift"] = float(np.linalg.norm(bank.prototypes - start))
        history.append(record)
    return TrainedState(params=params, theta=theta, bank=bank, config=config, history=history)


# --------------------------------------------------------------------------
# prediction
# --------------------------------------------------------------------------

def predict_batch(tokens: np.ndarray, state: TrainedState,
                  class_set: EvalClassSet, k: int | None = None,
                  tier_mode: str | None = None):
    """Label-free pruned classification of (N, n_tok, d) items: (preds, probs).

    The one-mode case of `predict_modes`.
    """
    tier_mode = state.config.tier_mode if tier_mode is None else tier_mode
    return predict_modes(tokens, state, class_set, (tier_mode,), k)[tier_mode]


def predict_modes(tokens: np.ndarray, state: TrainedState, class_set: EvalClassSet,
                  tier_modes, k: int | None = None) -> dict:
    """{tier mode: (preds, probs)} for (N, n_tok, d) items, one pass for all
    the modes; raises the first rejection `check_selection` gives a mode.

    The modes differ only in which tiers the pooled cosine head averages, and
    with an item axis `reps_fwd` fuses each tier on its own, so one front end
    and one fusion of the tiers the modes read serve every mode bit for bit.
    Items are classified independently, _CHUNK at a time (each chunk widened
    to float64 on its own), which bounds the memory the block forwards hold.
    """
    cfg = state.config
    k = cfg.k_act if k is None else k
    X = np.asarray(tokens)
    if X.ndim != 3 or X.shape[2] != cfg.d:
        raise DimMismatch(f"tokens must be (N, n_tok, {cfg.d}), got shape {X.shape}")
    for mode in tier_modes:
        check_selection(X.shape[1], k, cfg.selection_variant, mode)
    if len(X) == 0:
        empty = np.zeros(0, dtype=np.intp), np.zeros((0, len(class_set.text)))
        return dict.fromkeys(tier_modes, empty)
    parts = [_predict_chunk(X[i : i + _CHUNK].astype(np.float64), state, class_set, k,
                            tier_modes)
             for i in range(0, len(X), _CHUNK)]
    return {mode: (np.concatenate([part[mode][0] for part in parts]),
                   np.concatenate([part[mode][1] for part in parts]))
            for mode in tier_modes}


def _predict_chunk(X: np.ndarray, state: TrainedState, class_set: EvalClassSet,
                   k: int, tier_modes) -> dict:
    """The training front end's stages, unlabeled, over an item axis, then the
    pooled cosine head once per tier mode."""
    cfg = state.config
    c_hat = match_class(X.mean(axis=1), class_set.matching_bank)
    protos = class_set.fusion_bank.prototypes[c_hat]
    sem = semantic_scores(X, protos) if cfg.semantic_on else None
    combined = combine_scores(sample_scores(X, class_set.text[c_hat]), sem)
    selected = np.stack([select_activated(row, k, cfg.selection_variant)
                         for row in combined])
    tier1, tier2 = stratify(selected, combined, X, protos, cfg.recalc_on)
    tiers = _tier_list(X, tier1, tier2, tier_modes, class_set.text, cfg.tau)
    V, R, _ = reps_fwd(tiers, protos, state.params, state.theta, keep_cache=False)
    out = {}
    for mode in tier_modes:
        read = [i for i, (t, _, _) in enumerate(tiers) if reads(mode, t)]
        v = normalize_rows(np.concatenate([V[i] for i in read], axis=1).mean(axis=1))
        Tp = normalize_rows(np.mean(np.stack([R[i] for i in read], axis=2), axis=2))
        probs = softmax_rows(np.einsum("ncd,nd->nc", Tp, v), cfg.tau)
        out[mode] = np.argmax(probs, axis=1), probs
    return out


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def split_accuracy(state: TrainedState, split: FeatureSet,
                   use_trained_bank: bool, tier_mode: str | None = None):
    """(accuracy %, per-class accuracy list) for one labeled split: the
    one-mode case of `split_accuracies`."""
    tier_mode = state.config.tier_mode if tier_mode is None else tier_mode
    return split_accuracies(state, split, use_trained_bank, (tier_mode,))[tier_mode]


def split_accuracies(state: TrainedState, split: FeatureSet, use_trained_bank: bool,
                     tier_modes) -> dict:
    """{tier mode: (accuracy %, per-class accuracy list)} for one labeled
    split, from one class-set build and one `predict_modes` pass."""
    if split.n_items == 0:
        raise EmptySplit(f"{split.split} split is empty")
    if split.labels is None:
        raise UnlabeledSplit(f"{split.split} split must be labeled")
    ctx = make_eval_class_set(state, split.text_embeddings, use_trained_bank)
    labels = np.asarray(split.labels, dtype=np.int64)
    out = predict_modes(split.tokens, state, ctx, tier_modes)
    for mode, (preds, _) in out.items():
        per_class = []
        for c in range(split.n_classes):
            mask = labels == c
            per_class.append(float(100.0 * np.mean(preds[mask] == c)) if mask.any() else 0.0)
        out[mode] = float(100.0 * np.mean(preds == labels)), per_class
    return out


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


@dataclass
class ThroughputReport:
    rows: list
    full_row: BenchRow | None
    n_items: int
    reps: int
    trainable_param_count: int
    note: str

    def to_dict(self) -> dict:
        return {
            "rows": [asdict(r) for r in self.rows],
            "full_token": asdict(self.full_row) if self.full_row else None,
            "n_items": self.n_items, "reps": self.reps,
            "trainable_param_count": self.trainable_param_count,
            "note": self.note,
        }


def flop_count_inference(cfg: RunConfig, k: int) -> int:
    """Analytic multiply-add count of the pruned inference path for one item.

    Strictly increasing in the kept token count (`kept_count`): each extra
    kept token enlarges at least one tier everywhere the fusion stack
    touches it.
    """
    n, d, K, C = cfg.n_tok, cfg.d, cfg.n_proto, cfg.n_classes
    total = 2 * n * d + d                      # pooling + normalize
    total += 2 * C * K * d                     # category matching
    total += 2 * n * d                         # sample scores
    if cfg.semantic_on:
        total += 2 * n * K * d                 # semantic scores
    total += n * max(1, int(np.ceil(np.log2(max(n, 2)))))  # selection sort
    for t, m in enumerate(tier_sizes(kept_count(n, k, cfg.selection_variant))):
        if m == 0 or not reads(cfg.tier_mode, t):
            continue
        if cfg.recalc_on:
            total += 2 * m * K * d
        L = K + m
        total += 5 * d * (K + m) + 5 * d * K          # IRM layer norms
        total += 2 * d * d * (2 * K + 2 * m)          # IRM q/k/v/o projections
        total += 4 * K * m * d + 3 * K * m            # IRM attention
        total += 4 * FFN_MULT * K * d * d             # IRM feed-forward
        total += 5 * d * L + 5 * d * K                # frozen block layer norms
        total += 2 * d * d * (2 * K + 2 * L)          # frozen q/k/v/o (K query rows)
        total += 4 * K * L * d + 3 * K * L            # frozen attention
        total += 4 * FFN_MULT * K * d * d             # frozen feed-forward
        total += 2 * m * d + 2 * C * m * d + 3 * C * m  # TRM matching
        total += 2 * C * m * d + 4 * C * d * d + C * d  # TRM aggregate + linear
    total += 2 * (2 * K) * d + 2 * C * d + 3 * C      # pooling + classification
    return int(total)


def bench_throughput(state: TrainedState, n_items: int, k_list,
                     reps: int = 5) -> ThroughputReport:
    """Median items/second per k over `reps` timed passes after one warm-up
    pass, plus the full-token reference: k = n_tok, None when that keeps
    fewer than every token (remove-top-k).

    Every k passes `check_selection` under the checkpoint's tier mode before
    anything is generated. The workload is a fresh synthetic split under the
    checkpoint's config; generation happens before any clock starts.
    """
    cfg = state.config
    if n_items < 100:
        raise WorkloadTooSmall(f"need >= 100 items, got {n_items}")
    if reps < 1:
        raise ConfigError(f"bench needs reps >= 1, got {reps}")
    ks = sorted({int(k) for k in k_list})
    for k in ks:
        check_selection(cfg.n_tok, k, cfg.selection_variant, cfg.tier_mode)
    per_class = -(-n_items // cfg.n_classes)
    _, workload, _ = generate_base_novel(cfg.synth_spec(), 1, per_class)
    ctx = make_eval_class_set(state, workload.text_embeddings, True)
    tokens = np.asarray(workload.tokens, dtype=np.float64)
    labels = np.asarray(workload.labels, dtype=np.int64)
    actual = workload.n_items

    def measure(k: int) -> BenchRow:
        predict_batch(tokens, state, ctx, k=k)  # warm-up
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
    if kept_count(cfg.n_tok, cfg.n_tok, cfg.selection_variant) < cfg.n_tok:
        full = None
    else:
        full = measure(cfg.n_tok) if cfg.n_tok not in ks else rows[ks.index(cfg.n_tok)]
    note = ("trainable_param_count is the exact number of trainable tensor "
            "entries at the configured widths")
    return ThroughputReport(rows=rows, full_row=full, n_items=actual, reps=reps,
                            trainable_param_count=state.params.flat.size, note=note)


# --------------------------------------------------------------------------
# gradient-check harness
# --------------------------------------------------------------------------

def gradcheck_total_loss(cfg: RunConfig, n_seeds: int = 100) -> dict:
    """Finite-difference verification of the full objective's gradients.

    For each seed a tiny episode is generated, the non-trainable stage
    (scores, selection, bank update, tiers and their TRM inputs) is run once
    and frozen, and the analytic gradient of the total loss w.r.t. every
    fusion parameter is compared against central differences of the same
    forward (`_fast_objective`), step `_GRADCHECK_EPS`. Parameter draws that
    would place a text-regularizer entry within finite-difference reach of
    the absolute-value kink (or a divided-by norm near zero) are
    deterministically redrawn, since the comparison is undefined at
    nondifferentiable points.
    """
    cfg.validate()
    if cfg.d > 16:
        raise ConfigError(f"gradient check requires d <= 16, got {cfg.d}")
    if n_seeds < 1:
        raise ConfigError(f"gradient check needs at least one seed, got {n_seeds}")
    # the check fuses every nonempty tier, as training does
    check_selection(cfg.n_tok, cfg.k_act, cfg.selection_variant, "both")
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

        bank = init_bank(text, cfg.n_proto, cfg.init_mode, _BANK_SIGMA,
                         seed=case.child(1).seed, beta=cfg.beta)
        bank, tiers, local = _front_end(X, label, bank, text, cfg)
        theta = TransformerBlockParams.random(cfg.d, cfg.heads, case.child(2))
        protos = bank.prototypes[label]

        params, V_list, R_list, cache = _draw_kink_safe_params(cfg, case, tiers, protos,
                                                               text, theta)
        item = loss_item(text, X, len(tiers), local, label)
        _, dV, dR = losses_fwd_bwd(V_list, R_list, item, weights)
        analytic = reps_bwd(cache, dV, dR)

        objective = _fast_objective(params, tiers, protos, theta, item, weights)
        errors = finite_difference_errors(objective, params.flat, analytic, _GRADCHECK_EPS)
        worst = max(worst, float(errors.max()))
        pos = 0
        for name, arr in params.tensors():
            group_err = float(errors[pos : pos + arr.size].max())
            per_group[name] = max(per_group.get(name, 0.0), group_err)
            pos += arr.size

    return {
        "seeds": n_seeds, "eps": _GRADCHECK_EPS, "threshold": 1e-4,
        "max_rel_error": worst,
        "per_group": dict(sorted(per_group.items())),
        "passed": bool(worst < 1e-4),
    }


def _fast_objective(params: FusionParams, tiers, protos, theta: TransformerBlockParams,
                    item, weights: LossWeights):
    """Value-only total-loss closure for finite-difference probing: the
    training forward, cache-free, against the item's `LossItem`, over a
    leading probe axis. It loads a (P, n) block of parameter rows as views
    (`FusionParams.over`) and returns their P totals; `params` is only read."""

    def objective(rows: np.ndarray) -> np.ndarray:
        V_list, R_list, _ = reps_fwd(tiers, protos, params.over(rows), theta,
                                     keep_cache=False)
        return losses_value(V_list, R_list, item, weights)

    return objective


def _draw_kink_safe_params(cfg: RunConfig, case: Stream, tiers, protos, text,
                           theta: TransformerBlockParams):
    """Sample fusion parameters whose neighborhood is differentiable.

    Redraws (deterministically) while any |rep - text| entry sits within a
    safety margin of zero or any norm the objective divides by is tiny: the
    pooled visual sets, every class row of each tier and every class's mean
    over the tiers. Returns the accepted draw with its `reps_fwd` output:
    (params, V_list, R_list, cache).
    """
    margin = 50.0 * _GRADCHECK_EPS
    for attempt in range(64):
        stream = case.child(10 + attempt)
        params = FusionParams.init(cfg.d, cfg.heads, stream, alpha=cfg.alpha, scale=0.1)
        params.trm_b[...] = 0.05 * stream.normals(cfg.d)
        V_list, R_list, cache = reps_fwd(tiers, protos, params, theta)
        diff_ok = all(np.abs(R - text).min() > margin for R in R_list)
        norms_ok = (
            np.linalg.norm(np.vstack(V_list).mean(axis=0)) > 1e-3
            and all(np.linalg.norm(V.mean(axis=0)) > 1e-3 for V in V_list)
            and all(np.linalg.norm(R, axis=-1).min() > 1e-3 for R in R_list)
            and np.linalg.norm(np.mean(R_list, axis=0), axis=-1).min() > 1e-3
        )
        if diff_ok and norms_ok:
            return params, V_list, R_list, cache
    raise NonFiniteLoss("could not find a kink-safe parameter draw")


# --------------------------------------------------------------------------
# checkpoint format
# --------------------------------------------------------------------------

def _state_tensors(state: TrainedState):
    out = list(state.params.tensors())
    out.extend((f"theta.{name}", arr) for name, arr in state.theta.tensors())
    out.append(("bank.prototypes", state.bank.prototypes))
    return out


def _manifest(state: TrainedState) -> list:
    return [{"name": name, "shape": list(arr.shape)} for name, arr in _state_tensors(state)]


def save_state(state: TrainedState, path) -> None:
    """SPOTCKPT container: JSON config/history/manifest + f64 LE payload, an
    exact copy of every tensor."""
    header = {"config": state.config.to_dict(), "history": state.history,
              "tensors": _manifest(state)}
    write_container(path, CKPT_MAGIC, CKPT_VERSION, header,
                    [arr.astype("<f8") for _, arr in _state_tensors(state)])


def _ckpt_layout(header: dict):
    manifest = header["tensors"]
    if not isinstance(header["history"], list) or not isinstance(manifest, list) or not all(
            isinstance(t, dict) and isinstance(t.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in t["shape"]) for t in manifest):
        raise HeaderMismatch("history must be a list, tensors a list of names and shapes")
    return [("<f8", t["shape"]) for t in manifest]


def load_state(path) -> TrainedState:
    """Read a SPOTCKPT file whose manifest lists exactly the tensors its
    config implies, all finite; the config fixes every shape, the bank's
    (n_classes, n_proto, d) included."""
    header, arrays = read_container(path, CKPT_MAGIC, CKPT_VERSION,
                                    ("config", "history", "tensors"), _ckpt_layout)
    cfg = RunConfig.from_dict(header["config"])
    # the payload matches the manifest, so checking the config's entry count
    # first bounds the blank state below by the file's size
    n_entries = (trainable_param_count(cfg.d) + block_param_count(cfg.d)
                 + cfg.n_classes * cfg.n_proto * cfg.d)
    if sum(a.size for a in arrays) != n_entries:
        raise HeaderMismatch(f"{path}: tensor manifest does not fit the config")
    state = TrainedState(
        params=FusionParams.zeros(cfg.d, cfg.heads, alpha=cfg.alpha),
        theta=TransformerBlockParams.zeros(cfg.d, cfg.heads),
        bank=MemoryBank(np.zeros((cfg.n_classes, cfg.n_proto, cfg.d)), beta=cfg.beta),
        config=cfg, history=header["history"])
    if header["tensors"] != _manifest(state):
        raise HeaderMismatch(f"{path}: tensor manifest does not fit the config")
    for (name, dst), src in zip(_state_tensors(state), arrays):
        if not np.isfinite(src).all():
            raise DataError(f"{path}: tensor {name} has non-finite values")
        dst[...] = src
    return state
