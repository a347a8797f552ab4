"""The four benchmark workloads.

Each is a single-process closed loop: one caller issues an operation, waits
for it, checks its output, and issues the next. Spotlighter is an offline
batch engine with no request arrivals or queues, so no open-loop workload
exists. Every spotlighter function is called through its module attribute
(``pipeline.train``, not a name imported before tracing starts), so the
traced run's wrappers see each call.

A workload provides ``setup`` (repeated for the set-up time), ``op`` (one
timed operation), ``inspect`` (output checks outside the timed region,
returning the operations attempted and failed), ``finish`` (checks that
need the whole run) and ``summary`` (its own named metrics).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spotlighter import cli, features, pipeline
from spotlighter.config import RunConfig

SPLIT_NAMES = ("base-train", "base-test", "novel-test")

# train: the reference operating point, cut to a few epochs so that several
# train() calls fit in one run; per-step work is the same at any epoch count.
TRAIN_EPOCHS = 2
# the acceptance gate's learning targets, defined on the reference episode
# (the default seed) after RunConfig()'s full training
LEARNING_TARGETS = {"base": 95.0, "novel": 80.0}

# infer-bulk: thousands of items, so the float64 token array (16 MiB at
# 2000 x 32 x 64) is far larger than a 4 MiB L2; k=32 keeps every token.
BULK_ITEMS = 2000
BULK_KS = (4, 16, 32)
BULK_TRAIN_EPOCHS = 1

# gradcheck: each operation checks one seed, so a run holds dozens of
# operations; operation i checks seed block i % GRADCHECK_BLOCKS, so a run
# covers 10 seeds (one seed's kink-safe redraws do not set the median) and
# runs each block more than once for the identical-bytes check.
GRADCHECK_SEEDS = 1
GRADCHECK_BLOCKS = 10
GRADCHECK_THRESHOLD = 1e-4

# ablate: a reduced episode, so one 72-cell sweep takes seconds and a run
# holds several; training remains a large share of each cell.
ABLATE_CONFIG = dict(epochs=1, shots=2, test_per_class=4, d=16, n_tok=16,
                     k_act=8, heads=2, n_classes=4)
ABLATE_CELLS = math.prod(len(v) for v in cli._ABLATION_GRID.values())


class Checks:
    """Named pass/fail checks; a name keeps its first failure."""

    def __init__(self):
        self.results: dict = {}

    def require(self, name: str, ok, detail: str = "") -> None:
        entry = self.results.setdefault(name, [True, "", 0])
        entry[2] += 1
        if entry[0] and not ok:
            entry[0], entry[1] = False, detail

    @property
    def ok(self) -> bool:
        return all(entry[0] for entry in self.results.values())


def _sha16(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def _round_trip(splits, workdir: Path):
    """Write feature sets as ``.spot`` files and read them back, as the CLI's
    gen -> train/eval steps hand them over."""
    out = []
    for name, fs in zip(SPLIT_NAMES, splits):
        path = workdir / f"{name}.spot"
        features.write_features(fs, path)
        out.append(features.read_features(path))
    return tuple(out)


def _check_predictions(checks: Checks, label: str, n_classes: int, got, first=None):
    """Finite outputs, unit row sums, in-range predictions; identical bytes
    when ``first`` is the result of an identical earlier call."""
    preds, probs = got
    checks.require(f"{label}: outputs finite", np.isfinite(probs).all())
    checks.require(f"{label}: probability rows sum to 1",
                   probs.shape[1] == n_classes and np.all(probs >= 0)
                   and np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9,
                   f"max |row sum - 1| = {np.abs(probs.sum(axis=1) - 1.0).max():.3g}")
    checks.require(f"{label}: predictions in range",
                   preds.min() >= 0 and preds.max() < n_classes)
    if first is not None:
        checks.require(f"{label}: identical calls return identical bytes",
                       preds.tobytes() == first[0].tobytes()
                       and probs.tobytes() == first[1].tobytes())


def _state_arrays(state) -> list:
    return [arr for _, arr in state.params.tensors()] + [state.bank.prototypes]


class Workload:
    name = ""
    why = ""
    ops_per_call = 1        # counted operations in one op()
    signal_tokens = 1       # generator signal tokens per item, for tracing

    def __init__(self, seed: int, workdir: Path, checks: Checks):
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.digest = ""

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def inspect(self, i: int, out) -> tuple:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def summary(self, op_s: list) -> list:
        """(name, value, unit) of the workload's own metrics; op_s are the
        untraced operation times in seconds."""
        return []


class Train(Workload):
    name = "train"
    why = ("pipeline.train then evaluate at the default config: per-item, "
           "call-overhead-bound training and small-batch predict_batch")

    def __init__(self, seed, workdir, checks):
        super().__init__(seed, workdir, checks)
        self.cfg = RunConfig(seed=seed, epochs=TRAIN_EPOCHS)
        self.signal_tokens = self.cfg.signal_tokens
        self.train_s: list = []
        self.first = None

    def setup(self):
        cfg = self.cfg
        episode = features.generate_base_novel(cfg.synth_spec(), cfg.shots, cfg.test_per_class)
        self.splits = _round_trip(episode, self.workdir)
        self.ops_per_call = self.splits[0].n_items * cfg.epochs

    def op(self, i):
        base_train, base_test, novel_test = self.splits
        t0 = time.perf_counter()
        state = pipeline.train(self.cfg, base_train)
        train_s = time.perf_counter() - t0
        return state, pipeline.evaluate(state, base_test, novel_test), train_s

    def inspect(self, i, out):
        state, metrics, train_s = out
        self.train_s.append(train_s)
        self.state, self.metrics = state, metrics
        arrays = _state_arrays(state)
        blob = b"".join(a.tobytes() for a in arrays) + json.dumps(
            [state.history, metrics.to_dict()]).encode()
        if self.first is None:
            self.first = blob
            self.digest = _sha16(blob)
        self.checks.require("train: identical calls return identical bytes",
                            blob == self.first, f"operation {i} differs")
        values = [v for rec in state.history for v in rec.values()]
        values += [metrics.base_acc, metrics.novel_acc, metrics.harmonic]
        self.checks.require("train: outputs finite",
                            all(math.isfinite(v) for v in values)
                            and all(np.isfinite(a).all() for a in arrays))
        return self.ops_per_call, 0

    def finish(self):
        _, base_test, _ = self.splits
        ctx = pipeline.make_eval_class_set(self.state, base_test.text_embeddings, True)
        first = pipeline.predict_batch(base_test.tokens, self.state, ctx)
        again = pipeline.predict_batch(base_test.tokens, self.state, ctx)
        _check_predictions(self.checks, "train predict_batch", base_test.n_classes, first)
        _check_predictions(self.checks, "train predict_batch", base_test.n_classes, again, first)

        # The learning targets are the acceptance gate's, which defines them
        # on the reference episode (the default seed) after RunConfig()'s
        # full training; other seeds' episodes are harder or easier, so their
        # accuracy is reported, not gated. Full training costs about 23 s, so
        # the reference is first trained for TRAIN_EPOCHS, and at the gate's
        # own config only when that misses the targets: the check is never
        # stricter than the gate.
        ref = RunConfig()
        for epochs in (TRAIN_EPOCHS, ref.epochs):
            cfg = ref.with_overrides(epochs=epochs)
            ref_train, ref_base, ref_novel = features.generate_base_novel(
                cfg.synth_spec(), cfg.shots, cfg.test_per_class)
            m = pipeline.evaluate(pipeline.train(cfg, ref_train), ref_base, ref_novel)
            met = (m.base_acc >= LEARNING_TARGETS["base"]
                   and m.novel_acc >= LEARNING_TARGETS["novel"])
            if met:
                break
        self.reference = (epochs, m)
        self.checks.require(
            "train: reference episode meets the learning targets (base >= 95, novel >= 80)",
            met, f"base={m.base_acc:.2f} novel={m.novel_acc:.2f} after {epochs} epochs")

    def summary(self, op_s):
        m = self.metrics
        ref_epochs, ref = self.reference
        return [
            ("train_items_per_s", self.ops_per_call / statistics.median(self.train_s), "items/s"),
            ("hm_pct", m.harmonic, f"% after {TRAIN_EPOCHS} epochs"),
            ("base_acc_pct", m.base_acc, f"% after {TRAIN_EPOCHS} epochs"),
            ("novel_acc_pct", m.novel_acc, f"% after {TRAIN_EPOCHS} epochs"),
            ("reference_hm_pct", ref.harmonic,
             f"% on the reference episode after {ref_epochs} epochs"),
        ]


class InferBulk(Workload):
    name = "infer-bulk"
    why = ("predict_batch over 2000 items at k=4, 16, 32 from a reloaded checkpoint: "
           "bulk, bandwidth-heavy, read-only inference")
    ops_per_call = len(BULK_KS)

    def __init__(self, seed, workdir, checks):
        super().__init__(seed, workdir, checks)
        self.cfg = RunConfig(seed=seed, epochs=BULK_TRAIN_EPOCHS)
        self.signal_tokens = self.cfg.signal_tokens
        self.call_s = defaultdict(list)
        self.first: dict = {}
        self.accuracy: dict = {}

    def setup(self):
        cfg = self.cfg
        base_train, _, _ = features.generate_base_novel(cfg.synth_spec(), cfg.shots,
                                                         cfg.test_per_class)
        ckpt = self.workdir / "model.ckpt"
        pipeline.save_state(pipeline.train(cfg, base_train), ckpt)
        self.state = pipeline.load_state(ckpt)
        per_class = -(-BULK_ITEMS // cfg.n_classes)
        _, bulk, _ = features.generate_base_novel(cfg.synth_spec(), 1, per_class)
        path = self.workdir / "bulk.spot"
        features.write_features(bulk, path)
        self.bulk = features.read_features(path)
        self.ctx = pipeline.make_eval_class_set(self.state, self.bulk.text_embeddings, True)

    def op(self, i):
        out = []
        for k in BULK_KS:
            t0 = time.perf_counter()
            preds, probs = pipeline.predict_batch(self.bulk.tokens, self.state, self.ctx, k=k)
            out.append((k, preds, probs, time.perf_counter() - t0))
        return out

    def inspect(self, i, out):
        for k, preds, probs, seconds in out:
            self.call_s[k].append(seconds)
            first = self.first.get(k)
            _check_predictions(self.checks, f"infer-bulk k={k}", self.bulk.n_classes,
                               (preds, probs), first)
            if first is None:
                self.first[k] = (preds, probs)
                self.accuracy[k] = 100.0 * float(np.mean(preds == self.bulk.labels))
        if not self.digest:
            self.digest = _sha16(*(a.tobytes() for p in self.first.values() for a in p))
        return len(out), 0

    def summary(self, op_s):
        n = self.bulk.n_items
        rows = [(f"items_per_s_k{k}", n / statistics.median(self.call_s[k]), "items/s")
                for k in BULK_KS]
        rows += [(f"accuracy_k{k}_pct", self.accuracy[k], "%") for k in BULK_KS]
        rows.append(("input_bytes_f64", float(self.bulk.tokens.size * 8),
                     "bytes (computed from array sizes)"))
        return rows


class Gradcheck(Workload):
    name = "gradcheck"
    why = ("gradcheck_total_loss at the CLI's d=4 config, one seed per call: "
           "thousands of finite-difference probes on tiny arrays")
    ops_per_call = GRADCHECK_SEEDS

    def __init__(self, seed, workdir, checks):
        super().__init__(seed, workdir, checks)
        self.cfg = RunConfig().with_overrides(**cli._GRADCHECK_DEFAULTS, seed=seed)
        self.blocks = [self.cfg.with_overrides(seed=seed * GRADCHECK_BLOCKS + b)
                       for b in range(GRADCHECK_BLOCKS)]
        self.signal_tokens = self.cfg.signal_tokens
        self.first: dict = {}
        self.worst = 0.0
        self.setups = 0

    def setup(self):
        # what `spotlighter gradcheck --seeds 1` does, on the next seed block
        # at each repeat so that no one seed sets the median; the last
        # report is compared with the API's for the same seed once the run
        # is over
        self.cli_cfg = self.blocks[self.setups % GRADCHECK_BLOCKS]
        self.setups += 1
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.cli_code = cli.main(["gradcheck", "--seeds", "1",
                                      "--seed", str(self.cli_cfg.seed)])
        self.cli_report = json.loads(out.getvalue().strip().splitlines()[-1])

    def op(self, i):
        return pipeline.gradcheck_total_loss(self.blocks[i % GRADCHECK_BLOCKS],
                                             n_seeds=GRADCHECK_SEEDS)

    def inspect(self, i, report):
        blob = json.dumps(report, sort_keys=True).encode()
        first = self.first.setdefault(i % GRADCHECK_BLOCKS, blob)
        if not self.digest:
            self.digest = _sha16(blob)
        err = report["max_rel_error"]
        self.worst = max(self.worst, err)
        passed = report["passed"] and err < GRADCHECK_THRESHOLD
        self.checks.require("gradcheck: passed with max relative error < 1e-4", passed,
                            f"max relative error {err:.3e}")
        self.checks.require("gradcheck: outputs finite",
                            all(math.isfinite(v) for v in report["per_group"].values())
                            and math.isfinite(err))
        self.checks.require("gradcheck: identical calls return identical bytes",
                            blob == first, f"operation {i} differs")
        # the report holds only the worst seed, so a failure counts every seed
        return GRADCHECK_SEEDS, 0 if passed else GRADCHECK_SEEDS

    def finish(self):
        api = pipeline.gradcheck_total_loss(self.cli_cfg, n_seeds=1)
        self.checks.require(
            "gradcheck: API result equals the CLI's for the same seed",
            self.cli_code == 0 and self.cli_report["passed"] == api["passed"]
            and self.cli_report["max_rel_error"] == api["max_rel_error"],
            f"cli {self.cli_report} vs api {api['max_rel_error']!r}")

    def summary(self, op_s):
        return [("gradcheck_s_per_seed", statistics.median(op_s) / GRADCHECK_SEEDS, "s"),
                ("max_rel_error", self.worst, "ratio")]


class Ablate(Workload):
    name = "ablate"
    why = ("cli ablate over the fixed 72-cell grid on a reduced episode: time set "
           "by the cli layer's orchestration, 72 trainings per sweep")
    ops_per_call = ABLATE_CELLS

    def __init__(self, seed, workdir, checks):
        super().__init__(seed, workdir, checks)
        self.cfg = RunConfig().with_overrides(**ABLATE_CONFIG, seed=seed)
        self.signal_tokens = self.cfg.signal_tokens
        self.flags = [f"--seed={seed}"] + [f"--{k.replace('_', '-')}={v}"
                                           for k, v in ABLATE_CONFIG.items()]
        self.csv_path = workdir / "sweep.csv"
        self.first = None

    def setup(self):
        # `spotlighter gen` with the sweep's flags writes the episode the sweep
        # trains on; the first grid cell is the plain config, recomputed here
        # through the API as a reference for the sweep's first row
        outdir = self.workdir / "episode"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gen", *self.flags, f"--out-dir={outdir}"])
        if code != 0:
            raise RuntimeError(f"spotlighter gen exited {code}")
        base_train, base_test, novel_test = (
            features.read_features(outdir / f"{name}.spot") for name in SPLIT_NAMES)
        m = pipeline.evaluate(pipeline.train(self.cfg, base_train), base_test, novel_test,
                              tier_mode="both")
        self.reference = {"base_acc": f"{m.base_acc:.2f}", "novel_acc": f"{m.novel_acc:.2f}",
                          "harmonic_mean": f"{m.harmonic:.2f}", "status": "ok"}

    def op(self, i):
        self.csv_path.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["ablate", *self.flags, f"--out={self.csv_path}"])
        with open(self.csv_path, newline="") as fh:
            return code, list(csv.DictReader(fh))

    def inspect(self, i, out):
        code, rows = out
        ok = sum(r["status"] == "ok" for r in rows)
        self.checks.require("ablate: exit code 0", code == 0, f"exit {code}")
        self.checks.require("ablate: 72/72 cells ok",
                            len(rows) == ABLATE_CELLS and ok == ABLATE_CELLS,
                            f"{ok}/{len(rows)}")
        stable = [{k: v for k, v in r.items() if k != "items_per_sec"} for r in rows]
        if self.first is None:
            self.first = stable
            self.digest = _sha16(json.dumps(stable).encode())
        self.checks.require("ablate: every column but items_per_sec identical across repeats",
                            stable == self.first, f"sweep {i} differs")
        self.checks.require("ablate: first cell equals pipeline.train + evaluate on the episode",
                            bool(rows) and all(rows[0][k] == v for k, v in self.reference.items()),
                            f"row {rows[0] if rows else None} vs {self.reference}")
        numbers = [r[k] for r in rows for k in ("base_acc", "novel_acc", "harmonic_mean",
                                                "items_per_sec") if r[k]]
        self.checks.require("ablate: outputs finite", all(math.isfinite(float(x)) for x in numbers))
        return len(rows), len(rows) - ok

    def summary(self, op_s):
        return [("ablate_s", statistics.median(op_s), "s")]


WORKLOADS = {cls.name: cls for cls in (Train, InferBulk, Gradcheck, Ablate)}
