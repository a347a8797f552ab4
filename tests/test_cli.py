import contextlib
import csv
import itertools
import json
import multiprocessing
import os
import signal
import time
from dataclasses import replace

import pytest

from spotlighter import cli, pipeline
from spotlighter.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from spotlighter.config import RunConfig
from spotlighter.features import FeatureSet, generate_base_novel, read_features, write_features
from spotlighter.memory_bank import MemoryBank
from spotlighter.pipeline import BenchRow, ThroughputReport, harmonic_mean

TINY_FLAGS = ["--d", "16", "--n-tok", "8", "--n-classes", "3",
              "--signal-tokens", "2", "--distractor-pool", "6",
              "--shots", "3", "--test-per-class", "3", "--k-act", "4",
              "--n-proto", "2", "--heads", "2", "--seed", "11"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SPOTLIGHTER_SEED", raising=False)
    return tmp_path


def gen_tiny(capsys, workdir, *extra):
    code, out, _ = run(capsys, "gen", *TINY_FLAGS, "--out-dir", "data", *extra)
    assert code == EXIT_OK
    return workdir / "data"


def train_tiny(capsys, workdir, *extra):
    data = gen_tiny(capsys, workdir)
    code, out, _ = run(capsys, "train", *TINY_FLAGS, "--epochs", "2",
                       "--train", str(data / "base-train.spot"),
                       "--out", "ckpt.spot", *extra)
    assert code == EXIT_OK
    return data, json.loads(out.strip().splitlines()[-1])


# --- gen ---------------------------------------------------------------------

def test_gen_writes_three_readable_files(capsys, workdir):
    data = gen_tiny(capsys, workdir)
    for name in ("base-train", "base-test", "novel-test"):
        fs = read_features(data / f"{name}.spot")
        assert fs.n_items > 0


def test_gen_seed_determinism(capsys, workdir):
    run(capsys, "gen", *TINY_FLAGS, "--out-dir", "a")
    run(capsys, "gen", *TINY_FLAGS, "--out-dir", "b")
    for name in ("base-train", "base-test", "novel-test"):
        assert (workdir / "a" / f"{name}.spot").read_bytes() == \
               (workdir / "b" / f"{name}.spot").read_bytes()


def test_gen_rejects_negative_sigma(capsys, workdir):
    code, _, err = run(capsys, "gen", "--noise-sigma", "-1", "--out-dir", "x")
    assert code == EXIT_USAGE
    assert "noise_sigma" in err


def test_env_seed_default(capsys, workdir, monkeypatch):
    monkeypatch.setenv("SPOTLIGHTER_SEED", "11")
    code, _, _ = run(capsys, "gen", *TINY_FLAGS[:-2], "--out-dir", "env")
    assert code == EXIT_OK
    run(capsys, "gen", *TINY_FLAGS, "--out-dir", "flag")
    assert (workdir / "env" / "base-train.spot").read_bytes() == \
           (workdir / "flag" / "base-train.spot").read_bytes()


# --- train ---------------------------------------------------------------------

def test_train_smoke_json(capsys, workdir):
    _, report = train_tiny(capsys, workdir)
    assert len(report["history"]) == 2
    assert report["trainable_param_count"] > 0
    assert report["seed"] == 11
    assert os.path.exists("ckpt.spot")


def test_train_zero_weight_lambdas_total_equals_cls(capsys, workdir):
    data = gen_tiny(capsys, workdir)
    code, out, _ = run(capsys, "train", *TINY_FLAGS, "--epochs", "2",
                       "--lambda1", "0", "--lambda2", "0", "--lambda3", "0",
                       "--train", str(data / "base-train.spot"),
                       "--out", "c.spot")
    assert code == EXIT_OK
    report = json.loads(out.strip().splitlines()[-1])
    for rec in report["history"]:
        assert abs(rec["total"] - rec["cls"]) < 1e-12


def test_train_loss_decreases(capsys, workdir):
    data = gen_tiny(capsys, workdir)
    code, out, _ = run(capsys, "train", *TINY_FLAGS, "--epochs", "20",
                       "--train", str(data / "base-train.spot"),
                       "--out", "c.spot")
    assert code == EXIT_OK
    hist = json.loads(out.strip().splitlines()[-1])["history"]
    assert hist[-1]["total"] < hist[0]["total"]


@pytest.mark.parametrize("epochs", [0, 2])
def test_train_scores_the_training_split_once(capsys, workdir, monkeypatch, epochs):
    # the training split is one chunk, so a chunk call is one prediction
    # pass: training itself scores nothing, and `spotlighter train` scores
    # the trained state once for final_train_acc
    data = gen_tiny(capsys, workdir)
    chunks = []
    predict_chunk = pipeline._predict_chunk

    def counting_chunk(X, *args):
        assert len(X) < pipeline._CHUNK
        chunks.append(len(X))
        return predict_chunk(X, *args)

    monkeypatch.setattr(pipeline, "_predict_chunk", counting_chunk)
    train_set = read_features(data / "base-train.spot")
    argv = ["train", *TINY_FLAGS, "--epochs", str(epochs),
            "--train", str(data / "base-train.spot"), "--out", "ckpt.spot"]
    pipeline.train(cli._build_config(cli._build_parser().parse_args(argv)), train_set)
    assert chunks == []
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(chunks) == 1
    report = json.loads(out.strip().splitlines()[-1])
    acc, _ = pipeline.split_accuracy(pipeline.load_state("ckpt.spot"), train_set,
                                     use_trained_bank=True)
    assert report["final_train_acc"] == round(acc, 2)


def test_train_rejects_features_the_config_does_not_describe(capsys, workdir):
    # 8-token features against the default n_tok: a checkpoint would record
    # a token count its training never saw
    data = gen_tiny(capsys, workdir)
    for flags in (["--d", "16", "--n-classes", "3", "--k-act", "4"],
                  ["--d", "16", "--n-tok", "8", "--k-act", "4"]):
        code, _, err = run(capsys, "train", *flags, "--train", str(data / "base-train.spot"),
                           "--out", "ckpt.spot")
        assert code == EXIT_DATA
        assert err.startswith("error: config ") and len(err.strip().splitlines()) == 1
        assert not os.path.exists("ckpt.spot")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unlabeled_split_is_a_data_error(capsys, workdir, command):
    data, _ = train_tiny(capsys, workdir)
    split = "base-train" if command == "train" else "base-test"
    labeled = read_features(data / f"{split}.spot")
    write_features(FeatureSet(tokens=labeled.tokens, labels=None,
                              text_embeddings=labeled.text_embeddings), "bare.spot")
    argv = {"train": ["train", *TINY_FLAGS, "--train", "bare.spot", "--out", "bare.ckpt"],
            "eval": ["eval", "--checkpoint", "ckpt.spot", "--base", "bare.spot",
                     "--novel", str(data / "novel-test.spot")]}[command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DATA and out == ""
    subject = {"train": "training", "eval": "base"}[command]
    assert err == f"error: {subject} split must be labeled\n"
    assert not os.path.exists("bare.ckpt")


def test_train_missing_file_is_data_error(capsys, workdir):
    code, _, _ = run(capsys, "train", "--train", "missing.spot", "--out", "c.spot")
    assert code == EXIT_DATA


def test_config_file_with_flag_override(capsys, workdir):
    cfg = workdir / "run.cfg"
    cfg.write_text("# tiny setup\nseed = 11\nd = 16\nn_tok = 8\nn_classes = 3\n"
                   "signal_tokens = 2\ndistractor_pool = 6\nshots = 3\n"
                   "test_per_class = 3\nk_act = 4\nn_proto = 2\nheads = 2\n")
    code, _, _ = run(capsys, "gen", "--config", str(cfg), "--out-dir", "byfile")
    assert code == EXIT_OK
    run(capsys, "gen", *TINY_FLAGS, "--out-dir", "byflags")
    assert (workdir / "byfile" / "base-train.spot").read_bytes() == \
           (workdir / "byflags" / "base-train.spot").read_bytes()
    code, _, err = run(capsys, "gen", "--config", str(cfg), "--out-dir", "q",
                       "--seed", "-3")
    assert code == EXIT_USAGE


def test_unknown_config_key_rejected(capsys, workdir):
    cfg = workdir / "bad.cfg"
    cfg.write_text("definitely_not_a_key = 5\n")
    code, _, err = run(capsys, "gen", "--config", str(cfg), "--out-dir", "x")
    assert code == EXIT_USAGE
    assert "definitely_not_a_key" in err


# --- eval ---------------------------------------------------------------------

def test_eval_table_and_json_consistent(capsys, workdir):
    data, _ = train_tiny(capsys, workdir)
    code, out, _ = run(capsys, "eval", "--checkpoint", "ckpt.spot",
                       "--base", str(data / "base-test.spot"),
                       "--novel", str(data / "novel-test.spot"))
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    payload = json.loads(lines[-1])
    assert abs(payload["harmonic_mean"]
               - harmonic_mean(payload["base_acc"], payload["novel_acc"])) < 0.01
    assert f"{payload['base_acc']:.2f}" in lines[1]
    assert f"{payload['novel_acc']:.2f}" in lines[2]
    assert f"{payload['harmonic_mean']:.2f}" in lines[3]


def test_eval_tier_modes_emit_metrics(capsys, workdir):
    data, _ = train_tiny(capsys, workdir)
    for tier in ("lev1", "lev2"):
        code, out, _ = run(capsys, "eval", "--checkpoint", "ckpt.spot",
                           "--base", str(data / "base-test.spot"),
                           "--novel", str(data / "novel-test.spot"),
                           "--tier", tier)
        assert code == EXIT_OK
        assert json.loads(out.strip().splitlines()[-1])["tier_mode"] == tier


def test_eval_width_mismatch_is_data_error(capsys, workdir):
    data, _ = train_tiny(capsys, workdir)
    code, _, _ = run(capsys, "gen", "--d", "32", "--n-tok", "8", "--n-classes", "3",
                     "--signal-tokens", "2", "--k-act", "4", "--shots", "2",
                     "--test-per-class", "2", "--out-dir", "wide")
    assert code == EXIT_OK
    code, _, _ = run(capsys, "eval", "--checkpoint", "ckpt.spot",
                     "--base", str(workdir / "wide" / "base-test.spot"),
                     "--novel", str(workdir / "wide" / "novel-test.spot"))
    assert code == EXIT_DATA


# --- gradcheck ---------------------------------------------------------------------

def test_gradcheck_default_passes(capsys, workdir):
    code, out, _ = run(capsys, "gradcheck", "--seeds", "2")
    assert code == EXIT_OK
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["passed"] is True
    assert payload["max_rel_error"] < 1e-4
    assert "trm.w" in out and "irm0.wq" in out  # per-group report lines


def test_gradcheck_corruption_hook_fails(capsys, workdir, corrupt_gradient):
    code, out, _ = run(capsys, "gradcheck", "--seeds", "1")
    assert code == EXIT_NUMERIC
    assert json.loads(out.strip().splitlines()[-1])["passed"] is False


def test_corrupt_gradient_flag_is_unknown(capsys, workdir):
    code, _, _ = run(capsys, "gradcheck", "--seeds", "1", "--corrupt-gradient")
    assert code == EXIT_USAGE


def test_gradcheck_rejects_wide_model(capsys, workdir):
    code, _, err = run(capsys, "gradcheck", "--seeds", "1", "--d", "32")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("extra", [["--k-act", "1", "--tier-mode", "lev2"],
                                   ["--selection-variant", "remove-top-k", "--k-act", "8"]])
def test_contradictory_selection_fails_before_training(capsys, workdir, monkeypatch, extra):
    data = gen_tiny(capsys, workdir)
    steps = []
    monkeypatch.setattr(pipeline, "_train_step", lambda *args: steps.append(args))
    code, _, err = run(capsys, "train", *TINY_FLAGS, "--train", str(data / "base-train.spot"),
                       "--out", "ckpt.spot", *extra)
    assert code == EXIT_USAGE
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    assert steps == [] and not os.path.exists("ckpt.spot")


def test_contradictory_selection_fails_in_eval_and_gradcheck(capsys, workdir):
    data, _ = train_tiny(capsys, workdir, "--k-act", "1")
    for argv in (["eval", "--checkpoint", "ckpt.spot", "--tier", "lev2",
                  "--base", str(data / "base-test.spot"),
                  "--novel", str(data / "novel-test.spot")],
                 ["gradcheck", "--seeds", "1", "--selection-variant", "remove-top-k",
                  "--k-act", "8"]):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


# --- bench ---------------------------------------------------------------------

def test_bench_rows_and_csv(capsys, workdir):
    data, _ = train_tiny(capsys, workdir)
    code, out, _ = run(capsys, "bench", "--checkpoint", "ckpt.spot",
                       "--items", "102", "--reps", "2", "--k-list", "2,4,6,8",
                       "--csv", "bench.csv")
    assert code == EXIT_OK
    payload = json.loads(out.strip().splitlines()[-1])
    assert [r["k"] for r in payload["rows"]] == [2, 4, 6, 8]
    assert payload["full_token"]["k"] == 8
    assert payload["trainable_param_count"] > 0
    with open("bench.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "is_full", "items_per_sec", "wallclock_s", "accuracy", "flops"]
    assert len(rows) == 5  # k=8 row doubles as the full reference


# the CSV the two-loop writer produced for these reports, byte for byte
_BENCH_CSV = {
    "4,8": (b"k,is_full,items_per_sec,wallclock_s,accuracy,flops\r\n"
            b"4,False,308.6,0.049383,37.33,4000\r\n"
            b"8,False,154.3,0.098765,41.33,8000\r\n"
            b"32,True,38.6,0.395062,65.33,32000\r\n"),
    "4,32": (b"k,is_full,items_per_sec,wallclock_s,accuracy,flops\r\n"
             b"4,False,308.6,0.049383,37.33,4000\r\n"
             b"32,True,38.6,0.395062,65.33,32000\r\n"),
}


@pytest.mark.parametrize("k_list", sorted(_BENCH_CSV))
def test_bench_csv_bytes(capsys, workdir, monkeypatch, k_list):
    def row(k):
        return BenchRow(k=k, items_per_sec=1234.5678 / k, wallclock_s=0.0123456789 * k,
                        accuracy=100.0 / 3 + k, flops=1000 * k, rep_times=[0.1])

    ks = [int(k) for k in k_list.split(",")]
    rows = [row(k) for k in ks]
    report = ThroughputReport(rows=rows, full_row=rows[ks.index(32)] if 32 in ks else row(32),
                              n_items=100, reps=1, trainable_param_count=7, note="")
    state = pipeline.TrainedState(params=None, theta=None, bank=None,
                                  config=RunConfig(n_tok=32))
    monkeypatch.setattr(cli, "load_state", lambda path: state)
    monkeypatch.setattr(cli, "bench_throughput", lambda *a, **kw: report)
    code, _, _ = run(capsys, "bench", "--checkpoint", "unused", "--k-list", k_list,
                     "--csv", "bench.csv")
    assert code == EXIT_OK
    assert (workdir / "bench.csv").read_bytes() == _BENCH_CSV[k_list]


def test_bench_runs_on_a_remove_top_k_checkpoint(capsys, workdir):
    # remove-top-k keeps no token at k = n_tok, so there is no full-token row
    train_tiny(capsys, workdir, "--selection-variant", "remove-top-k", "--epochs", "1")
    code, out, err = run(capsys, "bench", "--checkpoint", "ckpt.spot", "--items", "102",
                         "--reps", "1", "--k-list", "4", "--csv", "bench.csv")
    assert code == EXIT_OK, err
    payload = json.loads(out.strip().splitlines()[-1])
    assert [r["k"] for r in payload["rows"]] == [4]
    assert payload["full_token"] is None
    with open("bench.csv") as fh:
        assert [row[:2] for row in csv.reader(fh)] == [["k", "is_full"], ["4", "False"]]
    # the row's flops count the tokens the variant keeps: 6 of 8 at k = 2
    code, out, err = run(capsys, "bench", "--checkpoint", "ckpt.spot", "--items", "102",
                         "--reps", "1", "--k-list", "2")
    assert code == EXIT_OK, err
    cfg = pipeline.load_state("ckpt.spot").config
    assert (json.loads(out.strip().splitlines()[-1])["rows"][0]["flops"]
            == pipeline.flop_count_inference(replace(cfg, selection_variant="top-k"), 6))


def test_bench_uses_the_class_count_the_bank_was_trained_on(capsys, workdir):
    # `train` builds the bank with the config's class count, so the bench
    # workload and its flop count follow the checkpoint's config
    train_tiny(capsys, workdir, "--epochs", "1")
    state = pipeline.load_state("ckpt.spot")
    assert state.bank.n_classes == state.config.n_classes == 3
    code, out, err = run(capsys, "bench", "--checkpoint", "ckpt.spot", "--items", "100",
                         "--reps", "1", "--k-list", "4")
    assert code == EXIT_OK, err
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["n_items"] == 102  # 34 items for each of the 3 classes
    assert payload["rows"][0]["flops"] == pipeline.flop_count_inference(state.config, 4)


@pytest.mark.parametrize("bank_classes, config_classes", [(1, 3), (3, 10)])
def test_a_bank_that_disagrees_with_its_config_is_a_data_error(capsys, workdir,
                                                               bank_classes, config_classes):
    data, _ = train_tiny(capsys, workdir)
    state = pipeline.load_state("ckpt.spot")
    bank = MemoryBank(state.bank.prototypes[:bank_classes], beta=state.bank.beta)
    config = state.config.with_overrides(n_classes=config_classes)
    pipeline.save_state(replace(state, bank=bank, config=config), "ckpt.spot")
    for argv in (["eval", "--base", str(data / "base-test.spot"),
                  "--novel", str(data / "novel-test.spot")],
                 ["bench", "--items", "100", "--reps", "1", "--k-list", "4"]):
        code, _, err = run(capsys, *argv, "--checkpoint", "ckpt.spot")
        assert code == EXIT_DATA, err
        assert "tensor manifest does not fit the config" in err


def test_bench_workload_too_small(capsys, workdir):
    _, _ = train_tiny(capsys, workdir)
    code, _, _ = run(capsys, "bench", "--checkpoint", "ckpt.spot",
                     "--items", "10", "--k-list", "2")
    assert code == EXIT_USAGE


# --- ablate ---------------------------------------------------------------------

def test_ablate_grid_and_csv(capsys, workdir):
    code, out, err = run(capsys, "ablate", *TINY_FLAGS, "--epochs", "1",
                         "--test-per-class", "2", "--out", "sweep.csv")
    assert code == EXIT_OK
    with open("sweep.csv") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        rows = list(reader)
    assert header == ["semantic_on", "init_mode", "recalc_on", "selection_variant",
                      "tier_mode", "base_acc", "novel_acc", "harmonic_mean",
                      "items_per_sec", "status"]
    assert len(rows) == 72
    assert all(r["status"] == "ok" for r in rows)
    combos = {(r["semantic_on"], r["init_mode"], r["recalc_on"],
               r["selection_variant"], r["tier_mode"]) for r in rows}
    assert len(combos) == 72


def _ablation_reference(argv):
    """The sweep's stable columns, one training and evaluation per cell."""
    cfg = cli._build_config(cli._build_parser().parse_args(argv))
    base_train, base_test, novel_test = generate_base_novel(cfg.synth_spec(), cfg.shots,
                                                            cfg.test_per_class)
    rows = []
    for values in itertools.product(*cli._ABLATION_GRID.values()):
        cell = dict(zip(cli._ABLATION_GRID, values))
        row = {k: str(v) for k, v in cell.items()}
        try:
            m = pipeline.evaluate(pipeline.train(cfg.with_overrides(**cell), base_train),
                                  base_test, novel_test, tier_mode=cell["tier_mode"])
            row.update(base_acc=f"{m.base_acc:.2f}", novel_acc=f"{m.novel_acc:.2f}",
                       harmonic_mean=f"{m.harmonic:.2f}", status="ok")
        except Exception as exc:
            row.update(base_acc="", novel_acc="", harmonic_mean="",
                       status=f"error:{type(exc).__name__}")
        rows.append(row)
    return rows


def _log_call(path, line):
    # a sweep's children are forked processes: what they append to a list
    # of this process is lost, what they append to a file is not
    with open(path, "a") as fh:
        fh.write(f"{line}\n")


def _logged(path):
    return path.read_text().split() if path.exists() else []


@pytest.mark.parametrize("extra", [[], ["--tier-mode", "lev2", "--k-act", "1"]])
def test_ablate_trains_once_per_cell_and_matches_per_cell_training(capsys, workdir,
                                                                   monkeypatch, extra):
    argv = ["ablate", *TINY_FLAGS, "--epochs", "1", *extra, "--out", "sweep.csv"]
    log = workdir / "trainings.log"

    def counting_train(*args, **kwargs):
        _log_call(log, args[0].tier_mode)
        return pipeline.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", counting_train)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    trainings = _logged(log)
    assert len(trainings) == 24 and all(tier_mode == "both" for tier_mode in trainings)
    with open("sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    stable = [{k: v for k, v in r.items() if k != "items_per_sec"} for r in rows]
    assert stable == _ablation_reference(argv)
    lines = err.strip().splitlines()
    assert [line.split()[0] for line in lines] == [f"[{i}/72]" for i in range(1, 73)]
    failed = [r for r in rows if r["status"] != "ok"]
    if extra:  # lev2 needs two kept tokens; k=1 top-k and bottom-k keep one
        assert len(failed) == 16
        assert all(r["tier_mode"] == "lev2" and r["status"] == "error:ConfigError"
                   for r in failed)
    else:
        assert failed == []


def _log_training_pids(monkeypatch, log):
    def pid_logging_train(*args, **kwargs):
        _log_call(log, os.getpid())
        return pipeline.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", pid_logging_train)


def test_ablate_forked_and_serial_sweeps_agree(capsys, workdir, monkeypatch):
    # two CPUs in the affinity mask share the cells between this process
    # and one forked child, one CPU runs them all here; the training pids
    # show which ran
    log = workdir / "pids.log"
    _log_training_pids(monkeypatch, log)
    sweeps = {}
    for n_cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n_cpus: set(range(n)))
        log.unlink(missing_ok=True)
        code, _, err = run(capsys, "ablate", *TINY_FLAGS, "--epochs", "1",
                           "--out", f"sweep{n_cpus}.csv")
        assert code == EXIT_OK
        assert multiprocessing.active_children() == []
        with open(f"sweep{n_cpus}.csv") as fh:
            rows = list(csv.DictReader(fh))
        pids = {int(pid) for pid in _logged(log)}
        sweeps[n_cpus] = rows, err, pids
    (forked_rows, forked_err, forked_pids), (serial_rows, serial_err, serial_pids) = (
        sweeps[2], sweeps[1])
    assert serial_pids == {os.getpid()}
    assert len(forked_pids) == 2 and os.getpid() in forked_pids
    assert len(forked_rows) == 72 and all(r["items_per_sec"] for r in forked_rows)
    stable = [[{k: v for k, v in r.items() if k != "items_per_sec"} for r in rows]
              for rows in (forked_rows, serial_rows)]
    assert stable[0] == stable[1]
    assert forked_err == serial_err
    assert [line.split()[0] for line in forked_err.splitlines()] == [f"[{i}/72]"
                                                                    for i in range(1, 73)]


def test_ablate_ends_on_a_fault_that_is_not_a_package_error(capsys, workdir, monkeypatch):
    # a package error becomes the cell's error rows; a RuntimeError is a
    # fault, so it ends the sweep before any row is written. Two CPUs in the
    # affinity mask share the cells with a forked child: a fault there still
    # ends the sweep with the child's traceback, and no child is left
    test_pid = os.getpid()

    def broken_train(*args):
        if os.getpid() == test_pid:
            return pipeline.train(*args)
        raise RuntimeError("fault in training")

    monkeypatch.setattr(cli, "train", broken_train)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="fault in training") as excinfo:
        main(["ablate", *TINY_FLAGS, "--epochs", "1", "--out", "sweep.csv"])
    assert "broken_train" in str(excinfo.value.__cause__)
    assert not os.path.exists("sweep.csv")
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def _deadline(seconds, what):
    # turns a sweep that waits where it should not into a failure
    def too_late(signum, frame):
        raise TimeoutError(what)

    handler = signal.signal(signal.SIGALRM, too_late)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def test_ablate_ends_when_its_own_cell_faults(capsys, workdir, monkeypatch):
    # a fault in one of this process's cells ends the sweep while the child
    # is still training: the child is stopped, not waited for, and no CSV is
    # written
    test_pid = os.getpid()

    def broken_train(*args):
        if os.getpid() != test_pid:
            time.sleep(600)
        raise RuntimeError("fault in training")

    monkeypatch.setattr(cli, "train", broken_train)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60, "the sweep waited for the child after its own fault"):
        with pytest.raises(RuntimeError, match="fault in training") as excinfo:
            main(["ablate", *TINY_FLAGS, "--epochs", "1", "--out", "sweep.csv"])
    assert excinfo.value.__cause__ is None
    assert not os.path.exists("sweep.csv")
    assert multiprocessing.active_children() == []


def test_ablate_ends_when_a_child_dies(capsys, workdir, monkeypatch):
    # a child that exits without raising loses its cells' results: the sweep
    # ends at the first of them, naming the exit code, with no CSV and no
    # child left
    test_pid = os.getpid()

    def dying_train(*args):
        if os.getpid() != test_pid:
            os._exit(3)
        return pipeline.train(*args)

    monkeypatch.setattr(cli, "train", dying_train)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _deadline(60, "the sweep waited for a dead child's cell"):
        with pytest.raises(RuntimeError, match="exit code 3"):
            main(["ablate", *TINY_FLAGS, "--epochs", "1", "--out", "sweep.csv"])
    assert not os.path.exists("sweep.csv")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform", ["no-affinity-mask", "no-fork"])
def test_ablate_counts_cpus_by_what_the_platform_offers(capsys, workdir, monkeypatch,
                                                       platform):
    # without an affinity mask the CPU count says how many processes share
    # the cells; without the fork start method they all run in this process
    log = workdir / "pids.log"
    _log_training_pids(monkeypatch, log)
    if platform == "no-affinity-mask":
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    code, _, _ = run(capsys, "ablate", *TINY_FLAGS, "--epochs", "1", "--out", "sweep.csv")
    assert code == EXIT_OK
    assert multiprocessing.active_children() == []
    pids = {int(pid) for pid in _logged(log)}
    if platform == "no-affinity-mask":
        assert len(pids) == 2 and os.getpid() in pids
    else:
        assert pids == {os.getpid()}


def test_ablate_predicts_each_split_once_per_row(capsys, workdir, monkeypatch):
    # every split here is one chunk, so a chunk call is one prediction pass:
    # per training, one base and one novel pass serve the three tier modes
    # (the base pass is the one timed for items_per_sec); training scores
    # nothing, at any epoch count
    epochs = 2
    log = workdir / "chunks.log"
    predict_chunk = pipeline._predict_chunk

    def counting_chunk(X, *args):
        assert len(X) < pipeline._CHUNK
        _log_call(log, len(X))
        return predict_chunk(X, *args)

    monkeypatch.setattr(pipeline, "_predict_chunk", counting_chunk)
    code, _, _ = run(capsys, "ablate", *TINY_FLAGS, "--epochs", str(epochs),
                     "--out", "sweep.csv")
    assert code == EXIT_OK
    assert len(_logged(log)) == 24 * 2


# --- usage ---------------------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    # the last four were config fields that no caller set
    for flag in ("--no-such-flag", "--lr", "--bank-sigma", "--init-scale", "--ffn-mult"):
        assert main(["gen", flag, "1"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["train", "--help"]) == EXIT_OK


def test_help_documents_reference_defaults(capsys):
    main(["train", "--help"])
    text = capsys.readouterr().out
    for flagged_default in ("[0.2]", "[0.8]", "[0.02]", "[20.0]", "[0.1]",
                            "[5]", "[16]", "[0.01]"):
        assert flagged_default in text
