import csv
import itertools
import json
import os

import pytest

from spotlighter import cli, pipeline
from spotlighter.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from spotlighter.config import RunConfig
from spotlighter.features import generate_base_novel, read_features
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


@pytest.mark.parametrize("extra", [[], ["--tier-mode", "lev2", "--k-act", "1"]])
def test_ablate_trains_once_per_cell_and_matches_per_cell_training(capsys, workdir,
                                                                   monkeypatch, extra):
    argv = ["ablate", *TINY_FLAGS, "--epochs", "1", *extra, "--out", "sweep.csv"]
    trainings = []

    def counting_train(*args, **kwargs):
        trainings.append(args[0])
        return pipeline.train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", counting_train)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(trainings) == 24 and all(cfg.tier_mode == "both" for cfg in trainings)
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


def test_ablate_predicts_each_split_once_per_row(capsys, workdir, monkeypatch):
    # every split here is one chunk, so a chunk call is one prediction pass:
    # per training, one train_acc pass per epoch, then per tier mode one base
    # and one novel pass (the base pass is the one timed for items_per_sec)
    epochs = 1
    chunks = []
    predict_chunk = pipeline._predict_chunk

    def counting_chunk(X, *args):
        assert len(X) < pipeline._CHUNK
        chunks.append(len(X))
        return predict_chunk(X, *args)

    monkeypatch.setattr(pipeline, "_predict_chunk", counting_chunk)
    code, _, _ = run(capsys, "ablate", *TINY_FLAGS, "--epochs", str(epochs),
                     "--out", "sweep.csv")
    assert code == EXIT_OK
    assert len(chunks) == 24 * (epochs + 2 * 3)


# --- usage ---------------------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen", "--no-such-flag"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["train", "--help"]) == EXIT_OK


def test_help_documents_reference_defaults(capsys):
    main(["train", "--help"])
    text = capsys.readouterr().out
    for flagged_default in ("[0.2]", "[0.8]", "[0.02]", "[20.0]", "[0.1]",
                            "[5]", "[16]", "[0.01]"):
        assert flagged_default in text
