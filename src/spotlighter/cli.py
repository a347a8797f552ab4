"""Command-line front end.

Commands: gen, train, eval, ablate, gradcheck, bench. Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numeric failure (the error's family
carries its code; an OS error reading or writing a file is a data error;
ablate records a package error as a cell's error rows, and any other
exception ends it). ablate trains its 24 cells in parallel, one process
per CPU the process may use (its affinity mask where the platform has
one, taskset narrows it; else the CPU count): the command's own process
and children forked for the sweep, which end with it. The rows keep grid
order; a child that dies ends the sweep. Without the fork start method
the cells run one after another in the process.
SPOTLIGHTER_SEED provides the default seed; an explicit config file value
or --seed flag overrides it. Config files are flat key=value text; flags
override the file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import fields

import numpy as np

from .activation import VARIANTS, check_selection
from .config import TIER_MODES, RunConfig, parse_config_file, parse_value
from .errors import ConfigError, SpotlighterError
from .features import generate_base_novel, read_features, write_features
from .memory_bank import INIT_RANDOM, INIT_TEXT
from .pipeline import (
    bench_throughput,
    evaluate,
    gradcheck_total_loss,
    harmonic_mean,
    load_state,
    save_state,
    split_accuracies,
    split_accuracy,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_GRADCHECK_DEFAULTS = dict(d=4, n_tok=8, n_classes=3, signal_tokens=2, k_act=4,
                           n_proto=2, heads=2)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value config file; flags override it")
    group = parser.add_argument_group("config overrides (defaults in brackets)")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        group.add_argument(flag, dest=f.name, default=None,
                           help=f"[{f.default}]", metavar=f.name.upper())


def _build_config(args, extra_defaults: dict | None = None) -> RunConfig:
    data = {**RunConfig().to_dict(), **(extra_defaults or {})}
    env_seed = os.environ.get("SPOTLIGHTER_SEED")
    if env_seed is not None:
        data["seed"] = parse_value("seed", env_seed, "SPOTLIGHTER_SEED")
    if args.config:
        data.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            data[f.name] = parse_value(f.name, text, "--" + f.name.replace("_", "-"))
    return RunConfig.from_dict(data)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = _build_config(args)
    base_train, base_test, novel_test = generate_base_novel(
        cfg.synth_spec(), cfg.shots, cfg.test_per_class
    )
    outdir = args.out_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, fs in (("base-train", base_train), ("base-test", base_test),
                     ("novel-test", novel_test)):
        path = os.path.join(outdir, f"{name}.spot")
        write_features(fs, path)
        paths[name] = path
    print(
        f"generated seed={cfg.seed} classes={cfg.n_classes}+{cfg.n_classes} "
        f"tokens={cfg.n_tok}x{cfg.d} shots={cfg.shots} "
        f"test_per_class={cfg.test_per_class} -> {paths['base-train']} "
        f"{paths['base-test']} {paths['novel-test']}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _build_config(args)
    train_set = read_features(args.train)
    state = train(cfg, train_set)
    save_state(state, args.out)
    final_acc, _ = split_accuracy(state, train_set, use_trained_bank=True)
    report = {
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "history": state.history,
        "final_train_acc": round(final_acc, 2),
        "trainable_param_count": state.params.flat.size,
        "checkpoint": args.out,
    }
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    state = load_state(args.checkpoint)
    tier_mode = args.tier or state.config.tier_mode
    base = read_features(args.base)
    novel = read_features(args.novel)
    metrics = evaluate(state, base, novel, tier_mode=tier_mode)
    rounded = {
        "base_acc": round(metrics.base_acc, 2),
        "novel_acc": round(metrics.novel_acc, 2),
        "harmonic_mean": round(metrics.harmonic, 2),
        "tier_mode": tier_mode,
        "per_class_base": [round(x, 2) for x in metrics.per_class_base],
        "per_class_novel": [round(x, 2) for x in metrics.per_class_novel],
    }
    print(f"{'split':<10}{'accuracy':>10}")
    print(f"{'base':<10}{rounded['base_acc']:>10.2f}")
    print(f"{'novel':<10}{rounded['novel_acc']:>10.2f}")
    print(f"{'harmonic':<10}{rounded['harmonic_mean']:>10.2f}")
    print(json.dumps(rounded, sort_keys=True))
    return EXIT_OK


_ABLATION_GRID = {
    "semantic_on": (True, False),
    "init_mode": (INIT_TEXT, INIT_RANDOM),
    "recalc_on": (True, False),
    "selection_variant": VARIANTS,
    "tier_mode": TIER_MODES,
}

_ABLATION_COLUMNS = (
    "semantic_on", "init_mode", "recalc_on", "selection_variant", "tier_mode",
    "base_acc", "novel_acc", "harmonic_mean", "items_per_sec", "status",
)


def _failed(exc: SpotlighterError) -> dict:
    return dict(base_acc="", novel_acc="", harmonic_mean="", items_per_sec="",
                status=f"error:{type(exc).__name__}")


def _tier_rows(base_cfg: RunConfig, cell: dict, base_train, base_test, novel_test) -> list:
    """The result columns of one training cell under each tier mode.

    A tier mode that `check_selection` rejects gets its error row. Training
    never reads the tier mode, so one training, under "both" (the weakest
    selection bound), and one scoring pass per split serve the other modes:
    their rows share `items_per_sec`, the base split's item count over the
    seconds of its pass, class-set build included.
    """
    cfg = base_cfg.with_overrides(**cell, tier_mode="both")
    rows = {}
    for tier_mode in TIER_MODES:
        try:
            check_selection(cfg.n_tok, cfg.k_act, cfg.selection_variant, tier_mode)
        except SpotlighterError as exc:
            rows[tier_mode] = _failed(exc)
    modes = [tier_mode for tier_mode in TIER_MODES if tier_mode not in rows]
    try:
        state = train(cfg, base_train)
        t0 = time.perf_counter()
        base = split_accuracies(state, base_test, True, modes)
        seconds = time.perf_counter() - t0
        novel = split_accuracies(state, novel_test, False, modes)
    except SpotlighterError as exc:  # the cell's three rows share the failure
        return [_failed(exc)] * len(TIER_MODES)
    for tier_mode in modes:
        (base_acc, _), (novel_acc, _) = base[tier_mode], novel[tier_mode]
        rows[tier_mode] = dict(
            base_acc=f"{base_acc:.2f}",
            novel_acc=f"{novel_acc:.2f}",
            harmonic_mean=f"{harmonic_mean(base_acc, novel_acc):.2f}",
            items_per_sec=f"{base_test.n_items / seconds:.1f}",
            status="ok",
        )
    return [rows[tier_mode] for tier_mode in TIER_MODES]


class _ChildTraceback(Exception):
    """The traceback, as text, of a fault raised in a sweep's forked child."""


def _send_results(job, cells, conn) -> None:
    # in a forked child: the results of its cells, in order, under main's
    # error state (set here rather than taken on from the parent); a fault
    # is sent with its traceback and ends the child's share
    with np.errstate(all="ignore"):
        for cell in cells:
            try:
                conn.send((job(cell), None))
            except Exception as exc:
                conn.send((exc, traceback.format_exc()))
                return


def _received(child, conn):
    """The next result a child sends; a fault it sent is raised here."""
    try:
        result, child_traceback = conn.recv()
    except EOFError:
        child.join()
        raise RuntimeError(f"ablate: child {child.pid} ended with exit code "
                           f"{child.exitcode} before sending a cell's result") from None
    if child_traceback is not None:
        raise result from _ChildTraceback(child_traceback)
    return result


@contextlib.contextmanager
def _shared_sweep(job, cells, n_procs):
    """The job's results for the cells, in cell order. Cell i runs in
    process i % n_procs: 0 is this one, the others are children forked for
    the sweep, which send theirs in order through a pipe; with one process
    nothing is forked. Fork, not spawn:
    a child takes the job, splits included, and whatever this process has
    patched, without pickling. This process runs its share rather than
    wait, so it takes back the pages that the fork left copy-on-write as it
    trains, not in whatever it runs after the sweep. A fault in any cell,
    or a child that dies, ends the sweep, and no child outlives it."""
    children = []
    try:
        for j in range(1, n_procs):
            conn, child_conn = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_send_results, args=(job, cells[j::n_procs], child_conn))
            child.start()
            child_conn.close()
            children.append((child, conn))
        yield (job(cell) if i % n_procs == 0 else _received(*children[i % n_procs - 1])
               for i, cell in enumerate(cells))
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()


def _sweep_rows(cells, results) -> list:
    """The CSV rows of the cells' results, taken in cell order, with one
    stderr progress line per row."""
    n_rows = len(cells) * len(TIER_MODES)
    rows = []
    for cell, cell_results in zip(cells, results):
        for tier_mode, result in zip(TIER_MODES, cell_results):
            row = {k: str(v) for k, v in cell.items()}
            row.update(tier_mode=tier_mode, **result)
            rows.append(row)
            print(f"[{len(rows)}/{n_rows}] {row['status']} "
                  + " ".join(f"{k}={row[k]}" for k in _ABLATION_GRID), file=sys.stderr)
    return rows


def cmd_ablate(args) -> int:
    base_cfg = _build_config(args)
    base_train, base_test, novel_test = generate_base_novel(
        base_cfg.synth_spec(), base_cfg.shots, base_cfg.test_per_class
    )
    # 24 trainings, each evaluated under the three tier modes (_tier_rows,
    # whose return frees its state before the next training); tier_mode is
    # the grid's last axis, so the rows keep the product order. The cells
    # are shared by one process per CPU the process may use, or all run in
    # this one without the fork start method; forked children inherit the
    # job, splits included, and send back only results
    names = list(_ABLATION_GRID)[:-1]
    cells = [dict(zip(names, values))
             for values in itertools.product(*(_ABLATION_GRID[n] for n in names))]
    job = functools.partial(_tier_rows, base_cfg, base_train=base_train,
                            base_test=base_test, novel_test=novel_test)
    n_cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    n_procs = (min(len(cells), n_cpus) if "fork" in multiprocessing.get_all_start_methods()
               else 1)
    with _shared_sweep(job, cells, n_procs) as results:
        rows = _sweep_rows(cells, results)

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_ABLATION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    ok = sum(r["status"] == "ok" for r in rows)
    print(f"ablation sweep: {ok}/{len(rows)} cells ok -> {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _build_config(args, extra_defaults=_GRADCHECK_DEFAULTS)
    report = gradcheck_total_loss(cfg, n_seeds=args.seeds)
    for name, err in report["per_group"].items():
        print(f"{name:<14} worst {err:.3e}")
    print(f"max relative error over {report['seeds']} seeds: "
          f"{report['max_rel_error']:.3e} (threshold {report['threshold']:g})")
    print(json.dumps({k: report[k] for k in ("seeds", "eps", "max_rel_error",
                                             "threshold", "passed")},
                     sort_keys=True))
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


_BENCH_COLUMNS = ("k", "is_full", "items_per_sec", "wallclock_s", "accuracy", "flops")


def cmd_bench(args) -> int:
    state = load_state(args.checkpoint)
    try:
        k_list = [int(tok) for tok in args.k_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--k-list: {args.k_list!r} is not a list of ints") from exc
    report = bench_throughput(state, n_items=args.items, k_list=k_list, reps=args.reps)
    print(json.dumps(report.to_dict(), sort_keys=True))
    if args.csv:
        rows = list(report.rows)
        if report.full_row and report.full_row.k not in [r.k for r in rows]:
            rows.append(report.full_row)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_BENCH_COLUMNS)
            for row in rows:
                writer.writerow([row.k, row is report.full_row,
                                 f"{row.items_per_sec:.1f}", f"{row.wallclock_s:.6f}",
                                 f"{row.accuracy:.2f}", row.flops])
    return EXIT_OK


# --------------------------------------------------------------------------
# parser / dispatch
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotlighter",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate base/novel synthetic feature files")
    _add_config_flags(p)
    p.add_argument("--out-dir", default=".", help="directory for the .spot files")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("train", help="train the fusion modules on a feature file")
    _add_config_flags(p)
    p.add_argument("--train", required=True, help="base-train feature file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(run=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on base and novel splits")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--base", required=True, help="base-test feature file")
    p.add_argument("--novel", required=True, help="novel-test feature file")
    p.add_argument("--tier", choices=TIER_MODES, default=None,
                   help="override inference tier mode")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("ablate", help="run the fixed 72-cell ablation grid")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(run=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all trainable gradients")
    _add_config_flags(p)
    p.add_argument("--seeds", type=int, default=100, help="[100]")
    p.set_defaults(run=cmd_gradcheck)

    p = sub.add_parser("bench", help="throughput/accuracy sweep over k")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--items", type=int, default=1000, help="[1000]")
    p.add_argument("--reps", type=int, default=5, help="[5]")
    p.add_argument("--k-list", default="4,8,16,32", help="[4,8,16,32]")
    p.add_argument("--csv", default=None, help="also write rows to this CSV")
    p.set_defaults(run=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 0 for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        # every non-finite outcome raises, so numpy's warnings would only
        # repeat the one error line
        with np.errstate(all="ignore"):
            return args.run(args)
    except (SpotlighterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_DATA)  # an OSError is a data error


if __name__ == "__main__":
    sys.exit(main())
