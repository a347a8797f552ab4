"""Spotlighter benchmark: one workload per invocation, run from the root of
a source checkout.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed``. With ``--trace 0`` the
run sets up, then runs operations for ``--seconds``, repeating the set-up
between them (the median is ``setup_s``), and reports the end-to-end
metrics. With ``--trace 1`` it sets up once with every layer's entry points
wrapped, then for ``--seconds`` alternates untraced operations with wrapped
ones, and reports the per-layer metrics and the tracing overhead; the spans
are written to ``.perfbench_out/``. Either way the outputs are checked, and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# one BLAS thread: steadier on a shared machine, and never more than nproc
BLAS_THREADS = 1
# set-up is repeated between operations whenever the repeats have taken less
# than SETUP_SHARE of the time measured so far, so set-up and operation times
# are sampled over the same stretch of the run and see the same drift in
# machine speed; at least SETUP_MIN_REPEATS set-ups are timed
SETUP_SHARE = 0.1
SETUP_MIN_REPEATS = 3
MIN_OPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]


def _parse(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be > 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed, required=True)
    parser.add_argument("--seconds", type=seconds, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import spotlighter from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "spotlighter" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spotlighter package under {src}")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, str(src))
    import spotlighter
    if Path(spotlighter.__file__).resolve().parent != src / "spotlighter":
        raise SystemExit(f"perfbench: spotlighter imported from {spotlighter.__file__}")


# --------------------------------------------------------------------------
# environment stamp
# --------------------------------------------------------------------------

def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> dict:
    """Version and live thread count of the OpenBLAS numpy loaded, if any."""
    import ctypes

    import numpy as np
    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(libs[0])
    except (OSError, IndexError):
        return info
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
        try:
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            config = getattr(lib, f"{prefix}_get_config{suffix}")
        except AttributeError:
            continue
        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
        info.update(blas_threads=threads(), blas_config=config().decode())
        break
    return info


def environment(args) -> dict:
    import numpy as np
    import scipy
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed across the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def _one_op(wl, i: int, tally: Tally, tracer=None):
    """Run and check operation ``i``; returns its time, or None if it raised."""
    from layers import OP_ROOT
    span = tracer.begin(OP_ROOT) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # count the failure and keep measuring
        traceback.print_exc()
        tally.attempted += wl.ops_per_call
        tally.failed += wl.ops_per_call
        wl.checks.require("every operation completes", False, f"operation {i}: {exc!r}")
        return None
    finally:
        elapsed = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
    attempted, failed = wl.inspect(i, out)
    tally.attempted += attempted
    tally.failed += failed
    return elapsed


def _timed_setup(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def measure(wl, seconds: float, tally: Tally) -> tuple:
    """Set up, then run operations for ``seconds`` (at least MIN_OPS),
    repeating the set-up between them as SETUP_SHARE allows; returns the
    set-up times and the operation times."""
    setup_s = [_timed_setup(wl)]
    op_s = []
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() < start + seconds:
        if sum(setup_s[1:]) < SETUP_SHARE * (time.perf_counter() - start):
            setup_s.append(_timed_setup(wl))
        elapsed = _one_op(wl, i, tally)
        if elapsed is not None:
            op_s.append(elapsed)
        i += 1
    while len(setup_s) < SETUP_MIN_REPEATS:
        setup_s.append(_timed_setup(wl))
    if not op_s:
        raise RuntimeError("every operation failed")
    return setup_s, op_s


def run_plain(wl, seconds: float, tally: Tally) -> tuple:
    from stats import describe
    setup_s, op_s = measure(wl, seconds, tally)
    print(f"setup_s {describe(setup_s, 1.0, ' s')}")
    print(f"op_ms {describe(op_s, 1e3, ' ms')}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": statistics.median(setup_s),
            "op_ms": 1e3 * statistics.median(op_s),
            "peak_rss_mb": peak}, op_s


def run_traced(wl, seconds: float, tally: Tally, trace_path: Path) -> tuple:
    """Set up once untraced and once traced, then alternate untraced and
    traced operations for ``seconds``, so that both sides of the overhead
    see the same drift in machine speed."""
    import layers
    from spans import Tracer
    from spotlighter import pipeline
    from stats import describe

    tracer = Tracer()
    wl.setup()
    patch = layers.install(tracer, wl.signal_tokens)
    try:
        with tracer.span(layers.SETUP_ROOT):
            wl.setup()
    finally:
        patch.restore()
    plain_s, traced_s = [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < 2 * MIN_OPS or time.perf_counter() < deadline:
        if i % 2 == 0:
            elapsed = _one_op(wl, i, tally)
            if elapsed is not None:
                plain_s.append(elapsed)
        else:
            patch = layers.install(tracer, wl.signal_tokens)
            try:
                elapsed = _one_op(wl, i, tally, tracer)
            finally:
                patch.restore()
            if elapsed is not None:
                traced_s.append(elapsed)
        i += 1
    if not plain_s or not traced_s:
        raise RuntimeError("every untraced or every traced operation failed")
    overhead = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    share = layers.accounted_share(tracer.spans)

    print(f"untraced op_ms {describe(plain_s, 1e3, ' ms')}")
    print(f"traced op_ms {describe(traced_s, 1e3, ' ms')}")
    print(f"tracing overhead {overhead:+.2f}% of the untraced median op time "
          "(untraced and traced operations alternate)")
    print(f"self times account for {100.0 * share:.6f}% of the root spans "
          f"({len(tracer.spans)} spans; for information, not gated)")
    print("wait time: none recorded (single process, closed loop; no layer has "
          "a queue or worker pool to wait on)")
    _print_layer_table(layers.layer_table(tracer.spans), len(traced_s))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    metrics = layers.per_layer_metrics(tracer, len(traced_s), overhead,
                                       pipeline.flop_count_inference)
    return {name: m["value"] for name, m in metrics.items()}, plain_s


def _print_layer_table(table, n_ops: int) -> None:
    from layers import OP_ROOT, SETUP_ROOT
    names = sorted({name for _, name in table},
                   key=lambda n: -table.get((OP_ROOT, n), {}).get("self_ns", 0))
    op_total = sum(r["self_ns"] for (phase, _), r in table.items() if phase == OP_ROOT)
    print(f"{'span':<28}{'setup calls':>12}{'setup self ms':>14}"
          f"{'calls/op':>12}{'self ms/op':>12}{'op share':>10}")
    for name in names:
        s = table.get((SETUP_ROOT, name), {"calls": 0, "self_ns": 0})
        o = table.get((OP_ROOT, name), {"calls": 0, "self_ns": 0})
        share = 100.0 * o["self_ns"] / op_total if op_total else 0.0
        print(f"{name:<28}{s['calls']:>12}{s['self_ns'] / 1e6:>14.3f}"
              f"{o['calls'] / n_ops:>12.1f}{o['self_ns'] / 1e6 / n_ops:>12.3f}{share:>9.2f}%")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import layers
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    print(f"why {WORKLOADS[args.workload].why}")
    print("loop: one caller, closed loop (each call waits for the previous one)")

    checks, tally = Checks(), Tally()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, checks)
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            values, op_s = run_traced(wl, args.seconds, tally, trace_path)
            units = {name: unit for name, unit, _ in layers.PER_LAYER}
        else:
            values, op_s = run_plain(wl, args.seconds, tally)
            units = dict(END_TO_END)
        wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        for name, unit in END_TO_END:
            print(f"metric {name} {values[name]:.6g} {unit}")
    for name, value, unit in wl.summary(op_s):
        print(f"metric {name} {value:.6g} {unit}")
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"metric error_rate {rate:.6g} failed/attempted "
          f"({tally.failed} of {tally.attempted})")
    for name, (ok, detail, count) in checks.results.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name} (x{count})"
              + ("" if ok else f": {detail}"))
    print(f"digest {wl.digest} (for information, not gated)")

    correct = checks.ok and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
