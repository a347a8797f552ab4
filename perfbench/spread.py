"""Run one workload once per seed and report the run-to-run spread of every
end-to-end metric: the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload train --seeds 1-10

Runs are sequential; each is the benchmark command from BENCHMARK.json with
``--trace 0`` and the configured ``run_seconds``. Each run's result line is
appended to ``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    log = ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        result.update(seed=seed, wall_s=wall)
        with open(log, "a") as fh:
            fh.write(json.dumps(result) + "\n")
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: wall {wall:.1f}s correct={result['correct']} {values}", flush=True)

    worst = 0.0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values)
        flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "OVER BOUND")
        worst = max(worst, s / bound)
        print(f"{name:<14} median={statistics.median(values):.6g} spread={s:.4f} "
              f"bound={bound} bound/3={bound / 3:.4f} {flag}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
