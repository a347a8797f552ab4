"""Summary statistics for timings.

A timing is reported as its median and, when the sample is large enough,
the highest percentile that still has at least ten samples beyond it,
always with the sample count. Percentiles use the nearest-rank rule.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # exact ceil(p/100 * n): binary floats would put 99.9% of 10000 at 9991
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    its rank, or None when even the 90th has fewer."""
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """n, median, quartiles and the tail percentile the sample supports."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    p = tail_percentile(len(values))
    if p is not None:
        out.update(tail_p=p, tail=nearest_rank(values, p))
    return out


def describe(values, scale: float = 1.0, unit: str = "") -> str:
    """One line: median, quartiles and tail (or why there is none), with n."""
    s = summarize(values)
    parts = [f"n={s['n']}", f"median={s['median'] * scale:.6g}{unit}"]
    if "q1" in s:
        parts.append(f"q1={s['q1'] * scale:.6g}{unit} q3={s['q3'] * scale:.6g}{unit}")
    if "tail_p" in s:
        parts.append(f"p{s['tail_p']:g}={s['tail'] * scale:.6g}{unit}")
    else:
        parts.append(f"no tail percentile (p90 needs n >= {_min_n_for(TAIL_LADDER[0])})")
    return " ".join(parts)


def _min_n_for(p: float) -> int:
    n = 1
    while n - _rank(p, n) < MIN_BEYOND:
        n += 1
    return n
