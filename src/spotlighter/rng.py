"""Counter-based deterministic random streams.

All randomness in the package flows through `Stream`, a counter-based
SplitMix64 generator: draw i of a stream seeded with s is
``mix64(s + (i+1) * GOLDEN)`` where ``mix64`` is the standard SplitMix64
finalizer. Normal deviates come from the Box-Muller transform applied to
consecutive uniform pairs. The construction has no hidden state beyond
(seed, counter), is independent of library versions, and is cheap to
vectorize, so identical seeds reproduce identical bytes anywhere.

Sub-streams for independent purposes are derived with `Stream.child(tag)`,
which re-mixes the parent seed with the tag; generation code documents its
tag assignments so draw order never depends on call interleaving.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


class Stream:
    """Deterministic stream of uniforms/normals from a 64-bit seed."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _U64_MASK)
        self._counter = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def child(self, tag: int) -> "Stream":
        """Independent sub-stream; the tag is folded into the seed."""
        base = np.uint64((int(self._seed) + (tag + 1) * int(_GOLDEN)) & _U64_MASK)
        return Stream(int(_mix64(np.array([base]))[0]))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 values in [0, 1), from the top 53 bits of each draw."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normals(self, *shape: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on uniform pairs."""
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        # u1 in (0, 1] so log never sees zero
        u1 = (self._raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0
        u1 *= 2.0**-53
        theta = 2.0 * np.pi * self.uniforms(pairs)
        # in place from here on: the radius overwrites u1, and the cosine and
        # sine halves land straight in the output
        r = np.sqrt(np.multiply(np.log(u1, out=u1), -2.0, out=u1), out=u1)
        z = np.empty(2 * pairs)
        np.multiply(r, np.cos(theta, out=z[:pairs]), out=z[:pairs])
        np.multiply(r, np.sin(theta, out=theta), out=z[pairs:])
        z = z[:n]
        return z.reshape(shape) if shape else z[0]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n integers in [0, bound) by 64-bit modulo (bias < 2**-50 for small bounds)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        keys = self._raw(n)
        return np.argsort(keys, kind="stable")
