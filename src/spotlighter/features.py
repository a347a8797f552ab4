"""Frozen-encoder surrogate: class-conditioned synthetic token features and
the binary feature-file format used to swap in real pre-extracted features.

Synthetic construction
----------------------
Each class c owns a random unit direction mu_c. An item of class c carries
`signal_tokens` tokens of the form ``normalize(mu_c + noise)`` followed by
distractor tokens ``normalize(pool[j] + noise)`` drawn from a pool of
background directions shared by every class. The class text embedding is
``normalize(mu_c + noise)``. Noise is an isotropic gaussian calibrated so
its expected squared norm is noise_sigma**2 regardless of width (per-
coordinate std ``noise_sigma / sqrt(d)``), which keeps one sigma value
meaningful across widths.

All randomness comes from counter-based SplitMix64 streams (see rng.py).
Sub-stream tags: 0 class directions, 1 distractor pool, 2 text-embedding
noise, 3/4/5 per-split item content (train / test / extra split). Within a
split, draws are bulk: signal noise, then distractor pool indices, then
distractor noise, items in class-major order.

File format
-----------
The framing is `container.py`'s, with magic ``SPOT`` and version 1. JSON
header ``{"dtype":"f32","layout":"row-major","n_items","n_tok","d",
"n_classes","has_labels","split"}``; payload: labels as u32 (when
has_labels), visual tokens as f32 row-major, then text embeddings as f32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .container import read_container, write_container
from .errors import DataError, HeaderMismatch, InvalidSpec
from .rng import Stream

MAGIC = b"SPOT"
VERSION = 1

_TAG_CLASS_DIRS = 0
_TAG_POOL = 1
_TAG_TEXT_NOISE = 2
_TAG_SPLIT_BASE = 3
_SLAB = 256  # items per step of a split's normalisation: bounds its temporaries


@dataclass
class SynthSpec:
    """Knobs of the synthetic token generator."""

    n_classes: int = 10
    n_tok: int = 32
    d: int = 64
    signal_tokens: int = 4
    noise_sigma: float = 0.3
    distractor_pool: int = 16
    seed: int = 7

    def validate(self) -> None:
        if self.n_classes < 1:
            raise InvalidSpec("n_classes must be >= 1")
        if self.d < 2:
            raise InvalidSpec("d must be >= 2")
        if not (0 < self.signal_tokens <= self.n_tok):
            raise InvalidSpec("signal_tokens must be in [1, n_tok]")
        if self.noise_sigma < 0:
            raise InvalidSpec("noise_sigma must be >= 0")
        if self.distractor_pool < 1:
            raise InvalidSpec("distractor_pool must be >= 1")


@dataclass
class FeatureSet:
    """Immutable batch of token grids plus per-class text embeddings.

    tokens: (n_items, n_tok, d) float32; labels: (n_items,) uint32 or None;
    text_embeddings: (n_classes, d) float32.
    """

    tokens: np.ndarray
    labels: np.ndarray | None
    text_embeddings: np.ndarray
    split: str = "base"
    provenance: str = "synthetic"

    def __post_init__(self):
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.float32)
        self.text_embeddings = np.ascontiguousarray(self.text_embeddings, dtype=np.float32)
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.uint32)
            if self.labels.shape != (self.tokens.shape[0],):
                raise InvalidSpec("labels length must match item count")
            if self.labels.size and int(self.labels.max()) >= self.n_classes:
                raise InvalidSpec("label exceeds class count")
        if self.tokens.ndim != 3 or self.text_embeddings.ndim != 2:
            raise InvalidSpec("tokens must be 3-D and text embeddings 2-D")
        if self.tokens.shape[2] != self.text_embeddings.shape[1]:
            raise InvalidSpec("token and text widths differ")
        if not np.isfinite(self.tokens).all() or not np.isfinite(self.text_embeddings).all():
            raise InvalidSpec("non-finite feature values")
        # immutable after construction
        self.tokens.flags.writeable = False
        self.text_embeddings.flags.writeable = False
        if self.labels is not None:
            self.labels.flags.writeable = False

    @property
    def n_items(self) -> int:
        return self.tokens.shape[0]

    @property
    def n_tok(self) -> int:
        return self.tokens.shape[1]

    @property
    def d(self) -> int:
        return self.tokens.shape[2]

    @property
    def n_classes(self) -> int:
        return self.text_embeddings.shape[0]

    def content_bytes(self) -> bytes:
        """Raw bytes of all arrays; equality means bit-identical content."""
        parts = [self.tokens.tobytes(), self.text_embeddings.tobytes()]
        if self.labels is not None:
            parts.append(self.labels.tobytes())
        return b"".join(parts)


def _unit_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.divide(x, np.linalg.norm(x, axis=-1, keepdims=True), out=out)


def _make_split(mu: np.ndarray, text: np.ndarray, pool: np.ndarray,
                spec: SynthSpec, per_class: int, stream: Stream,
                split: str) -> FeatureSet:
    C = mu.shape[0]
    n_items = C * per_class
    n_sig = spec.signal_tokens
    n_dis = spec.n_tok - n_sig
    sig_scale = spec.noise_sigma / np.sqrt(spec.d)

    sig_noise = sig_scale * stream.normals(n_items, n_sig, spec.d)
    if n_dis:
        dis_idx = stream.integers(n_items * n_dis, spec.distractor_pool).reshape(n_items, n_dis)
        dis_noise = stream.normals(n_items, n_dis, spec.d)

    labels = np.repeat(np.arange(C, dtype=np.uint32), per_class)
    tokens = np.empty((n_items, spec.n_tok, spec.d), dtype=np.float32)
    for i in range(0, n_items, _SLAB):  # rows normalised in float64, rounded on the store
        s = slice(i, i + _SLAB)
        _unit_rows(mu[labels[s]][:, None, :] + sig_noise[s], out=tokens[s, :n_sig, :])
        if n_dis:
            _unit_rows(sig_scale * dis_noise[s] + pool[dis_idx[s]], out=tokens[s, n_sig:, :])

    return FeatureSet(
        tokens=tokens,
        labels=labels,
        text_embeddings=text.astype(np.float32),
        split=split,
        provenance=f"synthetic-seed:{stream.seed}",
    )


def _draw_episode_basis(spec: SynthSpec, n_classes: int):
    root = Stream(spec.seed)
    mu = _unit_rows(root.child(_TAG_CLASS_DIRS).normals(n_classes, spec.d))
    pool = _unit_rows(root.child(_TAG_POOL).normals(spec.distractor_pool, spec.d))
    text_noise = root.child(_TAG_TEXT_NOISE).normals(n_classes, spec.d)
    text = _unit_rows(mu + spec.noise_sigma / np.sqrt(spec.d) * text_noise)
    return root, mu, pool, text


def generate_episode(spec: SynthSpec, shots: int, test_per_class: int):
    """One few-shot episode over spec.n_classes classes: (train, test)."""
    spec.validate()
    if shots < 1 or test_per_class < 1:
        raise InvalidSpec("shots and test_per_class must be >= 1")
    root, mu, pool, text = _draw_episode_basis(spec, spec.n_classes)
    train = _make_split(mu, text, pool, spec, shots,
                        root.child(_TAG_SPLIT_BASE), "base")
    test = _make_split(mu, text, pool, spec, test_per_class,
                       root.child(_TAG_SPLIT_BASE + 1), "base")
    return train, test


def generate_base_novel(spec: SynthSpec, shots: int, test_per_class: int):
    """Base-to-novel protocol: 2C classes drawn, first C trainable ("base"),
    last C held out ("novel"). Returns (base_train, base_test, novel_test);
    novel labels and text embeddings are local to the novel class set.
    """
    spec.validate()
    if shots < 1 or test_per_class < 1:
        raise InvalidSpec("shots and test_per_class must be >= 1")
    C = spec.n_classes
    root, mu, pool, text = _draw_episode_basis(spec, 2 * C)
    base_train = _make_split(mu[:C], text[:C], pool, spec, shots,
                             root.child(_TAG_SPLIT_BASE), "base")
    base_test = _make_split(mu[:C], text[:C], pool, spec, test_per_class,
                            root.child(_TAG_SPLIT_BASE + 1), "base")
    novel_test = _make_split(mu[C:], text[C:], pool, spec, test_per_class,
                             root.child(_TAG_SPLIT_BASE + 2), "novel")
    return base_train, base_test, novel_test


# --------------------------------------------------------------------------
# file IO
# --------------------------------------------------------------------------

def write_features(fs: FeatureSet, path) -> None:
    header = {"dtype": "f32", "layout": "row-major", "n_items": fs.n_items,
              "n_tok": fs.n_tok, "d": fs.d, "n_classes": fs.n_classes,
              "has_labels": fs.labels is not None, "split": fs.split}
    arrays = [] if fs.labels is None else [fs.labels.astype("<u4", copy=False)]
    arrays += [fs.tokens.astype("<f4", copy=False), fs.text_embeddings.astype("<f4", copy=False)]
    write_container(path, MAGIC, VERSION, header, arrays)


_REQUIRED_KEYS = ("dtype", "layout", "n_items", "n_tok", "d", "n_classes", "has_labels", "split")


def _layout(header: dict):
    if header["dtype"] != "f32" or header["layout"] != "row-major":
        raise HeaderMismatch("unsupported dtype/layout")
    sizes = [header[k] for k in ("n_items", "n_tok", "d", "n_classes")]
    if not all(type(v) is int and v >= 0 for v in sizes) or type(header["has_labels"]) is not bool:
        raise HeaderMismatch(f"sizes {sizes} must be nonnegative integers and has_labels "
                             f"{header['has_labels']!r} a boolean")
    n_items, n_tok, d, n_cls = sizes
    labels = [("<u4", (n_items,))] if header["has_labels"] else []
    return labels + [("<f4", (n_items, n_tok, d)), ("<f4", (n_cls, d))]


def read_features(path) -> FeatureSet:
    header, arrays = read_container(path, MAGIC, VERSION, _REQUIRED_KEYS, _layout)
    labels = arrays.pop(0) if header["has_labels"] else None
    tokens, text = arrays
    try:
        return FeatureSet(tokens=tokens, labels=labels, text_embeddings=text,
                          split=str(header["split"]), provenance=str(path))
    except InvalidSpec as exc:  # bad file content is a data error, not a usage one
        raise DataError(f"{path}: {exc}") from exc
