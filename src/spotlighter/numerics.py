"""Dense numerical kernel: normalization, similarity, softmax, pre-LN
transformer blocks with exact analytic backward passes, and finite-difference
gradient verification.

Everything is float64 and pure-numpy. The block has one forward pass:

* ``transformer_block_fwd``   forward over any leading axes, returning a cache
                              for the backward pass
* ``transformer_block_bwd``   exact gradients w.r.t. inputs and, unless asked
                              not to, every tensor
* ``transformer_block_batch`` the same forward with the cache dropped
                              (inference)

Block weights may carry leading axes of their own, which broadcast against
the inputs' leading axes as numpy aligns them (from the right): weights
stacked on an axis of length T serve inputs whose last leading axis has
length T, so one call runs several blocks (the two IRM blocks of one item)
side by side; weights without leading axes serve every input. The backward
takes the row axis as its only sum: stacked weights get one gradient per
weight set.

The backward pass is hand-derived (layer norm included in full, not the
diagonal approximation); ``finite_difference_errors`` is the verification
harness used by the test suite and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DimMismatch, NonFiniteLoss, NonPositiveTemperature, NumericError, ZeroVector
from .rng import Stream

_NORM_FLOOR = 1e-12
_LN_EPS = 1e-5


# --------------------------------------------------------------------------
# elementary operations
# --------------------------------------------------------------------------

def normalize_rows(A: np.ndarray) -> np.ndarray:
    """Unit-normalize each row; ZeroVector if any row is degenerate, and
    NumericError if a norm is not finite (a NaN entry, or an overflow that
    would turn the row into zeros)."""
    A = np.asarray(A, dtype=np.float64)
    norms = np.linalg.norm(A, axis=-1, keepdims=True)
    if not np.isfinite(norms).all():
        raise NumericError("non-finite row norm")
    if np.any(norms < _NORM_FLOOR):
        raise ZeroVector("zero row in matrix")
    return A / norms


def cosine_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities: entry (..., i, j) = cos(A[..., i, :], B[..., j, :]);
    leading axes broadcast as in matmul."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[-1] != B.shape[-1]:
        raise DimMismatch(f"column counts differ: {A.shape[-1]} vs {B.shape[-1]}")
    return normalize_rows(A) @ normalize_rows(B).swapaxes(-1, -2)


def softmax_rows(X: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Temperature-scaled softmax along the last axis (a vector is one row).

    The max is subtracted before the temperature division, so any finite
    input survives even sub-unit temperatures without overflow.
    """
    if not temperature > 0:
        raise NonPositiveTemperature(f"temperature {temperature!r}")
    X = np.asarray(X, dtype=np.float64)
    with np.errstate(over="ignore"):
        e = np.exp((X - X.max(axis=-1, keepdims=True)) / temperature)
    return e / e.sum(axis=-1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


# --------------------------------------------------------------------------
# layer norm with exact backward
# --------------------------------------------------------------------------

def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_bwd(cache, dy: np.ndarray):
    """(dx, dg, db); dg and db sum over the row axis only, so leading axes
    keep one scale and shift gradient each."""
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=-2)
    db = dy.sum(axis=-2)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


# --------------------------------------------------------------------------
# transformer block parameters
# --------------------------------------------------------------------------

TENSOR_ORDER = (
    "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
    "w1", "b1", "w2", "b2",
    "ln1_g", "ln1_b", "ln2_g", "ln2_b",
)


@dataclass
class TransformerBlockParams:
    """Weights of one pre-LN block: shared-LN attention then GELU FFN.

    Projection matrices are stored combined over heads ((d, d) each); head h
    owns columns [h*dh, (h+1)*dh). ln1 normalizes both the query and the
    key/value inputs; ln2 precedes the FFN. Every tensor may carry the same
    leading axes, which stack several blocks of one shape; indexing them
    (`p[t]`) gives views of one block's weights.
    """

    wq: np.ndarray
    bq: np.ndarray
    wk: np.ndarray
    bk: np.ndarray
    wv: np.ndarray
    bv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    n_heads: int

    def __post_init__(self):
        lead, d = self.wq.shape[:-2], self.wq.shape[-1]
        if d % self.n_heads != 0:
            raise DimMismatch(f"width {d} not divisible by {self.n_heads} heads")
        for name in ("wq", "wk", "wv", "wo"):
            if getattr(self, name).shape != (*lead, d, d):
                raise DimMismatch(f"{name} must be {(*lead, d, d)}")
        hidden = self.w1.shape[-1]
        if self.w1.shape != (*lead, d, hidden) or self.w2.shape != (*lead, hidden, d):
            raise DimMismatch("FFN weight shapes inconsistent")

    @property
    def d_model(self) -> int:
        return self.wq.shape[-1]

    def __getitem__(self, index) -> "TransformerBlockParams":
        """The weight sets at `index` of the leading axes, as views."""
        return TransformerBlockParams(n_heads=self.n_heads,
                                      **{name: a[index] for name, a in self.tensors()})

    @classmethod
    def stack(cls, blocks) -> "TransformerBlockParams":
        """Blocks of one shape stacked on a new leading axis."""
        return cls(n_heads=blocks[0].n_heads,
                   **{name: np.stack([getattr(b, name) for b in blocks])
                      for name in TENSOR_ORDER})

    def tensors(self):
        """Fixed-order (name, array) pairs; the order is the wire order."""
        return [(name, getattr(self, name)) for name in TENSOR_ORDER]

    def n_params(self) -> int:
        return sum(int(a.size) for _, a in self.tensors())

    def to_bytes(self) -> bytes:
        """Concatenated float64 little-endian tensor bytes, wire order."""
        return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in self.tensors())

    @classmethod
    def zeros(cls, d: int, n_heads: int, ffn_mult: int = 2) -> "TransformerBlockParams":
        h = ffn_mult * d
        return cls(
            wq=np.zeros((d, d)), bq=np.zeros(d),
            wk=np.zeros((d, d)), bk=np.zeros(d),
            wv=np.zeros((d, d)), bv=np.zeros(d),
            wo=np.zeros((d, d)), bo=np.zeros(d),
            w1=np.zeros((d, h)), b1=np.zeros(h),
            w2=np.zeros((h, d)), b2=np.zeros(d),
            ln1_g=np.zeros(d), ln1_b=np.zeros(d),
            ln2_g=np.zeros(d), ln2_b=np.zeros(d),
            n_heads=n_heads,
        )

    @classmethod
    def random(cls, d: int, n_heads: int, stream: Stream,
               ffn_mult: int = 2, scale: float = 0.05) -> "TransformerBlockParams":
        """Small random weights (std scale/sqrt(d)), unit LN scales, zero biases."""
        h = ffn_mult * d
        s = scale / np.sqrt(d)
        return cls(
            wq=s * stream.normals(d, d), bq=np.zeros(d),
            wk=s * stream.normals(d, d), bk=np.zeros(d),
            wv=s * stream.normals(d, d), bv=np.zeros(d),
            wo=s * stream.normals(d, d), bo=np.zeros(d),
            w1=s * stream.normals(d, h), b1=np.zeros(h),
            w2=s * stream.normals(h, d), b2=np.zeros(d),
            ln1_g=np.ones(d), ln1_b=np.zeros(d),
            ln2_g=np.ones(d), ln2_b=np.zeros(d),
            n_heads=n_heads,
        )


def block_param_count(d: int, ffn_mult: int = 2) -> int:
    """Analytic tensor-entry count of one block (head count drops out)."""
    return (4 + 2 * ffn_mult) * d * d + ffn_mult * d + 9 * d


# --------------------------------------------------------------------------
# transformer block: cached forward, backward, forward-only wrapper
# --------------------------------------------------------------------------

def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    # (..., L, d) -> (..., H, L, dh)
    *lead, L, d = x.shape
    dh = d // n_heads
    return x.reshape(*lead, L, n_heads, dh).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # (..., H, L, dh) -> (..., L, d)
    *lead, H, L, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, L, H * dh)


def transformer_block_fwd(Q: np.ndarray, KV: np.ndarray, p: TransformerBlockParams):
    """Pre-LN block: attention(LN(Q), LN(KV)) + Q, then FFN(LN(.)) + residual.

    Q is (..., q, d) and KV (..., n, d); their leading axes and those of the
    weights broadcast as numpy aligns them, from the right. Returns (output
    (..., q, d), cache) where the cache carries every intermediate needed for
    the exact backward pass.
    """
    Q = np.asarray(Q, dtype=np.float64)
    KV = np.asarray(KV, dtype=np.float64)
    d = p.d_model
    if Q.shape[-1] != d or KV.shape[-1] != d:
        raise DimMismatch(f"inputs must have width {d}")

    def row(v):  # a bias or LN vector, broadcast over the rows of its weight set
        return v[..., None, :]

    dh = d // p.n_heads
    scale = 1.0 / np.sqrt(dh)

    Qn, ln_q = layer_norm_fwd(Q, row(p.ln1_g), row(p.ln1_b))
    # self-attention (KV is Q) normalises its input once
    KVn, ln_kv = (Qn, ln_q) if KV is Q else layer_norm_fwd(KV, row(p.ln1_g), row(p.ln1_b))

    qh = _split_heads(Qn @ p.wq + row(p.bq), p.n_heads)      # (..., H, q, dh)
    kh = _split_heads(KVn @ p.wk + row(p.bk), p.n_heads)     # (..., H, n, dh)
    vh = _split_heads(KVn @ p.wv + row(p.bv), p.n_heads)
    S = (qh @ kh.swapaxes(-1, -2)) * scale              # (..., H, q, n)
    A = softmax_rows(S)
    oh = A @ vh                                         # (..., H, q, dh)
    O = _merge_heads(oh)                                # (..., q, d)
    attn = O @ p.wo + row(p.bo)
    T = attn + Q

    Tn, ln_t = layer_norm_fwd(T, row(p.ln2_g), row(p.ln2_b))
    H1 = Tn @ p.w1 + row(p.b1)
    G = gelu(H1)
    F = G @ p.w2 + row(p.b2)
    Y = F + T

    cache = (p, Qn, KVn, ln_q, ln_kv, qh, kh, vh, A, O, Tn, ln_t, H1, G, scale)
    return Y, cache


def transformer_block_bwd(cache, dY: np.ndarray, param_grads: bool = True):
    """Exact gradients of a cached forward pass.

    Returns (dQ, dKV, grads) with grads keyed by TENSOR_ORDER names. Every
    gradient keeps the leading axes of the forward's broadcast: weight
    gradients sum over the row axis only, one per stacked weight set, so the
    weights must carry every leading axis of the inputs. With
    param_grads=False they are skipped and grads is None, which is all a
    frozen block needs.
    """
    p, Qn, KVn, ln_q, ln_kv, qh, kh, vh, A, O, Tn, ln_t, H1, G, scale = cache

    # Y = FFN(LN(T)) + T
    dH1 = (dY @ p.w2.swapaxes(-1, -2)) * gelu_grad(H1)
    dT_ln, dg2, db2 = layer_norm_bwd(ln_t, dH1 @ p.w1.swapaxes(-1, -2))
    dT = dY + dT_ln

    # T = attn + Q
    doh = _split_heads(dT @ p.wo.swapaxes(-1, -2), p.n_heads)   # (..., H, q, dh)
    dA = doh @ vh.swapaxes(-1, -2)                              # (..., H, q, n)
    dvh = A.swapaxes(-1, -2) @ doh                              # (..., H, n, dh)
    dS = (dA - (dA * A).sum(axis=-1, keepdims=True)) * A
    dq = _merge_heads((dS @ kh) * scale)
    dk = _merge_heads((dS.swapaxes(-1, -2) @ qh) * scale)
    dv = _merge_heads(dvh)

    dQ_ln, dg_q, db_q = layer_norm_bwd(ln_q, dq @ p.wq.swapaxes(-1, -2))
    dKV, dg_kv, db_kv = layer_norm_bwd(ln_kv, dk @ p.wk.swapaxes(-1, -2)
                                       + dv @ p.wv.swapaxes(-1, -2))
    dQ = dT + dQ_ln
    if not param_grads:
        return dQ, dKV, None

    def outer(x, dy):  # summed over rows, kept per leading index
        return x.swapaxes(-1, -2) @ dy

    grads = {
        "wq": outer(Qn, dq), "bq": dq.sum(axis=-2),
        "wk": outer(KVn, dk), "bk": dk.sum(axis=-2),
        "wv": outer(KVn, dv), "bv": dv.sum(axis=-2),
        "wo": outer(O, dT), "bo": dT.sum(axis=-2),
        "w1": outer(Tn, dH1), "b1": dH1.sum(axis=-2),
        "w2": outer(G, dY), "b2": dY.sum(axis=-2),
        "ln1_g": dg_q + dg_kv, "ln1_b": db_q + db_kv,
        "ln2_g": dg2, "ln2_b": db2,
    }
    return dQ, dKV, grads


def transformer_block_batch(Q: np.ndarray, KV: np.ndarray, p: TransformerBlockParams) -> np.ndarray:
    """`transformer_block_fwd` with the cache dropped."""
    return transformer_block_fwd(Q, KV, p)[0]


# --------------------------------------------------------------------------
# gradient verification
# --------------------------------------------------------------------------

def finite_difference_errors(f, x0: np.ndarray, analytic: np.ndarray,
                             eps: float = 1e-5) -> np.ndarray:
    """Per-coordinate |analytic - central difference| / max(1, |analytic|).

    f maps a flat float64 vector to a scalar; `analytic` is the claimed
    gradient at x0. Raises NonFiniteLoss if any probe evaluates to NaN/Inf.
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError(f"eps {eps:g} outside [1e-6, 1e-3]")
    x0 = np.asarray(x0, dtype=np.float64)
    analytic = np.asarray(analytic, dtype=np.float64)
    if x0.shape != analytic.shape:
        raise DimMismatch("gradient shape does not match parameter shape")
    errors = np.empty(x0.size)
    x = x0.copy()
    for i in range(x0.size):
        orig = x[i]
        x[i] = orig + eps
        f_plus = float(f(x))
        x[i] = orig - eps
        f_minus = float(f(x))
        x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteLoss(f"objective non-finite near coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * eps)
        errors[i] = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
    return errors
