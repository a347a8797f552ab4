"""Independent reference implementations used as oracles.

Everything here is written loop-first with scalar math so that it shares no
code path with the package: explicit per-head, per-row, per-element loops,
`math` scalar functions, and extended precision where a test calls for it.
"""

import math

import numpy as np


def ref_cosine(A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.zeros((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            dot = na = nb = 0.0
            for t in range(A.shape[1]):
                dot += A[i, t] * B[j, t]
                na += A[i, t] ** 2
                nb += B[j, t] ** 2
            out[i, j] = dot / (math.sqrt(na) * math.sqrt(nb))
    return out


def ref_softmax_extended(x, temperature):
    """Naive exp/sum at extended (long double) precision."""
    z = np.asarray(x, dtype=np.longdouble) / np.longdouble(temperature)
    z = z - z.max()
    e = np.exp(z)
    return (e / e.sum()).astype(np.float64)


def ref_kl_extended(p, q):
    p = np.asarray(p, dtype=np.longdouble)
    q = np.maximum(np.asarray(q, dtype=np.longdouble), np.longdouble(1e-12))
    total = np.longdouble(0)
    for i in range(p.size):
        if p[i] > 0:
            total += p[i] * np.log(p[i] / q[i])
    return float(total)


def _ref_layer_norm(row, g, b, eps=1e-5):
    mu = sum(row) / len(row)
    var = sum((v - mu) ** 2 for v in row) / len(row)
    inv = 1.0 / math.sqrt(var + eps)
    return np.array([g[t] * (row[t] - mu) * inv + b[t] for t in range(len(row))])


def _ref_gelu(x):
    return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))


def ref_transformer_block(Q, KV, p):
    """Loop-based pre-LN block equivalent to numerics.transformer_block_fwd."""
    Q = np.asarray(Q, dtype=float)
    KV = np.asarray(KV, dtype=float)
    d = p.d_model
    H = p.n_heads
    dh = d // H

    Qn = np.array([_ref_layer_norm(Q[i], p.ln1_g, p.ln1_b) for i in range(Q.shape[0])])
    KVn = np.array([_ref_layer_norm(KV[i], p.ln1_g, p.ln1_b) for i in range(KV.shape[0])])

    heads_out = np.zeros((Q.shape[0], d))
    for h in range(H):
        cols = slice(h * dh, (h + 1) * dh)
        q = Qn @ p.wq[:, cols] + p.bq[cols]
        k = KVn @ p.wk[:, cols] + p.bk[cols]
        v = KVn @ p.wv[:, cols] + p.bv[cols]
        for i in range(q.shape[0]):
            scores = [float(q[i] @ k[j]) / math.sqrt(dh) for j in range(k.shape[0])]
            mx = max(scores)
            ex = [math.exp(s - mx) for s in scores]
            tot = sum(ex)
            attn = [e / tot for e in ex]
            for j in range(k.shape[0]):
                heads_out[i, cols] += attn[j] * v[j]
    attn_out = heads_out @ p.wo + p.bo
    T = attn_out + Q

    Y = np.zeros_like(T)
    for i in range(T.shape[0]):
        tn = _ref_layer_norm(T[i], p.ln2_g, p.ln2_b)
        h1 = tn @ p.w1 + p.b1
        g1 = np.array([_ref_gelu(v) for v in h1])
        Y[i] = g1 @ p.w2 + p.b2 + T[i]
    return Y


def ref_trm(text, tier, w, b, alpha, temperature):
    """Loop-based residual linear fusion oracle."""
    text = np.asarray(text, dtype=float)
    tier = np.asarray(tier, dtype=float)
    out = np.zeros_like(text)
    for i in range(text.shape[0]):
        sims = ref_cosine(text[i : i + 1], tier)[0] / temperature
        mx = sims.max()
        ex = np.exp(sims - mx)
        W = ex / ex.sum()
        agg = np.zeros(tier.shape[1])
        for j in range(tier.shape[0]):
            agg += W[j] * tier[j]
        z = np.concatenate([text[i], agg])
        out[i] = alpha * (z @ w + b) + text[i]
    return out


def ref_topk_indices(scores, k, variant):
    """Full sort then slice, with explicit (score, index) keys."""
    scores = list(map(float, scores))
    desc = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    asc = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    if variant == "top-k":
        return desc[:k]
    if variant == "bottom-k":
        return asc[:k]
    if variant == "remove-top-k":
        return desc[k:]
    raise ValueError(variant)


def ref_pool_normalize(rows):
    rows = np.asarray(rows, dtype=float)
    m = rows.mean(axis=0)
    return m / math.sqrt(float(m @ m))


def ref_contrastive(v_tokens, class_rows, label, tau):
    """Plain exp/sum cross-entropy over pooled cosine logits."""
    v = ref_pool_normalize(v_tokens)
    logits = []
    for rows in class_rows:
        t = ref_pool_normalize(np.atleast_2d(rows))
        logits.append(float(v @ t) / tau)
    mx = max(logits)
    ex = [math.exp(z - mx) for z in logits]
    return -math.log(ex[label] / sum(ex))


def ref_finite_difference_errors(f, x0, analytic, eps):
    """One probe per call: f maps one parameter vector to its value, and
    coordinate i is raised, then lowered, then restored in place."""
    x = np.array(x0, dtype=float)
    errors = np.empty(x.size)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + eps
        f_plus = float(f(x))
        x[i] = orig - eps
        f_minus = float(f(x))
        x[i] = orig
        fd = (f_plus - f_minus) / (2.0 * eps)
        errors[i] = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]))
    return errors
