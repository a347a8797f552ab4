"""Walkthrough: building representative tokens.

Runs the trainable cross-attention (prototypes as queries over tier tokens),
the frozen transformer pass, and the residual linear text fusion; checks the
exact residual identities and counts the trainable parameters.
"""

import numpy as np

from spotlighter import FrozenTheta, FusionParams, reps_fwd, trainable_param_count
from spotlighter.numerics import normalize_rows
from spotlighter.rng import Stream

d, K, C, heads = 64, 5, 10, 4
stream = Stream(42)
protos = normalize_rows(stream.normals(K, d))
text = normalize_rows(stream.normals(C, d))
tier1 = stream.normals(8, d)
tier2 = stream.normals(8, d)

params = FusionParams.init(d, heads, stream, alpha=0.2)
theta = FrozenTheta.init(d, heads, stream.child(1))
V_list, R_list, _ = reps_fwd([(0, tier1), (1, tier2)], protos, text, params, theta, 0.01)
V, R = np.vstack(V_list), np.vstack(R_list)
print(f"visual representatives: {V.shape} (K per tier, concatenated)")
print(f"text representatives:   {R.shape} (C per tier, concatenated)")

zero = FusionParams.zeros(d, heads, alpha=0.0)
V0_list, R0_list, _ = reps_fwd([(0, tier1), (1, tier2)], protos, text, zero,
                               FrozenTheta.zeros(d, heads), 0.01)
V0, R0 = np.vstack(V0_list), np.vstack(R0_list)
print("\nzero weights, alpha=0: visual == [U; U]?",
      np.array_equal(V0, np.vstack([protos, protos])))
print("zero weights, alpha=0: text == [T; T]?  ",
      np.array_equal(R0, np.vstack([text, text])))

print("\ntrainable parameters at d=64, 4 heads, 2x FFN:")
print(f"  enumerated: {params.n_params()}")
print(f"  analytic:   {trainable_param_count(d, 2, shared_irm=False)}")
per_tensor = {}
for name, arr in params.tensors():
    group = name.split(".")[0]
    per_tensor[group] = per_tensor.get(group, 0) + arr.size
for group, count in per_tensor.items():
    print(f"  {group:<6} {count}")
print("\nfrozen block bytes are stable across forward passes:",
      theta.to_bytes() == theta.to_bytes())
