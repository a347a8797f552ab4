"""Walkthrough: activation scoring, selection variants, stratification.

Scores one item's tokens against its class text embedding and prototypes,
keeps the top-k, and splits them into the two fusion tiers.
"""

from spotlighter import SynthSpec, generate_episode, init_bank
from spotlighter.activation import (
    combine_scores,
    sample_scores,
    select_activated,
    semantic_scores,
    stratify,
)

spec = SynthSpec(n_classes=5, n_tok=16, d=64, signal_tokens=3,
                 noise_sigma=0.3, distractor_pool=16, seed=3)
train, _ = generate_episode(spec, shots=1, test_per_class=1)
bank = init_bank(train.text_embeddings.astype(float), 5, "text", 0.05, seed=3)

item = 2
X = train.tokens[item].astype(float)
label = int(train.labels[item])
protos = bank.prototypes[label]
samp = sample_scores(X, train.text_embeddings[label].astype(float))
sem = semantic_scores(X, protos)
combined = combine_scores(samp, sem)
selected = select_activated(combined, 8)
tier1, tier2 = stratify(selected, combined, X, protos, recalc_on=False)

print(f"item of class {label}; signal tokens are indices 0..{spec.signal_tokens - 1}")
print(f"{'tok':>4} {'sample':>8} {'semantic':>9} {'combined':>9} {'kept':>5}")
kept = set(selected.tolist())
for t in range(spec.n_tok):
    print(f"{t:>4} {samp[t]:>8.3f} {sem[t]:>9.3f} "
          f"{combined[t]:>9.3f} {'yes' if t in kept else '':>5}")

print("\nselected (descending):", selected.tolist())
print("tier 1 (high):", tier1.tolist())
print("tier 2 (low): ", tier2.tolist())

print("\ndegradation variants on the same scores:")
for variant in ("top-k", "bottom-k", "remove-top-k"):
    idx = select_activated(combined, 8, variant)
    n_signal = sum(1 for t in idx if t < spec.signal_tokens)
    print(f"  {variant:<13} keeps {len(idx):2d} tokens, {n_signal} of them signal")
