"""Walkthrough: the full training and evaluation loop.

Trains the fusion modules on the reference synthetic episode (only the IRM
blocks and the TRM linear receive gradients), prints the loss parts and the
bank drift (how far the epoch moved the prototypes) of a few epochs, then
scores base and novel splits and their harmonic mean.
"""

import time

from spotlighter import RunConfig, evaluate, generate_base_novel, train

cfg = RunConfig(epochs=15)  # the reference operating point, shortened a little
base_train, base_test, novel_test = generate_base_novel(
    cfg.synth_spec(), cfg.shots, cfg.test_per_class
)
print(f"training on {base_train.n_items} items "
      f"({cfg.n_classes} classes x {cfg.shots} shots), d={cfg.d}")

t0 = time.perf_counter()
state = train(cfg, base_train)
print(f"{cfg.epochs} epochs in {time.perf_counter() - t0:.1f}s; "
      f"{state.params.flat.size} trainable parameters\n")

print(f"{'epoch':>5} {'total':>9} {'cls':>7} {'reg_text':>9} {'kl_vis':>8} {'local':>8} "
      f"{'drift':>8}")
for rec in state.history[:: max(1, cfg.epochs // 6)]:
    print(f"{rec['epoch']:>5} {rec['total']:>9.5f} {rec['cls']:>7.4f} "
          f"{rec['reg_text']:>9.5f} {rec['kl_visual']:>8.5f} "
          f"{rec['local']:>8.5f} {rec['bank_drift']:>8.5f}")

metrics = evaluate(state, base_test, novel_test)
print(f"\nbase accuracy  : {metrics.base_acc:.2f}")
print(f"novel accuracy : {metrics.novel_acc:.2f}")
print(f"harmonic mean  : {metrics.harmonic:.2f}")

for tier in ("lev1", "lev2"):
    m = evaluate(state, base_test, novel_test, tier_mode=tier)
    print(f"  {tier}-only inference: base {m.base_acc:.2f} novel {m.novel_acc:.2f} "
          f"HM {m.harmonic:.2f}")
