"""Why the production forward pass can skip the temperature entirely.

The inference updates are defined through temperature-weighted energy
gradients, but every tau cancels algebraically against the quasi-distribution
scaling, and the dense topic/label coupling factors through its low-rank
form. This script runs all three computations side by side and reports the
worst elementwise deviation, then checks the hand-rolled reverse-mode
gradients of the full masked-LM loss against central finite differences.

Run: python3 demos/02_equivalence_and_gradients.py
"""
import numpy as np

from mupt import (InfoWeights, ModelParams, PTConfig, SeededRng,
                  dense_oracle_check, equivalence_check, finite_diff_check,
                  masked_ce_loss, mlm_logits, reverse_grad, run_mfvi,
                  tau_cancellation_check)

config = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                  pos_bias=True, pos_buckets=8, pos_clip=4)

# Path 1 vs 2 vs 3: literal temperature form, production shortcut, and a
# rescaled baseline, compared after every sweep and at the output head.
print("three-path equivalence (tau-literal / production / rescaled)")
for seed in range(3):
    rep = equivalence_check(config, seed=seed, iters=3, tolerance=1e-12)
    print(f"  {rep.summary()}")

# The same cancellation, isolated: (1/tau) * tau-weighted energy gradients
# equals the production logits for any tau = width/rank.
print("\ntemperature cancellation at assorted tau")
for width, rank in ((8, 8), (16, 8), (16, 2), (24, 1)):
    dev = tau_cancellation_check(width, rank, seed=0)
    print(f"  width {width:3d} rank {rank:2d} (tau {width // rank:2d}): "
          f"deviation {dev:.3e}")

# Low-rank attention coupling vs the dense matrix it factors.
dense = dense_oracle_check(config, seed=0)
print("\nlow-rank vs dense coupling:",
      ", ".join(f"{k} {v:.2e}" for k, v in dense.items()))

# Gradient check: unroll two sweeps plus the masked-LM head into a scalar
# loss and compare every parameter coordinate against central differences.
rng = SeededRng(0)
params = ModelParams.init(config, rng.spawn("params"))
tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (6,)))
selected = np.zeros(6, dtype=bool)
selected[[1, 4]] = True
corrupted = tokens.copy()
corrupted[selected] = (tokens[selected] + 1) % config.vocab_size
iw = InfoWeights()


def loss_fn(leaves):
    state = run_mfvi(config, leaves, corrupted[None], iw, iters=2)
    return masked_ce_loss(mlm_logits(config, leaves, state), tokens[None], selected[None])


leaves = params.as_vars()
grads = reverse_grad(loss_fn(leaves), leaves)
report = finite_diff_check(loss_fn, params.tensors, grads, rtol=1e-6, atol=1e-8)
print(f"\ngradients vs finite differences: passed={report.passed}, "
      f"worst ratio {report.worst_ratio:.2e} of tolerance at {report.worst_coord}")
for name, ratio in sorted(report.per_tensor.items()):
    print(f"  {name:6s} worst ratio {ratio:.2e}")
