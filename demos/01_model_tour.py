"""Tour of the model: geometry, inference, and the masked-LM head.

Builds a small contextualizer, runs its unrolled mean-field inference on a
byte sequence, and walks through the posterior tensors it produces.

Run: python3 demos/01_model_tour.py
"""
import numpy as np

from mupt import (DIAG_WEIGHTS, ModelParams, PTConfig, SeededRng, masked_ce_loss,
                  mask_tokens, encode_corpus, mlm_logits, param_count, run_mfvi,
                  val)

config = PTConfig(width=32, rank=8, channels=2, topics=64, vocab_size=259,
                  pos_bias=True)
print(f"geometry: width={config.width} rank={config.rank} "
      f"channels={config.channels} topics={config.topics} "
      f"temperature tau = width/rank = {config.tau}")

rng = SeededRng(0)
params = ModelParams.init(config, rng.spawn("params"))
print(f"parameters: {param_count(config)} coordinates in "
      f"{len(params.tensors)} tensors: {sorted(params.tensors)}")

# A short byte sequence, masked the way the trainer does it.
corpus = encode_corpus(b"the quick brown fox jumps over the lazy dog", seq_len=16)
seq = corpus.ids[0]
corrupted, targets, selected = mask_tokens(seq, 0.25, rng.spawn("mask"), corpus)
print(f"\ntokens:    {seq.tolist()}")
print(f"corrupted: {corrupted.tolist()}   (mask id {corpus.mask_id})")
print(f"predict at positions {np.flatnonzero(selected).tolist()}")

# Inference: synchronous sweeps over label, head-selection, and topic
# posteriors. Rows of each posterior are distributions. DIAG_WEIGHTS damps
# the topic/label feedback so random-init posteriors stay informative. The
# model takes a batch of sequences; this one is a batch of one.
state = run_mfvi(config, params.tensors, corrupted[None], DIAG_WEIGHTS, iters=3)
q_z, q_h, q_g = val(state.q_z)[0], val(state.q_h)[0], val(state.q_g)[0]
print(f"\nafter {state.sweeps} sweeps:")
print(f"  q_z {q_z.shape}: label posterior per token, rows sum to "
      f"{q_z.sum(axis=-1).min():.6f}..{q_z.sum(axis=-1).max():.6f}")
print(f"  q_h {q_h.shape}: head selection per channel, diagonal is "
      f"{'exactly 0' if not q_h.diagonal(axis1=-2, axis2=-1).any() else 'NONZERO'}"
      " (no token attends to itself)")
print(f"  q_g {q_g.shape}: topic posterior per token")
ent = -(q_z * np.where(q_z > 0, np.log(q_z), 0.0)).sum(-1)
print(f"  label entropy per token: min {ent.min():.3f}, max {ent.max():.3f} "
      f"(uniform would be {np.log(config.width):.3f})")

# The quasi-distribution N*q_z is what downstream layers consume; its rows
# average to 1 regardless of width, which is what keeps coordinates stable
# when the model grows.
nz = config.width * q_z
print(f"  quasi-distribution rows average to {nz.mean(axis=-1).mean():.6f}")

logits = val(mlm_logits(config, params.tensors, state))[0]
loss = val(masked_ce_loss(mlm_logits(config, params.tensors, state),
                          targets[None], selected[None]))
print(f"\nmasked-LM head: logits {logits.shape}, loss at init {loss:.4f} "
      f"(uniform prediction would be {np.log(config.vocab_size):.4f})")
