"""Train a small masked-LM on synthetic bytes, end to end.

Covers the full loop: corpus encoding, training with grouped learning rates,
the reproducible run record, checkpoint save/load, and an SVG loss curve.
Takes a few seconds.

Run: python3 demos/04_training_demo.py
"""
import math
import os
import tempfile

from mupt import (DIAG_HP, PTConfig, SeededRng, TrainSettings, encode_corpus,
                  load_checkpoint, save_checkpoint, synth_text, train_run)
from mupt.svgplot import line_svg

config = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=259,
                  pos_bias=True)
corpus = encode_corpus(synth_text(1 << 17, seed=13), seq_len=32)
print(f"corpus: {corpus.num_chunks} chunks of {corpus.seq_len} tokens, "
      f"vocab {corpus.vocab_size}")

settings = TrainSettings(steps=300, batch_size=4, eval_interval=100,
                         mfvi_iters=3)
record, params = train_run(config, DIAG_HP, corpus, seed=0,
                           settings=settings, return_params=True)

uniform = math.log(config.vocab_size)
print(f"\ntrained {record.steps} steps (lr {DIAG_HP.lr}, "
      f"wall clock {record.wall_clock_s:.1f}s)")
for step, loss in zip(record.eval_steps, record.eval_losses):
    print(f"  step {step:4d}: eval loss {loss:.4f}")
print(f"final {record.final_eval_loss:.4f} vs uniform-prediction {uniform:.4f}")

# The record hashes everything a rerun must reproduce; wall clock excluded.
print(f"semantic digest: {record.semantic_digest()} "
      f"(bit-identical reruns produce the same digest)")

out_dir = tempfile.mkdtemp(prefix="mupt-demo-")
ckpt = os.path.join(out_dir, "model.ckpt")
save_checkpoint(ckpt, config, params.tensors,
                extra={"final": record.final_eval_loss})
loaded_cfg, loaded, extra = load_checkpoint(ckpt)
same = all((loaded[k] == params.tensors[k]).all() for k in params.tensors)
print(f"\ncheckpoint: {os.path.getsize(ckpt)} bytes, round-trip exact: {same}, "
      f"extra={extra}")

svg = os.path.join(out_dir, "loss.svg")
series = [("train", list(enumerate(record.train_losses, start=1))),
          ("eval", list(zip(record.eval_steps, record.eval_losses)))]
line_svg(svg, series, title="Masked-LM training", xlabel="step",
         ylabel="loss")
print(f"loss curve written to {svg}")
