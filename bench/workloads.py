"""The four workloads of the benchmark, driven through the public API of mupt.

A workload has a set-up (inputs made from the seed), a round (the timed
operations, repeated until the run's time is spent) and checks (run once after
the rounds, outside the timed section). Every round attempts the same
operations; an operation is one training run, one evaluation pass, one
checkpoint round trip or one ladder width.

Each round reports the same figures, from which run.py takes medians:

    main_s         wall time of the workload's training call
    train_tokens   optimizer steps x batch x seq_len inside that call
    runs, steps    training runs (ladder widths) and optimizer steps in it
    eval_s         wall times of the round's training.evaluate passes on a frozen set
    eval_tokens    tokens in that frozen set
    final_eval_loss
"""
from __future__ import annotations

import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mupt import autodiff, checkpoint, diagnostics, model, search, training
from mupt import corpus as corpus_mod
from mupt.config import SCALE_CHANNELS, SCALE_RANK, PTConfig
from mupt.mup import WidthScaler
from mupt.rng import SeededRng

from dense_reference import reference_eval_loss

# Width-64 ladder base with the position bias on; the train workloads take it
# to width 256 (the width of acceptance criterion 9).
LADDER_BASE = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=259,
                       pos_bias=True)
HP = diagnostics.DIAG_HP
ITERS = 3
BATCH = 4
REFERENCE_RTOL = 1e-9           # evaluate vs the dense reference forward
GRAD_RTOL, GRAD_ATOL = 1e-6, 1e-8
GRAD_STEP = 1e-5
EVAL_PASSES = 10                # 1-2 s a round: the machine's speed wanders over seconds


class Ops:
    """Counts the operations of one round; an operation after a failure fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def run(self, count: int, fn, *args, **kwargs):
        """Call fn as `count` operations; returns (result, seconds) or (None, None)."""
        self.attempted += count
        if self.failed:
            self.failed += count
            return None, None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += count
            return None, None
        return out, perf_counter() - t0


@dataclass
class Round:
    attempted: int
    failed: int
    figures: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)       # outputs the checks read
    traced: bool = False


def _frozen_eval(config, corpus, seed: int, chunks: int):
    """Held-out chunks with their corruption frozen once, as training freezes them."""
    settings = training.TrainSettings(batch_size=BATCH, max_eval_chunks=chunks,
                                      mfvi_iters=ITERS)
    _, eval_idx = corpus_mod.split_chunks(corpus, 0.1, SeededRng(seed).spawn("bench/split"))
    batches = training.build_eval_batches(config, corpus, eval_idx, settings,
                                          SeededRng(seed).spawn("bench/eval-mask"))
    tokens = sum(int(b[0].size) for b in batches)
    return batches, tokens


def _eval_passes(ops: Ops, inputs: dict, tensors: dict) -> tuple[list, list]:
    """EVAL_PASSES evaluation passes, each one operation: (losses, seconds)."""
    losses, seconds = [], []
    for _ in range(EVAL_PASSES):
        loss, dt = ops.run(1, training.evaluate, inputs["eval_config"], tensors, HP,
                           inputs["eval_batches"], ITERS)
        losses.append(loss)
        seconds.append(dt)
    return losses, seconds


def _check_reference(inputs: dict, rounds: list[Round]) -> tuple[bool, str]:
    last = [r for r in rounds if "eval_loss" in r.keep]
    if not last:
        return False, "no evaluation pass completed"
    keep = last[-1].keep
    ref = reference_eval_loss(inputs["eval_config"], keep["eval_tensors"], HP.weights,
                              inputs["eval_batches"], ITERS)
    rel = max(abs(x - ref) / abs(ref) for x in keep["eval_loss"])
    return rel <= REFERENCE_RTOL, (
        f"{len(keep['eval_loss'])} passes of evaluate {keep['eval_loss'][0]:.12f} vs dense "
        f"reference {ref:.12f}, relative difference {rel:.2e} (limit {REFERENCE_RTOL:g})")


def _batch_loss(config, params, batch):
    corrupted, targets, selected = batch
    state = model.run_mfvi(config, params, corrupted, HP.weights, iters=ITERS)
    return model.masked_ce_loss(model.mlm_logits(config, params, state), targets, selected)


def _check_gradient(config, tensors: dict, corpus, seed: int) -> tuple[bool, str]:
    """Central-difference directional derivative vs the tape gradient."""
    rng = SeededRng(seed).spawn("bench/grad-check")
    chunks = corpus.ids[rng.permutation(corpus.num_chunks)[:BATCH]]
    parts = [corpus_mod.mask_tokens(c, 0.15, rng, corpus) for c in chunks]
    batch = tuple(np.stack(x) for x in zip(*parts))
    leaves = {k: autodiff.Var(v.copy()) for k, v in tensors.items()}
    grads = autodiff.reverse_grad(_batch_loss(config, leaves, batch), leaves)
    direction = {k: rng.normal(v.shape) for k, v in tensors.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    tape = sum(float((grads[k] * direction[k]).sum()) for k in tensors)

    def loss_at(sign: float) -> float:
        moved = {k: v + sign * GRAD_STEP * direction[k] for k, v in tensors.items()}
        return float(autodiff.val(_batch_loss(config, moved, batch)))

    fd = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * GRAD_STEP)
    ok = abs(tape - fd) <= GRAD_ATOL + GRAD_RTOL * max(abs(tape), abs(fd))
    return ok, (f"tape {tape:.10e} vs central difference {fd:.10e} "
                f"(step {GRAD_STEP:g}, rtol {GRAD_RTOL:g}, atol {GRAD_ATOL:g})")


class TrainWidth256:
    """train_run at width 256, then evaluate and a checkpoint round trip."""

    CORPUS_BYTES = 1 << 17
    SEQ_LEN = 64
    SETTINGS = training.TrainSettings(steps=20, batch_size=BATCH, eval_interval=20,
                                      max_eval_chunks=8, mfvi_iters=ITERS)
    EVAL_CHUNKS = 8

    def __init__(self, name: str, paradigm: str) -> None:
        self.name = name
        self.paradigm = paradigm

    def setup(self, seed: int, out_dir: str) -> dict:
        corpus = corpus_mod.encode_corpus(
            corpus_mod.synth_text(self.CORPUS_BYTES, seed), self.SEQ_LEN)
        config = WidthScaler(LADDER_BASE, self.paradigm).config_at(256)
        batches, tokens = _frozen_eval(config, corpus, seed, self.EVAL_CHUNKS)
        return {"seed": seed, "corpus": corpus, "config": config, "eval_config": config,
                "eval_batches": batches, "eval_tokens": tokens,
                "ckpt_path": os.path.join(out_dir, f"{self.name}.ckpt")}

    def round(self, inputs: dict) -> Round:
        ops = Ops()
        config, s = inputs["config"], self.SETTINGS
        trained, t_train = ops.run(1, training.train_run, config, HP, inputs["corpus"],
                                   inputs["seed"], s, return_params=True)
        record, params = trained if trained else (None, None)
        tensors = params.tensors if params else None
        loss, t_eval = _eval_passes(ops, inputs, tensors)
        loaded, _ = ops.run(1, self._round_trip, inputs["ckpt_path"], config, tensors)
        r = Round(ops.attempted, ops.failed)
        if not ops.failed:
            r.figures = {"main_s": t_train, "train_tokens": s.steps * s.batch_size * self.SEQ_LEN,
                         "runs": 1, "steps": s.steps, "eval_s": t_eval,
                         "eval_tokens": inputs["eval_tokens"],
                         "final_eval_loss": record.final_eval_loss}
            r.keep = {"record": record, "eval_loss": loss, "eval_tensors": tensors,
                      "loaded": loaded, "ckpt_bytes": os.path.getsize(inputs["ckpt_path"])}
        return r

    @staticmethod
    def _round_trip(path: str, config, tensors: dict):
        checkpoint.save_checkpoint(path, config, tensors)
        return checkpoint.load_checkpoint(path)

    def checks(self, inputs: dict, rounds: list[Round]) -> list[tuple[str, bool, str]]:
        done = [r.keep for r in rounds if r.keep]
        if not done:
            return [("rounds", False, "no round completed")]
        rec = done[-1]["record"]
        losses_finite = all(math.isfinite(x) for x in rec.train_losses + rec.eval_losses)
        learned = rec.eval_losses[-1] < rec.eval_losses[0]
        cfg, loaded, _ = done[-1]["loaded"]
        tensors = done[-1]["eval_tensors"]
        bit_identical = (cfg == inputs["config"] and loaded.keys() == tensors.keys()
                         and all(loaded[k].dtype == v.dtype and loaded[k].shape == v.shape
                                 and loaded[k].tobytes() == v.tobytes()
                                 for k, v in tensors.items()))
        digests = {k["record"].semantic_digest() for k in done}
        return [
            ("eval_reference", *_check_reference(inputs, rounds)),
            ("gradient", *_check_gradient(inputs["config"], tensors, inputs["corpus"],
                                          inputs["seed"])),
            ("training", losses_finite and learned and not rec.diverged,
             f"losses finite {losses_finite}, eval loss {rec.eval_losses[0]:.4f} -> "
             f"{rec.eval_losses[-1]:.4f}, diverged {rec.diverged}"),
            ("checkpoint", bit_identical,
             f"round trip of {len(tensors)} tensors bit-identical: {bit_identical}"),
            ("determinism", len(digests) == 1,
             f"{len(done)} runs, semantic digests {sorted(digests)}"),
        ]


class VerifyWidth64:
    """verify_local_optimality at width 64, then an evaluation pass."""

    CORPUS_BYTES = 1 << 17
    SEQ_LEN = 32
    SETTINGS = training.TrainSettings(steps=40, batch_size=BATCH, eval_interval=40,
                                      mfvi_iters=ITERS)
    P = ALPHA = 0.2
    SCALE = 0.2
    EVAL_CHUNKS = 128
    name = "verify-w64"

    def setup(self, seed: int, out_dir: str) -> dict:
        corpus = corpus_mod.encode_corpus(
            corpus_mod.synth_text(self.CORPUS_BYTES, seed), self.SEQ_LEN)
        batches, tokens = _frozen_eval(LADDER_BASE, corpus, seed, self.EVAL_CHUNKS)
        params = model.ModelParams.init(LADDER_BASE, SeededRng(seed).spawn("bench/params"))
        return {"seed": seed, "corpus": corpus, "eval_config": LADDER_BASE,
                "eval_batches": batches, "eval_tokens": tokens, "params": params.tensors,
                "out_dir": os.path.join(out_dir, self.name)}

    def n_samples(self) -> int:
        return math.ceil(math.log(self.ALPHA) / math.log(1.0 - self.P))

    def round(self, inputs: dict) -> Round:
        ops = Ops()
        n_runs = self.n_samples() + 1
        report, t_verify = ops.run(n_runs, search.verify_local_optimality, LADDER_BASE, HP,
                                   inputs["corpus"], inputs["seed"], self.SETTINGS,
                                   inputs["out_dir"], p=self.P, alpha=self.ALPHA,
                                   scale=self.SCALE)
        loss, t_eval = _eval_passes(ops, inputs, inputs["params"])
        r = Round(ops.attempted, ops.failed)
        if not ops.failed:
            s = self.SETTINGS
            r.figures = {"main_s": t_verify, "runs": n_runs, "steps": n_runs * s.steps,
                         "train_tokens": n_runs * s.steps * s.batch_size * self.SEQ_LEN,
                         "eval_s": t_eval, "eval_tokens": inputs["eval_tokens"],
                         "final_eval_loss": report.base_loss}
            r.keep = {"report": report, "eval_loss": loss, "eval_tensors": inputs["params"]}
        return r

    def checks(self, inputs: dict, rounds: list[Round]) -> list[tuple[str, bool, str]]:
        done = [r.keep for r in rounds if r.keep]
        if not done:
            return [("rounds", False, "no round completed")]
        rep = done[-1]["report"]
        n = self.n_samples()
        conf = 1.0 - (1.0 - self.P) ** n
        rank = 1 + sum(1 for x in rep.sample_losses if x < rep.base_loss)
        d_max = self.SCALE * math.sqrt(7.0)
        with open(rep.artifacts["csv"], encoding="utf-8") as f:
            csv_lines = sum(1 for _ in f)
        losses = rep.sample_losses + [rep.base_loss]
        same = all(k["report"].sample_losses == rep.sample_losses
                   and k["report"].base_loss == rep.base_loss for k in done)
        return [
            ("eval_reference", *_check_reference(inputs, rounds)),
            ("sample_count", rep.n_samples == n,
             f"n {rep.n_samples}, ceil(ln {self.ALPHA} / ln(1 - {self.P})) = {n}"),
            ("confidence", math.isclose(rep.confidence, conf, rel_tol=1e-15),
             f"{rep.confidence!r} vs 1 - (1 - p)^n = {conf!r}"),
            ("rank", rep.rank == rank and len(rep.sample_losses) == n,
             f"rank {rep.rank} vs 1 + samples below base {rank}"),
            ("distances", len(rep.distances) == n and all(0.0 < d <= d_max for d in rep.distances),
             f"{len(rep.distances)} distances in ({min(rep.distances):.4f}, "
             f"{max(rep.distances):.4f}), bound (0, {d_max:.4f}]"),
            ("losses_finite", all(math.isfinite(x) for x in losses), f"{len(losses)} losses"),
            ("csv_lines", csv_lines == n + 2, f"{csv_lines} lines, expected {n + 2}"),
            ("determinism", same, f"{len(done)} verifications, losses identical: {same}"),
        ]


class CoordLadder:
    """coord_check over widths 64-512 under scale_channels, then a width-512 evaluation."""

    WIDTHS = [64, 128, 256, 512]
    STEPS = 10
    CORPUS_BYTES = 1 << 15
    SEQ_LEN = 32
    EVAL_CHUNKS = 4
    name = "coord-ladder"

    def setup(self, seed: int, out_dir: str) -> dict:
        scaler = WidthScaler(LADDER_BASE.with_(pos_bias=False), SCALE_CHANNELS)
        config = scaler.config_at(self.WIDTHS[-1])
        corpus = corpus_mod.encode_corpus(
            corpus_mod.synth_text(self.CORPUS_BYTES, seed), self.SEQ_LEN)
        batches, tokens = _frozen_eval(config, corpus, seed, self.EVAL_CHUNKS)
        params = model.ModelParams.init(config, SeededRng(seed).spawn("bench/params"))
        return {"seed": seed, "scaler": scaler, "eval_config": config,
                "eval_batches": batches, "eval_tokens": tokens, "params": params.tensors}

    def round(self, inputs: dict) -> Round:
        ops = Ops()
        report, t_ladder = ops.run(len(self.WIDTHS), diagnostics.coord_check, inputs["scaler"],
                                   self.WIDTHS, HP, steps=self.STEPS, seed=inputs["seed"],
                                   batch_size=BATCH, iters=ITERS)
        loss, t_eval = _eval_passes(ops, inputs, inputs["params"])
        r = Round(ops.attempted, ops.failed)
        if not ops.failed:
            steps = len(self.WIDTHS) * self.STEPS
            r.figures = {"main_s": t_ladder, "runs": len(self.WIDTHS), "steps": steps,
                         "train_tokens": steps * BATCH * self.SEQ_LEN, "eval_s": t_eval,
                         "eval_tokens": inputs["eval_tokens"], "final_eval_loss": loss[0]}
            r.keep = {"report": report, "eval_loss": loss, "eval_tensors": inputs["params"]}
        return r

    def checks(self, inputs: dict, rounds: list[Round]) -> list[tuple[str, bool, str]]:
        done = [r.keep for r in rounds if r.keep]
        if not done:
            return [("rounds", False, "no round completed")]
        rep = done[-1]["report"]
        diverged = [w for w, d in rep.diverged.items() if d]
        same = all(k["report"].mean_abs == rep.mean_abs for k in done)
        # band_violations(1/3, 3) is not checked: at the 2-channel end of the
        # ladder it fails by chance on some seeds (see FOUND in CHANGES.md).
        return [
            ("eval_reference", *_check_reference(inputs, rounds)),
            ("no_divergence", not diverged, f"diverged widths {diverged}"),
            ("determinism", same, f"{len(done)} ladders, probe tables identical: {same}"),
        ]


WORKLOADS = {w.name: w for w in (
    TrainWidth256("train-w256-channels", SCALE_CHANNELS),
    TrainWidth256("train-w256-rank", SCALE_RANK),
    VerifyWidth64(),
    CoordLadder(),
)}
