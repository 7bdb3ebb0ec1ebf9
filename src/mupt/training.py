"""Masked-language-model training loop and the width/LR transfer sweep.

Runs are pure functions of (geometry, hyperparameters, corpus, seed): data
order, per-step corruption, and the frozen eval corruption all come from named
child streams of the run seed, so a rerun reproduces every recorded number
bit for bit. The wall-clock field is the one exception and is excluded from
semantic equality.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import corpus as corpus_mod
from . import model
from .autodiff import reverse_grad, val
from .config import HPPoint, PTConfig
from .corpus import Corpus
from .errors import ConfigError
from .mup import AdamW, WidthScaler
from .rng import SeededRng
from .util import canonical_json, short_hash

__all__ = ["TrainSettings", "RunRecord", "train_run", "train_steps", "evaluate",
           "SweepResult", "transfer_sweep", "SWEEP_CSV_HEADER"]

SWEEP_CSV_HEADER = "width,lr,seed,step,split,loss"


@dataclass(frozen=True)
class TrainSettings:
    """Loop-shape knobs that are not part of the model geometry."""

    steps: int = 200
    batch_size: int = 4
    eval_interval: int = 100
    eval_fraction: float = 0.1
    max_eval_chunks: int = 64
    mask_ratio: float = 0.15
    mask_rule: str = "bert"
    mfvi_iters: int | None = 3          # None: use the geometry's default
    output_lr_variant: str = "scaled"
    hidden_lr_scaling: str = "mup"
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1 or self.eval_interval < 1:
            raise ConfigError("steps, batch_size, eval_interval must be >= 1")


@dataclass
class RunRecord:
    """Everything one training run produced.

    semantic_digest() hashes every field that a rerun must reproduce exactly;
    wall_clock_s is informational only.
    """

    config_hash: str
    width: int
    seed: int
    hp: dict
    steps: int
    train_losses: list[float]
    eval_steps: list[int]
    eval_losses: list[float]
    final_eval_loss: float
    diverged: bool
    wall_clock_s: float
    schema_version: str = "1"

    def semantic_fields(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "wall_clock_s"}
        return d

    def semantic_digest(self) -> str:
        return short_hash(self.semantic_fields())

    def to_json(self) -> str:
        return canonical_json(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        import json

        return cls(**json.loads(text))


def _batches(train_idx: np.ndarray, batch_size: int, steps: int, rng: SeededRng):
    """Yield `steps` index arrays, reshuffling the chunk order each epoch."""
    produced = 0
    while produced < steps:
        order = train_idx[rng.permutation(train_idx.size)]
        for lo in range(0, order.size, batch_size):
            batch = order[lo:lo + batch_size]
            if batch.size == 0:
                continue
            yield batch
            produced += 1
            if produced >= steps:
                return


def _corrupt_batch(chunks: np.ndarray, ratio: float, rule: str, corpus: Corpus,
                   rng: SeededRng):
    corrupted = np.empty_like(chunks)
    targets = np.empty_like(chunks)
    selected = np.empty(chunks.shape, dtype=bool)
    for b in range(chunks.shape[0]):
        corrupted[b], targets[b], selected[b] = corpus_mod.mask_tokens(
            chunks[b], ratio, rng, corpus, rule)
    return corrupted, targets, selected


def _token_mask_or_none(chunks: np.ndarray, corpus: Corpus):
    tm = corpus.token_mask(chunks)
    return None if tm.all() else tm


def _batch_loss(config: PTConfig, params, hp: HPPoint, corrupted, targets,
                selected, token_mask, iters):
    state = model.run_mfvi(config, params, corrupted, hp.weights,
                           token_mask=token_mask, iters=iters)
    logits = model.mlm_logits(config, params, state)
    return model.masked_ce_loss(logits, targets, selected)


def evaluate(config: PTConfig, params: dict, hp: HPPoint,
             eval_batches: list[tuple], iters: int | None) -> float:
    """Position-weighted mean loss over pre-corrupted eval batches."""
    total, count = 0.0, 0
    for corrupted, targets, selected, token_mask in eval_batches:
        loss = _batch_loss(config, params, hp, corrupted, targets, selected,
                           token_mask, iters)
        k = int(selected.sum())
        total += float(val(loss)) * k
        count += k
    if count == 0:
        raise ConfigError("evaluation set is empty")
    return total / count


def build_eval_batches(config: PTConfig, corpus: Corpus, eval_idx: np.ndarray,
                       settings: TrainSettings, rng: SeededRng) -> list[tuple]:
    """Freeze the eval corruption once; identical across all compared runs."""
    eval_idx = eval_idx[:settings.max_eval_chunks]
    batches = []
    for lo in range(0, eval_idx.size, settings.batch_size):
        chunks = corpus.ids[eval_idx[lo:lo + settings.batch_size]]
        corrupted, targets, selected = _corrupt_batch(
            chunks, settings.mask_ratio, settings.mask_rule, corpus, rng)
        batches.append((corrupted, targets, selected,
                        _token_mask_or_none(chunks, corpus)))
    return batches


def run_config_fields(config: PTConfig, hp: HPPoint, settings: TrainSettings,
                      seed: int) -> dict:
    return {"geometry": asdict(config), "hp": list(hp.to_array()),
            "settings": asdict(settings), "seed": seed}


def train_steps(config: PTConfig, params: model.ModelParams, opt: AdamW,
                hp: HPPoint, corpus: Corpus, batches, ratio: float, rule: str,
                iters: int | None):
    """Take one optimizer step per (chunks, mask_rng) batch; yield its loss.

    Each batch is corrupted with its own mask stream, run through inference
    and the masked-LM loss, and the gradient step is applied to
    params.tensors in place before the loss is yielded. After the first
    non-finite loss every later batch yields +inf and nothing steps again.

    A generator on purpose, not a function returning one loss: its locals
    (the tape behind `loss`, the gradients) stay alive across `yield` until
    the next step rebinds them. Freed at every return instead, that memory
    is trimmed from the heap and faulted back in on the next step; at width
    256 (one BLAS thread) that took 6x the page faults and 25% more time.
    """
    diverged = False
    for chunks, mask_rng in batches:
        if not diverged:
            corrupted, targets, selected = _corrupt_batch(chunks, ratio, rule, corpus,
                                                          mask_rng)
            leaves = params.as_vars()
            loss = _batch_loss(config, leaves, hp, corrupted, targets, selected,
                               _token_mask_or_none(chunks, corpus), iters)
            loss_val = float(val(loss))
            diverged = not math.isfinite(loss_val)
            if not diverged:
                grads = reverse_grad(loss, leaves)
                opt.step(params.tensors, grads)
        yield math.inf if diverged else loss_val


def train_run(config: PTConfig, hp: HPPoint, corpus: Corpus, seed: int,
              settings: TrainSettings = TrainSettings(),
              return_params: bool = False):
    """Train from scratch; returns a RunRecord (and the params if asked).

    A non-finite training loss marks the run diverged: stepping stops, the
    remaining per-step records hold +inf, and the final eval loss is +inf.
    """
    if corpus.vocab_size != config.vocab_size:
        raise ConfigError(
            f"corpus vocab {corpus.vocab_size} != model vocab {config.vocab_size}")
    t0 = time.perf_counter()
    root = SeededRng(seed)
    params = model.ModelParams.init(config, root.spawn("params"))
    opt = AdamW(model.tensor_shapes(config), config.width, hp.lr,
                weight_decay=settings.weight_decay,
                output_lr_variant=settings.output_lr_variant,
                hidden_lr_scaling=settings.hidden_lr_scaling)

    train_idx, eval_idx = corpus_mod.split_chunks(
        corpus, settings.eval_fraction, root.spawn("split"))
    eval_batches = build_eval_batches(config, corpus, eval_idx, settings,
                                      root.spawn("eval-mask"))
    iters = settings.mfvi_iters

    train_losses: list[float] = []
    eval_steps: list[int] = []
    eval_losses: list[float] = []
    diverged = False

    def run_eval(step: int) -> None:
        eval_steps.append(step)
        if diverged:
            eval_losses.append(math.inf)
            return
        eval_losses.append(evaluate(config, params.tensors, hp, eval_batches, iters))

    run_eval(0)
    data_rng = root.spawn("data")
    batches = ((corpus.ids[idx], root.spawn(f"mask/{step}")) for step, idx in enumerate(
        _batches(train_idx, settings.batch_size, settings.steps, data_rng), start=1))
    for step, loss in enumerate(
            train_steps(config, params, opt, hp, corpus, batches, settings.mask_ratio,
                        settings.mask_rule, iters), start=1):
        train_losses.append(loss)
        diverged = not math.isfinite(loss)
        if step % settings.eval_interval == 0 and step < settings.steps:
            run_eval(step)
    run_eval(settings.steps)

    record = RunRecord(
        config_hash=short_hash(run_config_fields(config, hp, settings, seed)),
        width=config.width,
        seed=seed,
        hp=hp.to_dict(),
        steps=settings.steps,
        train_losses=train_losses,
        eval_steps=eval_steps,
        eval_losses=eval_losses,
        final_eval_loss=eval_losses[-1],
        diverged=diverged,
        wall_clock_s=time.perf_counter() - t0,
    )
    return (record, params) if return_params else record


@dataclass
class SweepResult:
    """Loss table over (width, lr) plus per-width argmins."""

    widths: list[int]
    lr_grid: list[float]
    records: dict = field(repr=False)      # (width, lr) -> RunRecord
    best_lr_index: dict[int, int] = field(default_factory=dict)

    @property
    def argmin_displacement(self) -> int:
        idxs = [self.best_lr_index[w] for w in self.widths]
        return max(idxs) - min(idxs)

    def csv_rows(self) -> list[str]:
        rows = [SWEEP_CSV_HEADER]
        for (w, lr), rec in self.records.items():
            for step, loss in zip(rec.eval_steps, rec.eval_losses):
                rows.append(f"{w},{lr!r},{rec.seed},{step},eval,{loss!r}")
            for step, loss in enumerate(rec.train_losses, start=1):
                rows.append(f"{w},{lr!r},{rec.seed},{step},train,{loss!r}")
        return rows


def transfer_sweep(scaler: WidthScaler, widths: list[int], lr_grid: list[float],
                   hp_base: HPPoint, corpus: Corpus, seed: int,
                   settings: TrainSettings = TrainSettings()) -> SweepResult:
    """Train every (width, lr) cell with matched data, masks, and eval sets.

    The information weights are held fixed at hp_base.weights; only the base
    LR moves along the grid. Diverged cells keep +inf losses and lose every
    argmin comparison. Ties take the smaller LR.
    """
    if len(lr_grid) < 2:
        raise ConfigError("lr_grid needs at least two points")
    if sorted(lr_grid) != list(lr_grid):
        raise ConfigError("lr_grid must be sorted ascending")
    records = {}
    best = {}
    for width in widths:
        config = scaler.config_at(width)
        finals = []
        for lr in lr_grid:
            rec = train_run(config, hp_base.with_lr(lr), corpus, seed, settings)
            records[(width, lr)] = rec
            finals.append(rec.final_eval_loss)
        best[width] = int(np.argmin(finals))
    return SweepResult(widths=list(widths), lr_grid=list(lr_grid),
                       records=records, best_lr_index=best)
