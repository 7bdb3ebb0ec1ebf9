"""Masked-language-model training loop and the width/LR transfer sweep.

Runs are pure functions of (geometry, hyperparameters, corpus, seed): data
order, per-step corruption, and the frozen eval corruption all come from named
child streams of the run seed, so a rerun reproduces every recorded number
bit for bit. The wall-clock field is the one exception and is excluded from
semantic equality. Being pure, the runs of a sweep are independent jobs, and
map_jobs trains them side by side on the usable CPUs: the cells of
transfer_sweep here, the runs of search.verify_local_optimality and the
widths of diagnostics.coord_check.
"""
from __future__ import annotations

import math
import os
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
           "SweepResult", "transfer_sweep", "SWEEP_CSV_HEADER", "map_jobs"]

SWEEP_CSV_HEADER = "width,lr,seed,step,split,loss"


@dataclass(frozen=True)
class TrainSettings:
    """How one run trains and evaluates, apart from the model geometry.

    mfvi_iters is the number of mean-field sweeps in every training and
    evaluation forward pass; the geometry carries no sweep count. Learning
    rates come from the grouped table in `mup` and masking follows BERT's
    80/10/10 rule, so neither has a setting here.
    """

    steps: int = 200
    batch_size: int = 4
    eval_interval: int = 100
    eval_fraction: float = 0.1
    max_eval_chunks: int = 64
    mask_ratio: float = 0.15
    mfvi_iters: int = 3
    weight_decay: float = 0.01

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1 or self.eval_interval < 1:
            raise ConfigError("steps, batch_size, eval_interval must be >= 1")
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ConfigError(f"mask_ratio must be in (0, 1], got {self.mask_ratio}")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError(f"eval_fraction must be in (0, 1), got {self.eval_fraction}")
        if self.max_eval_chunks < 1:
            raise ConfigError(f"max_eval_chunks must be >= 1, got {self.max_eval_chunks}")
        if self.mfvi_iters < 0:
            raise ConfigError(f"mfvi_iters must be >= 0, got {self.mfvi_iters}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


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


def _corrupt_batch(chunks: np.ndarray, ratio: float, corpus: Corpus, rng: SeededRng):
    corrupted = np.empty_like(chunks)
    targets = np.empty_like(chunks)
    selected = np.empty(chunks.shape, dtype=bool)
    for b in range(chunks.shape[0]):
        corrupted[b], targets[b], selected[b] = corpus_mod.mask_tokens(
            chunks[b], ratio, rng, corpus)
    return corrupted, targets, selected


def _token_mask_or_none(chunks: np.ndarray, corpus: Corpus):
    """The chunks' token mask, or None (the fast path) where every token is real.

    A mask costs each sweep an in-place `q_h *= rows_valid`, 0.08 ms at the
    width-256 training shape (4, 8, 64, 64), three sweeps a step (timeit, min
    of 5 x 200, one BLAS thread, 2-core Xeon); the sweep's vjp needs no
    multiplier, because Q_h is already zero on the padding rows. Always
    masking gives bit-identical results; merge the two paths only with a
    benchmark.
    """
    tm = corpus.token_mask(chunks)
    return None if tm.all() else tm


def _batch_loss(config: PTConfig, params, hp: HPPoint, corrupted, targets,
                selected, token_mask, iters):
    state = model.run_mfvi(config, params, corrupted, hp.weights,
                           token_mask=token_mask, iters=iters)
    logits = model.mlm_logits(config, params, state)
    return model.masked_ce_loss(logits, targets, selected)


def evaluate(config: PTConfig, params: dict, hp: HPPoint,
             eval_batches: list[tuple], iters: int) -> float:
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
            chunks, settings.mask_ratio, corpus, rng)
        batches.append((corrupted, targets, selected,
                        _token_mask_or_none(chunks, corpus)))
    return batches


def run_config_fields(config: PTConfig, hp: HPPoint, settings: TrainSettings,
                      seed: int) -> dict:
    return {"geometry": asdict(config), "hp": list(hp.to_array()),
            "settings": asdict(settings), "seed": seed}


def train_steps(config: PTConfig, params: model.ModelParams, opt: AdamW,
                hp: HPPoint, corpus: Corpus, batches, ratio: float, iters: int):
    """Take one optimizer step per (chunks, mask_rng) batch; yield its loss.

    Each batch is corrupted with its own mask stream, run through inference
    and the masked-LM loss, and the gradient step is applied to
    params.tensors in place before the loss is yielded. After the first
    non-finite loss every later batch yields +inf and nothing steps again.
    """
    diverged = False
    for chunks, mask_rng in batches:
        if not diverged:
            corrupted, targets, selected = _corrupt_batch(chunks, ratio, corpus, mask_rng)
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

    A non-finite training or eval loss marks the run diverged: stepping
    stops, and every later training and eval record, the final eval loss
    among them, holds +inf.
    """
    if corpus.vocab_size != config.vocab_size:
        raise ConfigError(
            f"corpus vocab {corpus.vocab_size} != model vocab {config.vocab_size}")
    t0 = time.perf_counter()
    root = SeededRng(seed)
    params = model.ModelParams.init(config, root.spawn("params"))
    opt = AdamW(model.tensor_shapes(config), config.width, hp.lr,
                weight_decay=settings.weight_decay)

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
        nonlocal diverged
        eval_steps.append(step)
        if not diverged:
            loss = evaluate(config, params.tensors, hp, eval_batches, iters)
            diverged = not math.isfinite(loss)
        eval_losses.append(math.inf if diverged else loss)

    run_eval(0)
    data_rng = root.spawn("data")
    batches = ((corpus.ids[idx], root.spawn(f"mask/{step}")) for step, idx in enumerate(
        _batches(train_idx, settings.batch_size, settings.steps, data_rng), start=1))
    losses = train_steps(config, params, opt, hp, corpus, batches, settings.mask_ratio,
                         iters)
    for step in range(1, settings.steps + 1):
        loss = math.inf if diverged else next(losses)
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


_WORKER_JOBS: tuple | None = None    # (fn, jobs) while map_jobs runs a pool, else None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _blas_threads() -> int:
    """BLAS threads per process as pinned (the CLI's --threads); unpinned,
    BLAS starts one per usable CPU."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def _worker_count(n_jobs: int) -> int:
    """Processes for n_jobs jobs: one per BLAS-sized share of the usable CPUs,
    at most one per job. 1 while a pool runs, so inside a worker (pools never
    nest), where fork is missing, and where another thread runs: a forked
    child gets no copy of it, and any lock it holds stays locked there."""
    import multiprocessing
    import threading

    if (_WORKER_JOBS is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return max(1, min(n_jobs, _usable_cpus() // _blas_threads()))


def _run_job(i: int):
    fn, jobs = _WORKER_JOBS
    return fn(*jobs[i])


def map_jobs(fn, jobs: list[tuple]) -> list:
    """[fn(*job) for job in jobs], the jobs spread over forked processes.

    Each job runs whole in one process, so its result is the one a serial
    call returns, bit for bit, and results come back in job order whatever
    order the jobs finish in. The pool has one process per usable CPU
    (divided by the pinned BLAS threads, at most one per job); it is serial
    in a process pinned to one CPU (`taskset -c 0`), with BLAS unpinned,
    inside a worker, beside another thread and where fork is missing. The
    workers inherit fn and the jobs by fork, so neither is pickled; results
    and exceptions are. An exception in a job, or a KeyboardInterrupt in the
    caller, ends every worker before it propagates: no process outlives the
    call.
    """
    global _WORKER_JOBS
    workers = _worker_count(len(jobs))
    if workers == 1:
        return [fn(*job) for job in jobs]
    import multiprocessing
    import signal

    _WORKER_JOBS = (fn, jobs)    # before the fork: every worker starts with it
    try:                         # the workers ignore Ctrl-C, the caller's to handle
        with multiprocessing.get_context("fork").Pool(
                workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
            results = pool.map(_run_job, range(len(jobs)), chunksize=1)
            pool.close()
            pool.join()
    finally:
        _WORKER_JOBS = None
    return results


@dataclass
class SweepResult:
    """Loss table over (width, lr) plus per-width argmins, None if every LR diverged."""

    widths: list[int]
    lr_grid: list[float]
    records: dict = field(repr=False)      # (width, lr) -> RunRecord
    best_lr_index: dict[int, int | None] = field(default_factory=dict)

    @property
    def argmin_displacement(self) -> int | None:
        idxs = [self.best_lr_index[w] for w in self.widths]
        return None if None in idxs else max(idxs) - min(idxs)

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
    argmin comparison, and a width whose every cell diverged has no best LR.
    Ties take the smaller LR.

    The cells train in parallel on the usable CPUs (map_jobs), widest first,
    and the result is identical to a serial sweep; `taskset -c 0` makes the
    sweep serial.
    """
    if len(lr_grid) < 2:
        raise ConfigError("lr_grid needs at least two points")
    if any(lo >= hi for lo, hi in zip(lr_grid, lr_grid[1:])):
        raise ConfigError(f"lr_grid must be strictly ascending, got {list(lr_grid)}")
    if len(set(widths)) != len(widths):
        raise ConfigError(f"widths must not repeat, got {list(widths)}")
    cells = sorted(((w, lr) for w in widths for lr in lr_grid), key=lambda c: -c[0])
    runs = map_jobs(train_run, [(scaler.config_at(w), hp_base.with_lr(lr), corpus, seed,
                                 settings) for w, lr in cells])
    done = dict(zip(cells, runs))
    records = {(w, lr): done[(w, lr)] for w in widths for lr in lr_grid}
    finals = {w: [records[(w, lr)].final_eval_loss for lr in lr_grid] for w in widths}
    best = {w: int(np.argmin(f)) if np.isfinite(f).any() else None for w, f in finals.items()}
    return SweepResult(widths=list(widths), lr_grid=list(lr_grid),
                       records=records, best_lr_index=best)
