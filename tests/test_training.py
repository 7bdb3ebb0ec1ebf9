"""Training-loop determinism, divergence handling, sweep bookkeeping, and
the process pool that trains independent runs side by side."""
import math
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from mupt import training
from mupt.config import HPPoint, PTConfig
from mupt.corpus import encode_corpus, synth_text
from mupt.errors import ConfigError
from mupt.mup import WidthScaler
from mupt.training import (
    RunRecord,
    SWEEP_CSV_HEADER,
    SweepResult,
    TrainSettings,
    map_jobs,
    train_run,
    train_steps,
    transfer_sweep,
)

CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
               pos_bias=False)
HP = HPPoint(lr=3e-3)
SETTINGS = TrainSettings(steps=3, batch_size=2, eval_interval=2,
                         max_eval_chunks=8, mfvi_iters=2)


def _corpus(seed=13, n=4096, seq_len=12):
    return encode_corpus(synth_text(n, seed), seq_len=seq_len)


def test_run_is_deterministic():
    corpus = _corpus()
    a = train_run(CFG, HP, corpus, seed=0, settings=SETTINGS)
    b = train_run(CFG, HP, corpus, seed=0, settings=SETTINGS)
    assert a.semantic_digest() == b.semantic_digest()
    assert a.train_losses == b.train_losses
    assert a.eval_losses == b.eval_losses
    c = train_run(CFG, HP, corpus, seed=1, settings=SETTINGS)
    assert c.semantic_digest() != a.semantic_digest()


def test_record_shape_and_eval_cadence():
    rec = train_run(CFG, HP, _corpus(), seed=0, settings=SETTINGS)
    assert rec.steps == 3
    assert len(rec.train_losses) == 3
    assert rec.eval_steps == [0, 2, 3]
    assert rec.final_eval_loss == rec.eval_losses[-1]
    assert not rec.diverged
    assert rec.width == CFG.width
    assert rec.hp["lr"] == HP.lr


def test_initial_eval_near_uniform_loss():
    rec = train_run(CFG, HP, _corpus(), seed=0, settings=SETTINGS)
    assert abs(rec.eval_losses[0] - math.log(CFG.vocab_size)) < 0.3


def test_wall_clock_excluded_from_digest():
    rec = train_run(CFG, HP, _corpus(), seed=0, settings=SETTINGS)
    twin = RunRecord(**{**rec.__dict__, "wall_clock_s": 123.0})
    assert twin.semantic_digest() == rec.semantic_digest()
    assert "wall_clock_s" not in rec.semantic_fields()


def test_divergence_stops_stepping():
    # an absurd LR overflows float64 within a few steps; overflow is the point
    with np.errstate(over="ignore", invalid="ignore"):
        rec = train_run(CFG, HP.with_lr(1e80), _corpus(), seed=0,
                        settings=TrainSettings(steps=6, batch_size=2, eval_interval=3,
                                               max_eval_chunks=8, mfvi_iters=2))
    assert rec.diverged
    assert rec.final_eval_loss == math.inf
    assert math.inf in rec.train_losses
    # once diverged, every later train loss is +inf
    first = rec.train_losses.index(math.inf)
    assert all(x == math.inf for x in rec.train_losses[first:])


def test_train_steps_yields_inf_and_stops_after_divergence():
    from mupt.model import ModelParams, tensor_shapes
    from mupt.mup import AdamW
    from mupt.rng import SeededRng

    corpus = _corpus()
    params = ModelParams.init(CFG, SeededRng(0).spawn("params"))
    opt = AdamW(tensor_shapes(CFG), CFG.width, 1e80)
    batches = [(corpus.ids[2 * t:2 * t + 2], SeededRng(0).spawn(f"mask/{t}"))
               for t in range(6)]
    steps = train_steps(CFG, params, opt, HP.with_lr(1e80), corpus, batches,
                        0.15, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = []
        for loss in steps:
            losses.append(loss)
            if loss == math.inf:
                break
        frozen = {k: v.copy() for k, v in params.tensors.items()}
        losses += list(steps)
    assert len(losses) == 6
    first = losses.index(math.inf)
    assert first > 0 and all(x == math.inf for x in losses[first:])
    for k, v in frozen.items():  # nothing stepped after the first bad loss
        np.testing.assert_array_equal(params.tensors[k], v)


def test_vocab_mismatch_rejected():
    with pytest.raises(ConfigError, match="vocab"):
        train_run(CFG.with_(vocab_size=64), HP, _corpus(), seed=0, settings=SETTINGS)


def test_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(steps=0)
    with pytest.raises(ConfigError):
        TrainSettings(batch_size=0)
    TrainSettings(max_eval_chunks=1, weight_decay=0.0, mfvi_iters=0)  # the boundaries hold


@pytest.mark.parametrize("field, value", [
    ("max_eval_chunks", 0), ("max_eval_chunks", -1),
    ("weight_decay", -3.0), ("weight_decay", math.nan), ("weight_decay", math.inf),
    ("mfvi_iters", -1),
])
def test_settings_refuse_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainSettings(**{field: value})


def test_return_params_trains_in_place():
    from mupt.model import ModelParams
    from mupt.rng import SeededRng

    rec, params = train_run(CFG, HP, _corpus(), seed=0, settings=SETTINGS,
                            return_params=True)
    fresh = ModelParams.init(CFG, SeededRng(0).spawn("params"))
    assert not np.array_equal(params.tensors["S"], fresh.tensors["S"])
    assert params.config == CFG


def test_record_json_roundtrip():
    rec = train_run(CFG, HP, _corpus(), seed=0, settings=SETTINGS)
    back = RunRecord.from_json(rec.to_json())
    assert back.semantic_digest() == rec.semantic_digest()
    assert back.wall_clock_s == rec.wall_clock_s
    assert back.schema_version == "1"


def test_transfer_sweep_bookkeeping():
    base = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
                    pos_bias=False)
    scaler = WidthScaler(base, "scale_channels")
    corpus = _corpus()
    sweep = transfer_sweep(scaler, [8, 16], [1e-3, 1e-2], HP, corpus, seed=0,
                           settings=TrainSettings(steps=2, batch_size=2,
                                                  eval_interval=2,
                                                  max_eval_chunks=4, mfvi_iters=2))
    assert set(sweep.records) == {(8, 1e-3), (8, 1e-2), (16, 1e-3), (16, 1e-2)}
    assert set(sweep.best_lr_index) == {8, 16}
    assert sweep.argmin_displacement >= 0
    for width in (8, 16):
        finals = [sweep.records[(width, lr)].final_eval_loss for lr in sweep.lr_grid]
        assert sweep.best_lr_index[width] == int(np.argmin(finals))

    rows = sweep.csv_rows()
    assert rows[0] == SWEEP_CSV_HEADER
    # every record contributes its eval and train rows
    assert len(rows) == 1 + sum(len(r.eval_steps) + len(r.train_losses)
                                for r in sweep.records.values())
    cells = rows[1].split(",")
    assert cells[0] == "8" and cells[4] in ("eval", "train")


def test_transfer_sweep_grid_validation():
    scaler = WidthScaler(CFG, "scale_channels")
    with pytest.raises(ConfigError):
        transfer_sweep(scaler, [8], [1e-3], HP, _corpus(), seed=0)
    with pytest.raises(ConfigError):
        transfer_sweep(scaler, [8], [1e-2, 1e-3], HP, _corpus(), seed=0)
    with pytest.raises(ConfigError, match="strictly ascending"):
        transfer_sweep(scaler, [8], [1e-3, 1e-3], HP, _corpus(), seed=0)
    with pytest.raises(ConfigError, match="strictly ascending"):
        transfer_sweep(scaler, [8], [1e-3, 1e-2, 1e-2], HP, _corpus(), seed=0)
    with pytest.raises(ConfigError, match="widths must not repeat"):
        transfer_sweep(scaler, [8, 16, 8], [1e-3, 1e-2], HP, _corpus(), seed=0)


def test_sweep_result_displacement():
    sweep = SweepResult(widths=[8, 16, 32], lr_grid=[0.1, 0.2],
                        records={}, best_lr_index={8: 0, 16: 1, 32: 1})
    assert sweep.argmin_displacement == 1
    sweep.best_lr_index[16] = None          # every LR diverged at width 16
    assert sweep.argmin_displacement is None


def test_evaluate_without_tape_matches_taped_loss_bitwise():
    from mupt import autodiff as ad
    from mupt import model
    from mupt.corpus import split_chunks
    from mupt.rng import SeededRng
    from mupt.training import _batch_loss, build_eval_batches, evaluate

    corpus = _corpus()
    _, eval_idx = split_chunks(corpus, 0.25, SeededRng(0).spawn("split"))
    batches = build_eval_batches(CFG, corpus, eval_idx, SETTINGS, SeededRng(0).spawn("mask"))
    params = model.ModelParams.init(CFG, SeededRng(1))
    leaves = params.as_vars()
    total, count = 0.0, 0
    for corrupted, targets, selected, token_mask in batches:
        loss = _batch_loss(CFG, leaves, HP, corrupted, targets, selected, token_mask, 2)
        assert any(np.any(g) for g in ad.reverse_grad(loss, leaves).values())
        total += float(ad.val(loss)) * int(selected.sum())
        count += int(selected.sum())
    assert evaluate(CFG, params.tensors, HP, batches, 2) == total / count


def test_nan_eval_loss_is_divergence():
    # at lr 1e80 the second step's training loss is still finite but the
    # parameters it leaves behind evaluate to NaN; that cell must lose
    base = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=259,
                    pos_bias=False)
    settings = TrainSettings(steps=2, batch_size=4, eval_interval=100, max_eval_chunks=8)
    sweep = transfer_sweep(WidthScaler(base, "scale_channels"), [64], [1e-3, 1e80], HP,
                           encode_corpus(synth_text(1 << 12, 17), seq_len=16), seed=0,
                           settings=settings)
    assert sweep.best_lr_index == {64: 0}
    rec = sweep.records[(64, 1e80)]
    assert all(math.isfinite(x) for x in rec.train_losses)
    assert rec.diverged and rec.final_eval_loss == math.inf
    assert rec.eval_losses == [sweep.records[(64, 1e-3)].eval_losses[0], math.inf]


@pytest.mark.parametrize("steps, best", [(2, {64: None, 128: 0}), (3, {64: None, 128: None})])
def test_a_width_where_every_lr_diverged_has_no_best_lr(steps, best):
    # the recipe above at lr 1e79 and 1e80: after 2 steps both width-64 cells
    # are +inf and width 128 is still finite (about 1e227); after 3 steps every
    # cell has diverged. An argmin over all +inf would name index 0.
    base = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=259,
                    pos_bias=False)
    settings = TrainSettings(steps=steps, batch_size=4, eval_interval=100, max_eval_chunks=8)
    sweep = transfer_sweep(WidthScaler(base, "scale_channels"), [64, 128], [1e79, 1e80], HP,
                           encode_corpus(synth_text(1 << 12, 17), seq_len=16), seed=0,
                           settings=settings)
    assert all(sweep.records[(64, lr)].final_eval_loss == math.inf for lr in sweep.lr_grid)
    assert sweep.best_lr_index == best
    assert sweep.argmin_displacement is None


def _cpus(monkeypatch, n):
    """Let map_jobs see n usable CPUs: 1 is serial, 2 a pool of two workers."""
    monkeypatch.setattr(training, "_usable_cpus", lambda: n)


def _finish_in_reverse(i, n):
    time.sleep(0.1 * (n - i))          # the first job finishes last
    return i, os.getpid(), time.monotonic()


def test_map_jobs_returns_results_in_job_order(monkeypatch):
    _cpus(monkeypatch, 2)
    out = map_jobs(_finish_in_reverse, [(i, 4) for i in range(4)])
    assert [i for i, _, _ in out] == [0, 1, 2, 3]
    finished = [t for _, _, t in out]
    assert finished != sorted(finished)          # some job overtook an earlier one
    pids = {pid for _, pid, _ in out}
    assert len(pids) == 2 and os.getpid() not in pids
    assert multiprocessing.active_children() == []


def test_worker_count(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    if hasattr(os, "sched_getaffinity"):          # pinned to one CPU, as by taskset -c 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert training._worker_count(8) == 1
    _cpus(monkeypatch, 8)
    assert training._worker_count(8) == 8
    assert training._worker_count(3) == 3       # at most one per job
    assert training._worker_count(1) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert training._worker_count(8) == 2       # 8 CPUs hold two 3-thread BLAS pools
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var)
    assert training._worker_count(8) == 1       # unpinned BLAS takes every CPU
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert training._worker_count(8) == 8


def test_worker_count_is_one_inside_a_worker(monkeypatch):
    _cpus(monkeypatch, 2)
    assert training._worker_count(4) == 2
    assert map_jobs(training._worker_count, [(4,), (4,)]) == [1, 1]


def _worker_view():
    nested = map_jobs(os.getpid, [(), ()])
    return os.getpid(), signal.getsignal(signal.SIGINT) == signal.SIG_IGN, nested


def test_workers_ignore_ctrl_c_and_never_nest(monkeypatch):
    _cpus(monkeypatch, 2)
    handler = signal.getsignal(signal.SIGINT)
    for pid, ignores_ctrl_c, nested in map_jobs(_worker_view, [()] * 2):
        assert pid != os.getpid() and ignores_ctrl_c
        assert nested == [pid, pid]             # serial, in the worker itself
    # the job table is the caller's only while its pool runs, errors or not
    assert training._WORKER_JOBS is None
    with pytest.raises(ZeroDivisionError):
        map_jobs(_fail_on_second, [(i,) for i in range(4)])
    assert training._WORKER_JOBS is None
    assert signal.getsignal(signal.SIGINT) is handler
    assert multiprocessing.active_children() == []


def test_another_thread_means_serial(monkeypatch):
    _cpus(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert training._worker_count(4) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert training._worker_count(4) == 2


def test_no_fork_means_serial(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert training._worker_count(4) == 1
    assert map_jobs(os.getpid, [()] * 3) == [os.getpid()] * 3


def test_transfer_sweep_pooled_equals_serial(monkeypatch):
    scaler = WidthScaler(CFG, "scale_channels")
    settings = TrainSettings(steps=3, batch_size=2, eval_interval=2, max_eval_chunks=4,
                             mfvi_iters=2)
    sweeps = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        sweeps.append(transfer_sweep(scaler, [8, 16], [1e-3, 3e-3, 1e-2], HP, _corpus(),
                                     seed=0, settings=settings))
    serial, pooled = sweeps
    assert list(pooled.records) == list(serial.records)
    assert ([r.semantic_digest() for r in pooled.records.values()]
            == [r.semantic_digest() for r in serial.records.values()])
    assert pooled.best_lr_index == serial.best_lr_index
    assert pooled.csv_rows() == serial.csv_rows()


def _fail_on_second(i):
    if i == 1:
        raise ZeroDivisionError("job 1")
    return i


@pytest.mark.parametrize("cpus", [1, 2])
def test_job_errors_escape_as_they_are(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    with pytest.raises(ConfigError, match="vocab"):
        map_jobs(train_run, [(CFG.with_(vocab_size=64), HP, _corpus(), 0, SETTINGS)] * 2)
    assert multiprocessing.active_children() == []
    with pytest.raises(ZeroDivisionError, match="job 1"):
        map_jobs(_fail_on_second, [(i,) for i in range(4)])
    assert multiprocessing.active_children() == []
