"""Training-loop determinism, divergence handling, and sweep bookkeeping."""
import math

import numpy as np
import pytest

from mupt.config import HPPoint, PTConfig
from mupt.corpus import encode_corpus, synth_text
from mupt.errors import ConfigError
from mupt.mup import WidthScaler
from mupt.training import (
    RunRecord,
    SWEEP_CSV_HEADER,
    SweepResult,
    TrainSettings,
    train_run,
    train_steps,
    transfer_sweep,
)

CFG = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
               pos_bias=False, mfvi_iters=2)
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
                        0.15, "bert", 2)
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
                    pos_bias=False, mfvi_iters=2)
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


def test_sweep_result_displacement():
    sweep = SweepResult(widths=[8, 16, 32], lr_grid=[0.1, 0.2],
                        records={}, best_lr_index={8: 0, 16: 1, 32: 1})
    assert sweep.argmin_displacement == 1
