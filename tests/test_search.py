"""Sample-count bounds, distances, neighborhood sampling, verification flow."""
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from mupt import parallel, search
from mupt.config import HPPoint, InfoWeights, PTConfig
from mupt.corpus import encode_corpus, synth_text
from mupt.errors import ConfigError
from mupt.rng import SeededRng
from mupt.search import (
    VERIFY_CSV_HEADER,
    confidence,
    hp_distance,
    min_samples,
    sample_neighborhood,
    sample_size_bound,
    verify_local_optimality,
)
from mupt.training import TrainSettings


def test_sample_size_closed_forms():
    assert min_samples(0.05, 0.05) == 59
    assert f"{sample_size_bound(0.05, 0.05):.2f}" == "58.40"
    assert min_samples(0.5, 0.5) == 1
    assert min_samples(0.01, 0.05) == 299


def test_min_samples_is_tight():
    # smallest n with (1-p)^n <= alpha: n works, n-1 does not
    rng = SeededRng(0)
    for _ in range(1000):
        p = float(rng.uniform(0.005, 0.6))
        alpha = float(rng.uniform(0.005, 0.6))
        n = min_samples(p, alpha)
        assert (1.0 - p) ** n <= alpha
        if n > 1:
            assert (1.0 - p) ** (n - 1) > alpha


def test_confidence_formula():
    assert confidence(62, 0.05) == 1.0 - 0.95 ** 62
    assert confidence(0, 0.05) == 0.0
    assert 0.958 < confidence(62, 0.05) < 0.959
    with pytest.raises(ConfigError):
        confidence(-1, 0.05)
    with pytest.raises(ConfigError):
        confidence(10, 0.0)


def test_bound_validation():
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ConfigError):
            sample_size_bound(p=bad)
        with pytest.raises(ConfigError):
            sample_size_bound(alpha=bad)


def test_hp_distance():
    base = HPPoint(lr=1e-3)
    assert hp_distance(base, base) == 0.0
    assert hp_distance(base, base.with_lr(1.2e-3)) == pytest.approx(0.2)
    # +20% in every coordinate: sqrt(7) * 0.2
    bumped = HPPoint.from_array(base.to_array() * 1.2)
    assert hp_distance(base, bumped) == pytest.approx(0.2 * math.sqrt(7))
    zero_coord = HPPoint(lr=1e-3, weights=InfoWeights(w_topic=0.0))
    with pytest.raises(ConfigError):
        hp_distance(zero_coord, base)


def test_sample_neighborhood():
    base = HPPoint(lr=1e-3, weights=InfoWeights(w_binary=0.125))
    draws = sample_neighborhood(base, 50, SeededRng(3), scale=0.2)
    again = sample_neighborhood(base, 50, SeededRng(3), scale=0.2)
    assert len(draws) == 50
    center = base.to_array()
    for hp, hp2 in zip(draws, again):
        assert hp == hp2  # deterministic in the rng
        ratio = hp.to_array() / center
        assert np.all(ratio >= 0.8) and np.all(ratio <= 1.2)
    # box corners are actually explored, not clustered at the center
    all_ratios = np.array([hp.to_array() / center for hp in draws])
    assert all_ratios.min() < 0.85 and all_ratios.max() > 1.15
    with pytest.raises(ConfigError):
        sample_neighborhood(base, 0, SeededRng(0))
    with pytest.raises(ConfigError):
        sample_neighborhood(base, 5, SeededRng(0), scale=1.5)


def test_verify_local_optimality_flow(tmp_path):
    # p=alpha=0.5 needs a single sample, keeping the smoke cheap but real
    config = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
                      pos_bias=False)
    corpus = encode_corpus(synth_text(2048, 5), seq_len=12)
    settings = TrainSettings(steps=2, batch_size=2, eval_interval=2,
                             max_eval_chunks=4, mfvi_iters=2)
    report = verify_local_optimality(config, HPPoint(lr=3e-3), corpus, seed=0,
                                     settings=settings, out_dir=str(tmp_path),
                                     p=0.5, alpha=0.5, n=2)
    assert report.n_samples == 2
    assert report.confidence == confidence(2, 0.5)
    assert report.rank == report.n_better + 1
    assert len(report.sample_losses) == 2
    assert len(report.distances) == 2
    assert report.locally_optimal == (report.n_better == report.n_within_noise)
    assert "rank" in report.summary()

    csv_path = report.artifacts["csv"]
    rows = (tmp_path / csv_path.split("/")[-1]).read_text().strip().split("\n")
    assert rows[0] == VERIFY_CSV_HEADER
    assert rows[1].startswith("0,0.0,")
    assert len(rows) == 1 + 1 + 2
    for kind in ("scatter_svg", "rank_svg"):
        svg = (tmp_path / report.artifacts[kind].split("/")[-1]).read_text()
        assert svg.lstrip().startswith("<svg")
    payload = json.loads((tmp_path / report.artifacts["json"].split("/")[-1]).read_text())
    assert payload["schema_version"] == "1"
    assert payload["n_samples"] == 2


def test_verify_rejects_undersampling(tmp_path):
    config = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259,
                      pos_bias=False)
    corpus = encode_corpus(synth_text(2048, 5), seq_len=12)
    with pytest.raises(ConfigError, match="confidence"):
        verify_local_optimality(config, HPPoint(lr=3e-3), corpus, seed=0,
                                settings=TrainSettings(steps=2, batch_size=2,
                                                       eval_interval=2,
                                                       max_eval_chunks=4,
                                                       mfvi_iters=2),
                                out_dir=str(tmp_path), p=0.05, alpha=0.05, n=10)


TINY = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=259, pos_bias=False)
TINY_SETTINGS = TrainSettings(steps=2, batch_size=2, eval_interval=2, max_eval_chunks=4,
                              mfvi_iters=2)


def _verify(tmp_path, monkeypatch, cpus, config=TINY):
    """A 4-sample verification on `cpus` usable CPUs (1: serial, 2: a pool)."""
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    return verify_local_optimality(config, HPPoint(lr=3e-3),
                                   encode_corpus(synth_text(2048, 5), seq_len=12), seed=0,
                                   settings=TINY_SETTINGS, out_dir=str(tmp_path),
                                   p=0.5, alpha=0.5, n=4)


def test_pooled_verification_equals_serial(tmp_path, monkeypatch):
    reports, files = [], []
    for cpus in (1, 2):
        reports.append(_verify(tmp_path, monkeypatch, cpus))
        files.append({kind: open(path, "rb").read()
                      for kind, path in reports[-1].artifacts.items()})
    serial, pooled = reports
    assert pooled.base_loss == serial.base_loss
    assert pooled.sample_losses == serial.sample_losses
    assert pooled.distances == serial.distances
    assert sorted(files[0]) == ["csv", "json", "rank_svg", "scatter_svg"]
    assert files[1] == files[0]


def test_worker_errors_reach_the_caller(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="vocab"):     # raised in train_run, in a worker
        _verify(tmp_path, monkeypatch, 2, config=TINY.with_(vocab_size=64))
    assert multiprocessing.active_children() == []

    parent = os.getpid()

    def broken_run(config, hp, corpus, seed, settings):
        assert os.getpid() != parent
        raise RuntimeError(f"no run at lr {hp.lr!r}")

    monkeypatch.setattr(search, "train_run", broken_run)
    with pytest.raises(RuntimeError, match="no run at lr"):
        _verify(tmp_path, monkeypatch, 2)
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.iterdir())           # nothing written on failure
