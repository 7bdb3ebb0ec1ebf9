"""Diagnostics: equivalence paths, ladders, audits, energies, artifact writers.

The strict tolerance/band assertions live in the acceptance suite; here each
tool is exercised at desk scale for correctness of its bookkeeping plus loose
physics sanity on tiny ladders.
"""
import json
import math
import multiprocessing

import numpy as np
import pytest

from mupt import diagnostics, parallel
from mupt.config import HPPoint, InfoWeights, PTConfig
from mupt.diagnostics import (
    BAND_PROBES,
    COORD_CSV_HEADER,
    DIAG_HP,
    DIAG_WEIGHTS,
    PROBES,
    CoordReport,
    EquivalenceReport,
    coord_check,
    coord_summary_json,
    dense_oracle_check,
    energy_entropy_probe,
    energy_terms,
    entropy_uniform_exact,
    equivalence_check,
    init_variance_audit,
    logit_variance_scan,
    prob_rel_dev,
    scale_rel_dev,
    tau_cancellation_check,
    write_coord_csv,
)
from mupt.errors import ConfigError
from mupt.mup import WidthScaler

SMALL = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                 pos_bias=True, pos_buckets=8, pos_clip=4)
TINY_LADDER = WidthScaler(PTConfig(width=16, rank=4, channels=2, topics=32,
                                   vocab_size=259, pos_bias=False),
                          "scale_channels")


def test_deviation_metrics():
    assert prob_rel_dev(np.array([1.0]), np.array([2.0])) == 0.5
    assert prob_rel_dev(np.zeros(3), np.zeros(3)) == 0.0
    x = np.array([0.25, 0.75])
    assert prob_rel_dev(x, x) == 0.0
    assert scale_rel_dev(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(1 / 3)
    assert scale_rel_dev(np.zeros(2), np.zeros(2)) == 0.0


def test_equivalence_report_bookkeeping():
    rep = EquivalenceReport(width=8, seed=0, sweeps=2, tolerance=1e-2,
                            deviations={"a": 1e-3, "b": 5e-3})
    assert rep.max_deviation == 5e-3
    assert rep.worst == "b"
    assert rep.passed
    assert "ok" in rep.summary()
    empty = EquivalenceReport(width=8, seed=0, sweeps=0, tolerance=1e-12)
    assert empty.max_deviation == 0.0 and empty.passed


def test_equivalence_paths_agree_small():
    rep = equivalence_check(SMALL, seed=0, n_tokens=8, iters=3, tolerance=1e-12)
    assert rep.passed, rep.summary()
    # all three stages of every sweep were compared, both alternative paths
    assert "init/q_z:literal" in rep.deviations
    assert "sweep3/q_z:rescaled" in rep.deviations
    assert "final/mlm_logits:literal" in rep.deviations
    assert "final/predictive:rescaled" in rep.deviations


def test_equivalence_holds_with_position_bias_and_weights():
    rep = equivalence_check(SMALL, seed=1, n_tokens=6, iw=DIAG_WEIGHTS,
                            iters=2, tolerance=1e-12)
    assert rep.passed, rep.summary()


def test_tau_cancellation():
    assert tau_cancellation_check(16, 8, seed=0) < 1e-12
    assert tau_cancellation_check(24, 1, seed=1) < 1e-12  # extreme temperature


def test_dense_oracle_agreement():
    devs = dense_oracle_check(SMALL.with_(pos_bias=False), seed=0)
    assert set(devs) == {"attn_logits", "tern_dep", "tern_head"}
    assert max(devs.values()) < 1e-12


def test_energy_terms_hand_case():
    cfg = PTConfig(width=2, rank=1, channels=1, topics=2, vocab_size=3,
                   pos_bias=False)
    assert cfg.tau == 2.0
    params = {
        "S": np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]),
        "U": np.array([[[1.0], [2.0]]]),
        "V": np.array([[[3.0], [1.0]]]),
        "B": np.array([[1.0, 0.0], [0.0, 2.0]]),
    }
    tokens = np.array([0, 1])
    q_z = np.array([[1.0, 0.0], [0.0, 1.0]])
    q_h = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    q_g = np.array([[0.5, 0.5], [1.0, 0.0]])
    terms = energy_terms(cfg, params, tokens, q_z, q_h, q_g)
    np.testing.assert_allclose(terms["e_unary"], [-2.0, -8.0], atol=1e-14)
    np.testing.assert_allclose(terms["e_binary"], [-2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(terms["e_ternary"], [-4.0, -24.0], atol=1e-14)
    np.testing.assert_array_equal(terms["tau_entropy"], [0.0, 0.0])


def test_entropy_uniform_closed_form():
    for width in (8, 64, 512):
        cfg = PTConfig(width=width, rank=2, channels=2, topics=16, vocab_size=17)
        measured, closed = entropy_uniform_exact(cfg)
        assert abs(measured - closed) <= 1e-12 * abs(closed)
        assert closed == cfg.tau * math.log(width)


def test_init_variance_audit():
    cfg = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=64,
                   pos_bias=True, pos_buckets=32, pos_clip=16)
    audit = init_variance_audit(cfg, seed=0)
    assert audit.within(0.15)
    assert set(audit.zero_names) == {"P_rel", "b_out"}
    assert audit.zeros_exact
    assert set(audit.pooled_variance) == {"input", "hidden", "output"}
    assert all(n >= 10_000 for n in audit.n_samples.values())
    assert audit.target_variance["hidden"] == pytest.approx(1 / 64)
    # a miss in any group must fail the audit
    assert not audit.within(tol=min(audit.rel_error.values()) / 2
                            if min(audit.rel_error.values()) > 0 else 0.0)


def test_logit_variance_scan_slopes():
    scaler = WidthScaler(PTConfig(width=32, rank=8, channels=2, topics=64,
                                  vocab_size=64, pos_bias=False),
                         "scale_channels")
    scan = logit_variance_scan(scaler, [32, 64, 128], n_seeds=8, n_tokens=8,
                               iters=1, seed0=0)
    assert len(scan.variances) == 3
    assert not scan.control
    assert -1.6 < scan.slope < -0.4
    control = logit_variance_scan(scaler, [32, 64, 128], n_seeds=8, n_tokens=8,
                                  iters=1, seed0=0, control_sigma=1.0 / 32)
    assert control.control
    assert control.slope > 0.3


def test_coord_check_structure():
    report = coord_check(TINY_LADDER, [16, 32], DIAG_HP, steps=2, seed=0,
                         batch_size=2, iters=2)
    assert report.paradigm == "scale_channels"
    assert set(report.mean_abs) == set(PROBES)
    for probe in PROBES:
        for w in (16, 32):
            assert len(report.mean_abs[probe][w]) == 3
            assert len(report.variance[probe][w]) == 3
    assert report.mean_abs["delta_nz"][16][0] == 0.0  # no update yet at init
    assert not report.diverged[16] and not report.diverged[32]
    assert len(report.ratio_table("nz", 0)) == 1
    assert report.end_to_end_ratio("nz", 0) == pytest.approx(
        report.mean_abs["nz"][32][0] / report.mean_abs["nz"][16][0])
    assert isinstance(report.band_violations(), list)
    with pytest.raises(ConfigError):
        coord_check(TINY_LADDER, [32, 16], DIAG_HP, steps=1)


def test_coord_check_pooled_equals_serial(monkeypatch, tmp_path):
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
        reports.append(coord_check(TINY_LADDER, [16, 32, 64], DIAG_HP, steps=2, seed=0,
                                   batch_size=2, iters=2))
        write_coord_csv(reports[-1], tmp_path / f"coord{cpus}.csv")
        assert multiprocessing.active_children() == []
    serial, pooled = reports
    assert pooled.mean_abs == serial.mean_abs
    assert pooled.variance == serial.variance
    assert pooled.diverged == serial.diverged
    assert (tmp_path / "coord1.csv").read_bytes() == (tmp_path / "coord2.csv").read_bytes()


def test_coord_check_refuses_an_uneven_width_before_training(monkeypatch):
    # 36 channels-scales the width-16 base to 4.5 channels; 16 and 32 scale evenly
    def no_training(*args):
        raise AssertionError("a width trained")

    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(diagnostics, "train_steps", no_training)
    with pytest.raises(ConfigError, match="to 36"):
        coord_check(TINY_LADDER, [16, 32, 36], DIAG_HP, steps=1, batch_size=2, iters=2)


def test_coord_check_divergence_stops_stepping():
    # an absurd LR overflows float64 within a few steps; overflow is the point
    with np.errstate(over="ignore", invalid="ignore"):
        report = coord_check(TINY_LADDER, [16, 32], DIAG_HP.with_lr(1e80), steps=4,
                             seed=0, batch_size=2, iters=2)
    for w in (16, 32):
        assert report.diverged[w]
        # the step whose loss is non-finite records +inf for every probe, and
        # so does every later step; probes before it are recorded as measured
        # (huge, or NaN once the weights overflow)
        first_bad = report.mean_abs["nz"][w].index(math.inf)
        assert 1 <= first_bad <= report.steps
        for p in PROBES:
            assert math.inf not in report.mean_abs[p][w][:first_bad]
            assert all(x == math.inf for x in report.mean_abs[p][w][first_bad:])
            assert all(x == math.inf for x in report.variance[p][w][first_bad:])


def test_coord_report_band_logic(monkeypatch):
    rep = CoordReport(paradigm="scale_channels", widths=[8, 16], steps=1,
                      mean_abs={p: {8: [1.0, 1.0], 16: [1.0, 10.0]} for p in PROBES},
                      variance={p: {8: [0.0, 0.0], 16: [0.0, 0.0]} for p in PROBES},
                      diverged={8: False, 16: False})
    bad = rep.band_violations()
    # step 1 blows the band on every band probe; step 0 is fine
    assert len(bad) == len(BAND_PROBES)
    assert all("step1" in b for b in bad)
    # the band is read as the check runs
    monkeypatch.setattr(diagnostics, "COORD_BAND", (0.01, 100.0))
    assert rep.band_violations() == []
    # delta_nz is exempt at step 0 even when zero there
    assert rep.ratio_table("nz", 1) == [10.0]


def test_coord_ratio_rule():
    # 0/0 is 1; a zero smaller-width value or a non-finite larger-width one is inf
    cases = [(0.0, 0.0, 1.0), (0.0, 2.0, math.inf), (1.0, math.inf, math.inf),
             (1.0, math.nan, math.inf), (2.0, 1.0, 0.5), (2.0, 0.0, 0.0)]
    for lo, hi, want in cases:
        rep = CoordReport(paradigm="scale_channels", widths=[8, 16, 32], steps=0,
                          mean_abs={"nz": {8: [lo], 16: [lo], 32: [hi]}},
                          variance={}, diverged={})
        assert rep.ratio_table("nz", 0) == [1.0, want]
        assert rep.end_to_end_ratio("nz", 0) == want


def test_one_step_update_ratios_from_coord_check():
    # the CLI's one-step update ratios come from step 1 of the main ladder
    rep = coord_check(TINY_LADDER, [16, 32], DIAG_HP, steps=2, seed=0,
                      batch_size=2, iters=2)
    delta = {w: rep.mean_abs["delta_nz"][w][1] for w in (16, 32)}
    assert all(v > 0 for v in delta.values())
    assert rep.ratio_table("delta_nz", 1) == [delta[32] / delta[16]]
    assert rep.end_to_end_ratio("delta_nz", 1) == delta[32] / delta[16]
    # a one-step ladder measures the same first step bit for bit
    one = coord_check(TINY_LADDER, [16, 32], DIAG_HP, steps=1, seed=0,
                      batch_size=2, iters=2)
    assert {w: one.mean_abs["delta_nz"][w][1] for w in (16, 32)} == delta


def test_energy_probe_structure_and_loose_slopes():
    scaler = WidthScaler(PTConfig(width=16, rank=4, channels=2, topics=32,
                                  vocab_size=64, pos_bias=False),
                         "scale_channels")
    fits = energy_entropy_probe(scaler, [16, 32, 64], n_seeds=4, n_tokens=8,
                                seed0=0)
    assert set(fits) == {"e_unary", "e_binary", "e_ternary", "tau_entropy"}
    # tau grows with N here, so tempered entropy grows superlinearly in log-log
    assert 0.5 < fits["tau_entropy"].slope < 1.5
    assert fits["tau_entropy"].normalized_slope is not None
    assert fits["e_unary"].normalized_slope is None
    assert "slope" in fits["e_unary"].summary()


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_seed_averages_need_a_seed(n_seeds):
    # a mean over no seeds is undefined: refused, not a ZeroDivisionError
    with pytest.raises(ConfigError, match="n_seeds must be >= 1"):
        energy_entropy_probe(TINY_LADDER, [16, 32], n_seeds=n_seeds)
    with pytest.raises(ConfigError, match="n_seeds must be >= 1"):
        logit_variance_scan(TINY_LADDER, [16, 32], n_seeds=n_seeds)


def test_coord_csv_and_summary_json(tmp_path):
    report = coord_check(TINY_LADDER, [16, 32], DIAG_HP, steps=1, seed=0,
                         batch_size=2, iters=2)
    path = tmp_path / "coord.csv"
    write_coord_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == COORD_CSV_HEADER
    assert len(lines) == 1 + len(PROBES) * 2 * 2
    cells = lines[1].split(",")
    assert cells[0] == "16" and cells[1] in PROBES
    float(cells[3]); float(cells[4])  # numeric round-trip

    summary = json.loads(coord_summary_json(report))
    assert summary["schema_version"] == "1"
    assert summary["widths"] == [16, 32]
    assert isinstance(summary["stable"], bool)
    assert summary["band"] == [1 / 3, 3.0]


def test_diag_constants():
    assert DIAG_HP.weights == DIAG_WEIGHTS
    assert DIAG_HP.lr == 3e-3
    assert all(0 < getattr(DIAG_WEIGHTS, k) <= 1 for k in InfoWeights.ORDER)
