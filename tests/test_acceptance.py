"""Release gate: every numbered claim the package makes, at pinned tolerances.

Each test prints exactly one criterion line (via the acceptance_record
fixture) and then asserts. Operating points and tolerances are frozen;
loosening a tolerance is never an acceptable fix for a red criterion.

Criteria 9-11 train real models and are marked slow (minutes, not seconds);
run `pytest -m "not slow"` while iterating and the full suite before release.
"""
import hashlib
import math
import os

import numpy as np
import pytest

from mupt import (DIAG_HP, PARADIGMS, SCALE_CHANNELS, SCALE_RANK, HPPoint,
                  InfoWeights, ModelParams, PTConfig, SeededRng, TrainSettings,
                  WidthScaler, coord_check, encode_corpus,
                  energy_entropy_probe, entropy_uniform_exact,
                  equivalence_check, finite_diff_check, hp_distance,
                  init_variance_audit, logit_variance_scan, masked_ce_loss,
                  min_samples, mlm_logits, reverse_grad, run_mfvi, sample_size_bound,
                  synth_text, tau_cancellation_check, train_run,
                  transfer_sweep, verify_local_optimality)
from mupt.diagnostics import write_coord_csv
from mupt.search import confidence

pytestmark = pytest.mark.acceptance

# Small geometry for the exact-equivalence and gradient checks.
EQ_BASE = PTConfig(width=8, rank=2, channels=2, topics=16, vocab_size=17,
                   pos_bias=True, pos_buckets=8, pos_clip=4)

# Width-ladder bases for the scaling diagnostics. The byte-corpus ladder
# needs vocab 259 (256 bytes + mask/pad/unk); the init-statistics ladder
# uses a smaller vocab to keep the per-width audits cheap.
LADDER64 = PTConfig(width=64, rank=16, channels=2, topics=128, vocab_size=64)
LADDER259 = PTConfig(width=64, rank=16, channels=2, topics=128,
                     vocab_size=259, pos_bias=False)

LADDER_WIDTHS = [64, 128, 256, 512]


def test_criterion_1_inference_path_equivalence(acceptance_record):
    """Literal temperature form and rescaled baseline match production
    elementwise through every sweep, both scaling paradigms, 5 seeds."""
    worst = 0.0
    where = ""
    for paradigm in PARADIGMS:
        scaler = WidthScaler(EQ_BASE, paradigm)
        for width in (8, 16, 32):
            config = scaler.config_at(width)
            for seed in range(5):
                rep = equivalence_check(config, seed=seed, n_tokens=8,
                                        iters=3, tolerance=1e-12)
                if rep.max_deviation > worst:
                    worst = rep.max_deviation
                    where = f"{paradigm}/w{width}/seed{seed}/{rep.worst}"
    passed = worst <= 1e-12
    acceptance_record(
        "criterion 1 (three-path inference equivalence <= 1e-12)", passed,
        f"max relative deviation {worst:.3e} at {where}")
    assert passed


def test_criterion_2_temperature_cancellation(acceptance_record):
    """Dividing the tau-weighted energy gradients by tau reproduces the
    production logits bit-tightly for tau in {1, 2, 8, 24}."""
    pairs = [(8, 8), (16, 8), (16, 2), (24, 1)]
    devs = {}
    for width, rank in pairs:
        tau = width // rank
        devs[tau] = tau_cancellation_check(width, rank, seed=0)
    worst_tau = max(devs, key=devs.get)
    passed = devs[worst_tau] <= 1e-12
    acceptance_record(
        "criterion 2 (temperature cancellation <= 1e-12)", passed,
        f"max deviation {devs[worst_tau]:.3e} at tau={worst_tau} "
        f"(taus checked: {sorted(devs)})")
    assert passed


def test_criterion_3_gradients_match_finite_differences(acceptance_record):
    """Reverse-mode gradients of the full masked-LM loss (two inference
    sweeps unrolled) agree with central differences on every coordinate."""
    config = EQ_BASE
    root = SeededRng(0)
    params = ModelParams.init(config, root.spawn("params"))
    tokens = np.asarray(root.spawn("tokens").integers(0, config.vocab_size, (6,)))
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
    acceptance_record(
        "criterion 3 (gradient vs finite differences, rtol 1e-6 atol 1e-8)",
        report.passed,
        f"worst ratio {report.worst_ratio:.3e} of tolerance at "
        f"{report.worst_coord}, {len(report.per_tensor)} tensors")
    assert report.passed


def test_criterion_4_init_variance_table(acceptance_record):
    """Empirical init variances sit within 15% of the grouped targets at
    every ladder width; the zero-init tensors are exactly zero."""
    scaler = WidthScaler(LADDER64, SCALE_CHANNELS)
    worst = 0.0
    worst_where = ""
    zeros_ok = True
    names_ok = True
    for width in LADDER_WIDTHS:
        audit = init_variance_audit(scaler.config_at(width), seed=0)
        zeros_ok = zeros_ok and audit.zeros_exact
        names_ok = names_ok and set(audit.zero_names) == {"P_rel", "b_out"}
        for group, err in audit.rel_error.items():
            if err > worst:
                worst = err
                worst_where = f"w{width}/{group}"
    passed = worst <= 0.15 and zeros_ok and names_ok
    acceptance_record(
        "criterion 4 (init variance within 15% of table, zeros exact)", passed,
        f"worst relative error {worst:.4f} at {worst_where}, "
        f"zero tensors exact: {zeros_ok}")
    assert passed


def test_criterion_5_logit_variance_slope(acceptance_record):
    """Init-time output-logit variance falls like 1/width (log-log slope
    -1 +/- 0.3); a constant-sigma output init flips the slope to +1."""
    scaler = WidthScaler(LADDER64, SCALE_CHANNELS)
    widths = [64, 128, 256, 512, 1024]
    scan = logit_variance_scan(scaler, widths, n_seeds=20, n_tokens=16,
                               iters=2, seed0=0)
    control = logit_variance_scan(scaler, widths, n_seeds=20, n_tokens=16,
                                  iters=2, seed0=0, control_sigma=1.0 / 64)
    passed = abs(scan.slope - (-1.0)) <= 0.3 and abs(control.slope - 1.0) <= 0.3
    acceptance_record(
        "criterion 5 (logit variance slope -1 +/- 0.3, control +1 +/- 0.3)",
        passed,
        f"slope {scan.slope:+.3f}, constant-sigma control {control.slope:+.3f} "
        f"over widths {widths[0]}..{widths[-1]}, {scan.n_seeds} seeds")
    assert passed


def _csv_hash(report, path) -> str:
    """The first 16 hex digits of the SHA-256 of a coord report's CSV."""
    write_coord_csv(report, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.slow
def test_criterion_6_coordinate_stability(acceptance_record, golden_record, tmp_path):
    """Ten training steps across the width ladder keep label coordinates,
    attention logits, output logits, and one-step deltas inside [1/3, 3]
    between consecutive widths; a constant hidden LR does not."""
    scaler = WidthScaler(LADDER259, SCALE_CHANNELS)
    report = coord_check(scaler, LADDER_WIDTHS, DIAG_HP, steps=10, seed=0,
                         batch_size=4, iters=3)
    violations = report.band_violations()
    control = coord_check(scaler, LADDER_WIDTHS, DIAG_HP, steps=10, seed=0,
                          batch_size=4, iters=3, hidden_lr_scaling="constant")
    control_violations = control.band_violations()
    golden_record("criterion 6 coord CSV (mup)", _csv_hash(report, tmp_path / "mup.csv"))
    golden_record("criterion 6 coord CSV (constant)",
                  _csv_hash(control, tmp_path / "constant.csv"))
    passed = not violations and bool(control_violations)
    acceptance_record(
        "criterion 6 (coordinate check stable, mis-scaled control violates)",
        passed,
        f"band violations: scaled {len(violations)}, constant-LR control "
        f"{len(control_violations)} (first: "
        f"{control_violations[0] if control_violations else 'none'})")
    assert passed


def test_criterion_7_energy_entropy_slopes(acceptance_record):
    """Literal energy magnitudes and tempered entropy follow the predicted
    width slopes under both paradigms; tau*H at uniform matches tau*ln(width)
    exactly."""
    expectations = {
        SCALE_CHANNELS: {"tau_entropy": 1.0, "e_unary": 0.5, "e_binary": 0.5},
        SCALE_RANK: {"tau_entropy": 0.0, "e_unary": -0.5, "e_binary": -0.5},
    }
    tol = {"tau_entropy": 0.15, "e_unary": 0.2, "e_binary": 0.2}
    passed = True
    parts = []
    closed_worst = 0.0
    for paradigm in PARADIGMS:
        scaler = WidthScaler(LADDER259, paradigm)
        fits = energy_entropy_probe(scaler, LADDER_WIDTHS, n_seeds=32,
                                    n_tokens=16, seed0=2)
        for quantity, target in expectations[paradigm].items():
            fit = fits[quantity]
            slope = (fit.normalized_slope if quantity == "tau_entropy"
                     else fit.slope)
            if abs(slope - target) > tol[quantity]:
                passed = False
            parts.append(f"{paradigm[6:]}/{quantity} {slope:+.3f}")
        parts.append(f"{paradigm[6:]}/e_ternary {fits['e_ternary'].slope:+.3f} (recorded)")
        for width in LADDER_WIDTHS:
            h, exact = entropy_uniform_exact(scaler.config_at(width))
            closed_worst = max(closed_worst, abs(h - exact) / max(abs(h), abs(exact)))
    if closed_worst > 1e-12:
        passed = False
    acceptance_record(
        "criterion 7 (energy/entropy width slopes per paradigm)", passed,
        "; ".join(parts) + f"; uniform tau*H vs tau*lnN rel dev {closed_worst:.1e}")
    assert passed


def test_criterion_8_sample_size_closed_forms(acceptance_record):
    """Neighborhood sample-size bound, count, confidence, and HP distance
    reproduce their closed forms exactly."""
    n = min_samples(0.05, 0.05)
    bound = sample_size_bound(0.05, 0.05)
    conf = confidence(62, 0.05)
    base = HPPoint(lr=1e-3, weights=InfoWeights())
    d_same = hp_distance(base, base)
    d_lr = hp_distance(base, base.with_lr(1.2e-3))
    scaled = HPPoint.from_array(base.to_array() * 1.2)
    d_all = hp_distance(base, scaled)
    checks = [
        n == 59,
        f"{bound:.2f}" == "58.40",
        conf == pytest.approx(1.0 - 0.95 ** 62, rel=1e-15),
        d_same == 0.0,
        d_lr == pytest.approx(0.2, rel=1e-12),
        d_all == pytest.approx(0.2 * math.sqrt(7), rel=1e-12),
    ]
    passed = all(checks)
    acceptance_record(
        "criterion 8 (sample-size and distance closed forms)", passed,
        f"min_samples(0.05,0.05)={n}, bound={bound:.2f}, "
        f"confidence(62)={conf:.6f}, distances ({d_same:.3g}, {d_lr:.3g}, "
        f"{d_all:.6g})")
    assert passed


@pytest.mark.slow
def test_criterion_9_training_convergence_and_determinism(acceptance_record, golden_record):
    """A width-256 model trained 2000 steps on 1 MiB of synthetic bytes ends
    at least 20% below the uniform-prediction loss, and a rerun of the same
    configuration reproduces the record bit-for-bit."""
    config = WidthScaler(LADDER259, SCALE_CHANNELS).config_at(256)
    corpus = encode_corpus(synth_text(1 << 20, 13), seq_len=64)
    settings = TrainSettings(steps=2000, batch_size=4, eval_interval=500,
                             mfvi_iters=3)
    record = train_run(config, DIAG_HP, corpus, seed=5, settings=settings)
    threshold = 0.8 * math.log(config.vocab_size)
    loss_ok = (not record.diverged) and record.final_eval_loss <= threshold

    # Bit-identical reruns are cheap to demonstrate on a shortened replica of
    # the same width-256 configuration (same code path, 40x fewer steps).
    short = TrainSettings(steps=50, batch_size=4, eval_interval=25,
                          mfvi_iters=3)
    digest_a = train_run(config, DIAG_HP, corpus, seed=5, settings=short).semantic_digest()
    digest_b = train_run(config, DIAG_HP, corpus, seed=5, settings=short).semantic_digest()
    deterministic = digest_a == digest_b
    golden_record("criterion 9 replica digest", digest_a[:12])
    passed = loss_ok and deterministic
    acceptance_record(
        "criterion 9 (width-256 training converges, reruns bit-identical)",
        passed,
        f"final eval loss {record.final_eval_loss:.4f} <= {threshold:.4f}, "
        f"diverged={record.diverged}, replica digests "
        f"{'match' if deterministic else 'DIFFER'} ({digest_a[:12]})")
    assert passed


@pytest.mark.slow
def test_criterion_10_lr_transfer_across_width(acceptance_record):
    """The best LR on a half-decade grid moves at most one grid index when
    the width quadruples from 64 to 256."""
    scaler = WidthScaler(LADDER259.with_(pos_bias=False), SCALE_CHANNELS)
    grid = [1e-3, 10 ** -2.5, 1e-2, 10 ** -1.5, 1e-1]
    corpus = encode_corpus(synth_text(1 << 19, 17), seq_len=32)
    settings = TrainSettings(steps=500, batch_size=4, eval_interval=500,
                             mfvi_iters=3)
    sweep = transfer_sweep(scaler, [64, 256], grid, DIAG_HP, corpus, seed=3,
                           settings=settings)
    displacement = sweep.argmin_displacement
    passed = displacement <= 1
    best = {w: grid[sweep.best_lr_index[w]] for w in sweep.widths}
    acceptance_record(
        "criterion 10 (argmin LR displacement <= 1 grid step)", passed,
        f"displacement {displacement}; best LR w64={best[64]:.4g}, "
        f"w256={best[256]:.4g} on a 5-point half-decade grid")
    assert passed


@pytest.mark.slow
def test_criterion_11_verification_smoke(acceptance_record, tmp_path):
    """The neighborhood verification runs end to end at width 64 with the
    derived n=59 samples and writes both SVG plots plus the CSV."""
    config = PTConfig(width=64, rank=16, channels=2, topics=128,
                      vocab_size=259, pos_bias=True)
    corpus = encode_corpus(synth_text(1 << 17, 13), seq_len=32)
    settings = TrainSettings(steps=40, batch_size=4, eval_interval=40,
                             mfvi_iters=3)
    report = verify_local_optimality(config, DIAG_HP, corpus, seed=0,
                                     settings=settings, out_dir=str(tmp_path),
                                     p=0.05, alpha=0.05, n=None, scale=0.2)
    svgs = [p for p in report.artifacts.values() if p.endswith(".svg")]
    csvs = [p for p in report.artifacts.values() if p.endswith(".csv")]
    files_ok = (len(svgs) == 2 and len(csvs) == 1
                and all(os.path.exists(p) for p in report.artifacts.values()))
    csv_rows = 0
    if csvs:
        with open(csvs[0], encoding="utf-8") as f:
            csv_rows = sum(1 for _ in f)
    passed = (report.n_samples == 59
              and report.confidence == pytest.approx(1.0 - 0.95 ** 59, rel=1e-15)
              and files_ok
              and csv_rows == 61)
    acceptance_record(
        "criterion 11 (verification smoke: n=59, 2 SVGs + CSV)", passed,
        f"n_samples={report.n_samples}, confidence={report.confidence:.4f}, "
        f"{len(svgs)} SVGs, CSV rows {csv_rows}, {report.summary()}")
    assert passed
