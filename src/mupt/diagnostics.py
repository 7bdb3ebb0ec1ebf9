"""Width-scaling diagnostics and cross-implementation equivalence oracles.

Three independent computations of one inference sweep are compared:

  production   the closed-form low-rank updates in model.py
  literal      energy-gradient logits with every temperature factor written
               out (tau, tau*N, tau*M) against a densely materialized
               T_c = U_c V_c^T, divided by the entropy temperature at the end
  rescaled     a baseline graph on raw posteriors with the two explicit
               activation edits (attention logits divided by r, label
               posteriors scaled by N; topics by their own count M)

Posteriors are compared elementwise-relative (softmax outputs keep relative
error small wherever logits agree absolutely); logit tensors are compared
relative to their own scale, since a logit crossing zero has no meaningful
elementwise-relative error against any non-bit-identical twin.

The remaining checks quantify the width-scaling contract: coordinate norms
and one-step update sizes along a width ladder (with a deliberately
mis-scaled control), output-logit variance decay at init, and the literal
energy/entropy magnitudes against their predicted power laws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from . import model
from .autodiff import rms_norm, val
from .config import HPPoint, InfoWeights, PTConfig
from .errors import ConfigError
from .mup import AdamW, WidthScaler
from .rng import SeededRng
from .training import train_steps
from .util import canonical_json

__all__ = [
    "DIAG_WEIGHTS", "DIAG_HP",
    "prob_rel_dev", "scale_rel_dev",
    "EquivalenceReport", "equivalence_check", "tau_cancellation_check",
    "dense_oracle_check",
    "CoordReport", "coord_check", "update_magnitude_check", "UpdateMagnitudeReport",
    "InitAudit", "init_variance_audit",
    "VarianceScan", "logit_variance_scan",
    "MagnitudeFit", "energy_entropy_probe", "entropy_uniform_exact",
    "energy_terms", "write_coord_csv", "coord_summary_json",
]

SCHEMA_VERSION = "1"
COORD_CSV_HEADER = "width,probe,step,mean_abs,variance"

# Ladder checks probe the diffuse-posterior regime. At all-ones weights the
# topic channel saturates Q_g at init (random potentials, synchronized
# feedback), label rows go one-hot, and gradients upstream of the readout
# underflow, which makes delta probes meaningless. These softened weights are
# an ordinary point of the transferable HP vector at which messages stay in
# the linear regime across the ladder.
DIAG_WEIGHTS = InfoWeights(w_unary=0.5, w_tern_dep=0.25, w_tern_head=0.25,
                           w_binary=0.125, w_attn=0.25, w_topic=0.125)
DIAG_HP = HPPoint(lr=3e-3, weights=DIAG_WEIGHTS)


def prob_rel_dev(x: np.ndarray, y: np.ndarray) -> float:
    """Max elementwise relative deviation between nonnegative tensors."""
    x, y = np.asarray(x), np.asarray(y)
    m = np.maximum(np.abs(x), np.abs(y))
    d = np.abs(x - y) / np.where(m == 0.0, 1.0, m)
    return float(d.max())


def scale_rel_dev(x: np.ndarray, y: np.ndarray) -> float:
    """Max absolute deviation normalized by the larger tensor magnitude."""
    x, y = np.asarray(x), np.asarray(y)
    denom = max(float(np.abs(x).max(initial=0.0)), float(np.abs(y).max(initial=0.0)), 1e-300)
    return float(np.abs(x - y).max(initial=0.0)) / denom


def _np_softmax(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    from .autodiff import _softmax_np

    return _softmax_np(np.asarray(x, dtype=np.float64), mask)


def _dense_t(params: dict) -> np.ndarray:
    u, v = np.asarray(params["U"]), np.asarray(params["V"])
    return np.einsum("cnr,cmr->cnm", u, v)


def _off_diag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def _pos_bias_np(config: PTConfig, params: dict, n: int) -> np.ndarray | float:
    if not config.pos_bias:
        return 0.0
    buckets = model.position_buckets(n, config.pos_buckets, config.pos_clip)
    return np.asarray(params["P_rel"])[:, buckets]


def _np_readout(config: PTConfig, params: dict, q_z: np.ndarray) -> np.ndarray:
    """Masked-LM logits of an oracle's label posteriors."""
    feature = rms_norm(config.width * q_z, np.asarray(params["gamma"]), config.rms_eps)
    return feature @ np.asarray(params["W_out"]) + np.asarray(params["b_out"])


class _LiteralPath:
    """Energy-gradient sweep with explicit temperature factors and dense T."""

    def __init__(self, config: PTConfig, params: dict, tokens: np.ndarray,
                 iw: InfoWeights) -> None:
        self.config, self.params, self.tokens, self.iw = config, params, tokens, iw
        self.tau = config.tau
        self.T = _dense_t(params)
        self.s_tok = np.asarray(params["S"])[tokens]
        self.mask = _off_diag_mask(tokens.shape[-1])
        self.prel = _pos_bias_np(config, params, tokens.shape[-1])
        n = tokens.shape[-1]
        _, self.q_h, self.q_g = model.uniform_posteriors(config, n)
        self.q_z = _np_softmax((self.iw.w_unary * (self.tau * self.s_tok)) / self.tau)

    def sweep(self) -> None:
        cfg, iw, tau = self.config, self.iw, self.tau
        n_val, m_val = cfg.width, cfg.topics
        head_logits = tau * n_val * np.einsum("ia,cab,jb->cij", self.q_z, self.T, self.q_z)
        self.q_h = _np_softmax(iw.w_attn * (head_logits + self.prel), self.mask)
        g_logits = (iw.w_topic * ((tau * m_val) * (self.q_z @ np.asarray(self.params["B"]).T))) / tau
        self.q_g = _np_softmax(g_logits)
        dep = np.einsum("cij,cab,jb->ia", self.q_h, self.T, self.q_z)
        head = np.einsum("cji,cba,jb->ia", self.q_h, self.T, self.q_z)
        z = (iw.w_unary * (tau * self.s_tok)
             + iw.w_binary * ((tau * m_val) * (self.q_g @ np.asarray(self.params["B"])))
             + (tau * n_val) * (iw.w_tern_dep * dep + iw.w_tern_head * head)) / tau
        self.q_z = _np_softmax(z)


class _RescaledPath:
    """Raw-posterior baseline with the two explicit activation rescalings."""

    def __init__(self, config: PTConfig, params: dict, tokens: np.ndarray,
                 iw: InfoWeights) -> None:
        self.config, self.params, self.tokens, self.iw = config, params, tokens, iw
        self.s_tok = np.asarray(params["S"])[tokens]
        self.mask = _off_diag_mask(tokens.shape[-1])
        self.prel = _pos_bias_np(config, params, tokens.shape[-1])
        n = tokens.shape[-1]
        _, self.q_h, self.q_g = model.uniform_posteriors(config, n)
        self.q_z = _np_softmax(iw.w_unary * self.s_tok)

    def sweep(self) -> None:
        cfg, iw = self.config, self.iw
        u, v, b = (np.asarray(self.params[k]) for k in ("U", "V", "B"))
        z_feat = cfg.width * self.q_z                    # explicit edit 1
        q = np.matmul(z_feat[None], u)
        k = np.matmul(z_feat[None], v)
        f = np.matmul(q, k.swapaxes(-1, -2)) / cfg.rank  # explicit edit 2
        self.q_h = _np_softmax(iw.w_attn * (f + self.prel), self.mask)
        rho = cfg.topics / cfg.width
        self.q_g = _np_softmax(iw.w_topic * (rho * (z_feat @ b.T)))
        g_feat = cfg.topics * self.q_g                   # topic-family analog of edit 1
        dep = np.matmul(np.matmul(self.q_h, k), u.swapaxes(-1, -2)).sum(axis=0)
        head = np.matmul(np.matmul(self.q_h.swapaxes(-1, -2), q), v.swapaxes(-1, -2)).sum(axis=0)
        z = (iw.w_unary * self.s_tok + iw.w_binary * (g_feat @ b)
             + iw.w_tern_dep * dep + iw.w_tern_head * head)
        self.q_z = _np_softmax(z)


@dataclass
class EquivalenceReport:
    """Per-tensor deviations of the alternative paths from production."""

    width: int
    seed: int
    sweeps: int
    tolerance: float
    deviations: dict[str, float] = field(default_factory=dict)

    @property
    def max_deviation(self) -> float:
        return max(self.deviations.values()) if self.deviations else 0.0

    @property
    def worst(self) -> str:
        if not self.deviations:
            return ""
        return max(self.deviations, key=self.deviations.get)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"equivalence[w={self.width} seed={self.seed}] max={self.max_deviation:.3e} "
                f"at {self.worst or '-'} ({status}, tol={self.tolerance:g})")


def equivalence_check(config: PTConfig, seed: int, n_tokens: int = 8,
                      iw: InfoWeights | None = None, iters: int | None = None,
                      tolerance: float = 1e-9) -> EquivalenceReport:
    """Run all three paths on one random model and compare every sweep.

    Raises nothing on deviation; the report carries pass/fail so callers can
    decide (the CLI exits 2, the acceptance test asserts at its own 1e-12).
    """
    if iters is None:
        iters = config.mfvi_iters
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (n_tokens,)))
    if iw is None:
        iw = InfoWeights()

    report = EquivalenceReport(width=config.width, seed=seed, sweeps=iters,
                               tolerance=tolerance)

    state = model.init_mfvi(config, params, tokens, iw)
    lit = _LiteralPath(config, params, tokens, iw)
    res = _RescaledPath(config, params, tokens, iw)
    report.deviations["init/q_z:literal"] = prob_rel_dev(lit.q_z, val(state.q_z))
    report.deviations["init/q_z:rescaled"] = prob_rel_dev(res.q_z, val(state.q_z))

    for t in range(1, iters + 1):
        q_h = model.update_heads(config, params, state, iw)
        q_g = model.update_topics(config, params, state, iw)
        refreshed = state.with_posteriors(q_h=q_h, q_g=q_g)
        q_z = model.update_z(config, params, refreshed, iw)
        state = refreshed.with_posteriors(q_z=q_z, sweeps=t)
        lit.sweep()
        res.sweep()
        for name, path in (("literal", lit), ("rescaled", res)):
            report.deviations[f"sweep{t}/q_h:{name}"] = prob_rel_dev(path.q_h, val(state.q_h))
            report.deviations[f"sweep{t}/q_g:{name}"] = prob_rel_dev(path.q_g, val(state.q_g))
            report.deviations[f"sweep{t}/q_z:{name}"] = prob_rel_dev(path.q_z, val(state.q_z))

    out = val(model.mlm_logits(config, params, state))
    pred = _np_softmax(out)
    for name, path in (("literal", lit), ("rescaled", res)):
        path_out = _np_readout(config, params, path.q_z)
        report.deviations[f"final/mlm_logits:{name}"] = scale_rel_dev(path_out, out)
        report.deviations[f"final/predictive:{name}"] = prob_rel_dev(_np_softmax(path_out), pred)
    return report


def tau_cancellation_check(width: int, rank: int, seed: int, n_tokens: int = 8,
                           channels: int = 2, vocab: int = 17,
                           iw: InfoWeights | None = None) -> float:
    """Scale-relative deviation of production label logits from the literal
    temperature form (1/tau) * [tau-weighted energy gradients], same
    contraction order, after one refreshed sweep. Small means tau cancels.
    """
    config = PTConfig(width=width, rank=rank, channels=channels,
                      topics=2 * width, vocab_size=vocab, pos_bias=False)
    tau = config.tau
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, vocab, (n_tokens,)))
    if iw is None:
        iw = InfoWeights()

    state = model.init_mfvi(config, params, tokens, iw)
    q_h = model.update_heads(config, params, state, iw)
    q_g = model.update_topics(config, params, state, iw)
    refreshed = state.with_posteriors(q_h=q_h, q_g=q_g)
    prod = val(model.z_logits(config, params, refreshed, iw))

    u, v, b = (np.asarray(params[k]) for k in ("U", "V", "B"))
    q_z, q_hv, q_gv = val(state.q_z), val(q_h), val(q_g)
    s_tok = np.asarray(params["S"])[tokens]
    n_val, m_val = config.width, config.topics
    a_dep = np.matmul(q_z[None], v)
    a_head = np.matmul(q_z[None], u)
    dep = np.matmul(np.matmul(q_hv, a_dep), u.swapaxes(-1, -2)).sum(axis=0)
    head = np.matmul(np.matmul(q_hv.swapaxes(-1, -2), a_head), v.swapaxes(-1, -2)).sum(axis=0)
    lit = (iw.w_unary * (tau * s_tok)
           + iw.w_binary * ((tau * m_val) * (q_gv @ b))
           + (tau * n_val) * (iw.w_tern_dep * dep + iw.w_tern_head * head)) / tau
    return scale_rel_dev(lit, prod)


def dense_oracle_check(config: PTConfig, seed: int, n_tokens: int = 8) -> dict[str, float]:
    """Production low-rank contractions vs densely materialized T_c = U_c V_c^T.

    Returns scale-relative deviations for the attention logits and both
    ternary messages after one refreshed sweep.
    """
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (n_tokens,)))
    iw = InfoWeights()
    state = model.init_mfvi(config, params, tokens, iw)
    q_h = model.update_heads(config, params, state, iw)
    refreshed = state.with_posteriors(q_h=q_h, q_g=model.update_topics(config, params, state, iw))

    nz = config.width * val(state.q_z)
    t_dense = _dense_t(params)
    f_dense = np.einsum("ia,cab,jb->cij", nz, t_dense, nz) / config.rank
    f_prod = val(model.attention_logits(config, params, state))

    only = {"w_unary": 0.0, "w_binary": 0.0, "w_tern_dep": 0.0, "w_tern_head": 0.0,
            "w_attn": iw.w_attn, "w_topic": iw.w_topic}
    dep_prod = val(model.z_logits(config, params, refreshed,
                                  InfoWeights(**{**only, "w_tern_dep": 1.0})))
    head_prod = val(model.z_logits(config, params, refreshed,
                                   InfoWeights(**{**only, "w_tern_head": 1.0})))
    q_hv = val(q_h)
    dep_dense = np.einsum("cij,cab,jb->ia", q_hv, t_dense, nz)
    head_dense = np.einsum("cji,cba,jb->ia", q_hv, t_dense, nz)
    return {
        "attn_logits": scale_rel_dev(f_dense, f_prod),
        "tern_dep": scale_rel_dev(dep_dense, dep_prod),
        "tern_head": scale_rel_dev(head_dense, head_prod),
    }


# ---------------------------------------------------------------------------
# width ladders: coordinate norms and update magnitudes


PROBES = ("nz", "delta_nz", "attn_logits", "z_logits", "topic_logits", "out_logits")

# probes whose mean-abs must sit in the stability band at every recorded step;
# out_logits shrinks like 1/sqrt(N) at init by design and is reported only.
BAND_PROBES = ("nz", "attn_logits", "z_logits", "delta_nz")


@dataclass
class CoordReport:
    """mean-abs / variance of each probe per width per step (0 = at init)."""

    paradigm: str
    widths: list[int]
    steps: int
    mean_abs: dict[str, dict[int, list[float]]]
    variance: dict[str, dict[int, list[float]]]
    diverged: dict[int, bool]

    def ratio_table(self, probe: str, step: int) -> list[float]:
        """mean-abs ratios between consecutive widths at one step."""
        vals = [self.mean_abs[probe][w][step] for w in self.widths]
        out = []
        for a, b in zip(vals, vals[1:]):
            if a == 0.0 and b == 0.0:
                out.append(1.0)
            elif a == 0.0 or not math.isfinite(b):
                out.append(math.inf)
            else:
                out.append(b / a)
        return out

    def end_to_end_ratio(self, probe: str, step: int) -> float:
        lo = self.mean_abs[probe][self.widths[0]][step]
        hi = self.mean_abs[probe][self.widths[-1]][step]
        if lo == 0.0 and hi == 0.0:
            return 1.0
        if lo == 0.0 or not math.isfinite(hi):
            return math.inf
        return hi / lo

    def band_violations(self, lo: float = 1.0 / 3.0, hi: float = 3.0,
                        probes=BAND_PROBES, from_step: int = 0) -> list[str]:
        """Consecutive-width ratios outside [lo, hi]; empty means stable."""
        bad = []
        for probe in probes:
            first_step = from_step
            if probe == "delta_nz":
                first_step = max(from_step, 1)  # delta is 0 at init by definition
            for step in range(first_step, self.steps + 1):
                for k, ratio in enumerate(self.ratio_table(probe, step)):
                    if not (lo <= ratio <= hi):
                        bad.append(f"{probe}@step{step}:w{self.widths[k]}->w{self.widths[k+1]}={ratio:.3f}")
        return bad


def _probe_forward(config: PTConfig, params: dict, tokens: np.ndarray,
                   token_mask, iw: InfoWeights, iters: int):
    """One value-only forward capturing the probed tensors at the last sweep."""
    state = model.init_mfvi(config, params, tokens, iw, token_mask)
    f_last = z_last = g_last = None
    for _ in range(iters):
        f_last = model.attention_logits(config, params, state)
        q_h = model.update_heads(config, params, state, iw)
        g_logits = model.topic_logits(config, params, state, iw)
        q_g = model.update_topics(config, params, state, iw)
        refreshed = state.with_posteriors(q_h=q_h, q_g=q_g)
        z_last = model.z_logits(config, params, refreshed, iw)
        state = refreshed.with_posteriors(q_z=model.update_z(config, params, refreshed, iw))
        g_last = g_logits
    nz = config.width * val(state.q_z)
    out = val(model.mlm_logits(config, params, state))
    return {
        "nz": nz,
        "attn_logits": val(f_last),
        "z_logits": val(z_last),
        "topic_logits": val(g_last),
        "out_logits": out,
    }


def _diag_corpus(seq_len: int, seed: int, n_bytes: int = 1 << 15):
    return corpus_mod.encode_corpus(corpus_mod.synth_text(n_bytes, seed), seq_len)


def coord_check(scaler: WidthScaler, widths: list[int], hp: HPPoint,
                steps: int = 10, seed: int = 0, batch_size: int = 4,
                iters: int = 3, hidden_lr_scaling: str = "mup",
                output_lr_variant: str = "scaled") -> CoordReport:
    """Track probe magnitudes across a width ladder while training.

    Every width sees identical token batches, identical corruption, and the
    same base LR; only the geometry (and with it the grouped LRs) changes.
    hidden_lr_scaling="constant" is the deliberately mis-scaled control.
    """
    if sorted(widths) != list(widths):
        raise ConfigError("widths must be ascending")
    base = scaler.base
    seq_len = 32
    corpus = _diag_corpus(seq_len, seed)
    if corpus.vocab_size != base.vocab_size:
        raise ConfigError(f"scaler base vocab must be {corpus.vocab_size} for the byte corpus")

    if corpus.num_chunks < batch_size * (steps + 2):
        raise ConfigError("diagnostic corpus too small for the requested step count")
    root = SeededRng(seed)
    probe_chunks = corpus.ids[:batch_size]

    mean_abs: dict[str, dict[int, list[float]]] = {p: {} for p in PROBES}
    variance: dict[str, dict[int, list[float]]] = {p: {} for p in PROBES}
    diverged: dict[int, bool] = {}

    for width in widths:
        config = scaler.config_at(width).with_(pos_bias=False)
        params = model.ModelParams.init(config, SeededRng(seed).spawn("params"))
        opt = AdamW(model.tensor_shapes(config), width, hp.lr,
                    hidden_lr_scaling=hidden_lr_scaling,
                    output_lr_variant=output_lr_variant)
        for p in PROBES:
            mean_abs[p][width] = []
            variance[p][width] = []
        diverged[width] = False
        nz0 = None

        def record(step_dead: bool) -> None:
            nonlocal nz0
            if step_dead:
                for p in PROBES:
                    mean_abs[p][width].append(math.inf)
                    variance[p][width].append(math.inf)
                return
            probes = _probe_forward(config, params.tensors, probe_chunks, None,
                                    hp.weights, iters)
            if nz0 is None:
                nz0 = probes["nz"].copy()
            probes["delta_nz"] = probes["nz"] - nz0
            for p in PROBES:
                mean_abs[p][width].append(float(np.abs(probes[p]).mean()))
                variance[p][width].append(float(probes[p].var()))

        record(False)
        # width-independent batches and corruption: the same keyed streams
        # are spawned afresh for every width
        batches = ((corpus.ids[batch_size * (t + 1):batch_size * (t + 2)],
                    root.spawn(f"batch-mask/{t}")) for t in range(steps))
        for loss in train_steps(config, params, opt, hp, corpus, batches, 0.15,
                                "bert", iters):
            diverged[width] = not math.isfinite(loss)
            record(diverged[width])

    return CoordReport(paradigm=scaler.paradigm, widths=list(widths), steps=steps,
                       mean_abs=mean_abs, variance=variance, diverged=diverged)


@dataclass
class UpdateMagnitudeReport:
    """Size of the first optimizer step's effect on the label coordinates."""

    widths: list[int]
    delta: dict[int, float]
    hidden_lr_scaling: str

    @property
    def consecutive_ratios(self) -> list[float]:
        vals = [self.delta[w] for w in self.widths]
        return [b / a if a > 0 else math.inf for a, b in zip(vals, vals[1:])]

    @property
    def end_to_end_ratio(self) -> float:
        lo, hi = self.delta[self.widths[0]], self.delta[self.widths[-1]]
        return hi / lo if lo > 0 else math.inf


def update_magnitude_check(scaler: WidthScaler, widths: list[int], hp: HPPoint,
                           seed: int = 0, hidden_lr_scaling: str = "mup",
                           **kw) -> UpdateMagnitudeReport:
    """mean |Nz after one optimizer step - Nz at init| per width."""
    report = coord_check(scaler, widths, hp, steps=1, seed=seed,
                         hidden_lr_scaling=hidden_lr_scaling, **kw)
    delta = {w: report.mean_abs["delta_nz"][w][1] for w in widths}
    return UpdateMagnitudeReport(widths=list(widths), delta=delta,
                                 hidden_lr_scaling=hidden_lr_scaling)


# ---------------------------------------------------------------------------
# parametrization audit: empirical init variance per group


@dataclass
class InitAudit:
    """Pooled empirical init variance per parameter group at one width."""

    width: int
    pooled_variance: dict[str, float]      # group -> sample variance
    target_variance: dict[str, float]      # group -> sigma^2 from the table
    rel_error: dict[str, float]            # |emp - target| / target
    zero_names: list[str]                  # tensors required to be exactly 0
    zeros_exact: bool
    n_samples: dict[str, int]

    def within(self, tol: float = 0.15) -> bool:
        return self.zeros_exact and all(e <= tol for e in self.rel_error.values())


def init_variance_audit(config: PTConfig, seed: int = 0,
                        min_samples: int = 10_000) -> InitAudit:
    """Draw one model (re-drawing until every group pools >= min_samples
    coordinates) and compare per-group variance to the parametrization table.

    Zero-sigma tensors are excluded from pooling and asserted exactly zero.
    """
    from . import mup

    groups: dict[str, list[np.ndarray]] = {}
    zero_names: list[str] = []
    zeros_ok = True
    counts: dict[str, int] = {}
    replica = 0
    while True:
        params = model.ModelParams.init(config, SeededRng(seed).spawn(f"audit/{replica}"))
        for name, tensor in params.tensors.items():
            group = mup.classify_param(name)
            sigma = 0.0 if name in mup.ZERO_INIT_NAMES else mup.init_sigma(group, config.width)
            if sigma == 0.0:
                if replica == 0:
                    zero_names.append(name)
                    zeros_ok = zeros_ok and bool(np.all(tensor == 0.0))
                continue
            groups.setdefault(group, []).append(np.asarray(tensor).ravel())
        counts = {g: int(sum(a.size for a in arrs)) for g, arrs in groups.items()}
        if all(c >= min_samples for c in counts.values()):
            break
        replica += 1
        if replica > 4096:
            raise ConfigError("init audit cannot reach the sample floor")

    pooled, target, rel = {}, {}, {}
    for group, arrs in groups.items():
        flat = np.concatenate(arrs)
        sigma = mup.init_sigma(group, config.width)
        pooled[group] = float(flat.var())
        target[group] = sigma * sigma
        rel[group] = abs(pooled[group] - target[group]) / target[group]
    return InitAudit(width=config.width, pooled_variance=pooled,
                     target_variance=target, rel_error=rel,
                     zero_names=zero_names, zeros_exact=zeros_ok,
                     n_samples=counts)


# ---------------------------------------------------------------------------
# output logit variance at init


@dataclass
class VarianceScan:
    widths: list[int]
    variances: list[float]
    slope: float
    n_seeds: int
    control: bool


def logit_variance_scan(scaler: WidthScaler, widths: list[int], n_seeds: int = 20,
                        n_tokens: int = 16, iters: int = 2, seed0: int = 0,
                        control_sigma: float | None = None) -> VarianceScan:
    """Variance of init-time output logits vs width, with a log-log slope fit.

    control_sigma replaces the width-scaled output init with a constant sigma,
    flipping the predicted slope from -1 to +1.
    """
    base = scaler.base
    tok_rng = SeededRng(seed0).spawn("tokens")
    tokens = np.asarray(tok_rng.integers(0, base.vocab_size, (n_tokens,)))
    iw = InfoWeights()
    variances = []
    for width in widths:
        config = scaler.config_at(width).with_(pos_bias=False)
        samples = []
        for s in range(n_seeds):
            rng = SeededRng(seed0).spawn(f"w{width}/s{s}")
            params = model.ModelParams.init(config, rng)
            if control_sigma is not None:
                params.tensors["W_out"] = rng.spawn("const-wout").normal(
                    params.tensors["W_out"].shape, control_sigma)
            state = model.run_mfvi(config, params.tensors, tokens, iw, iters=iters)
            samples.append(val(model.mlm_logits(config, params.tensors, state)).ravel())
        variances.append(float(np.concatenate(samples).var()))
    slope = float(np.polyfit(np.log(widths), np.log(variances), 1)[0])
    return VarianceScan(widths=list(widths), variances=variances, slope=slope,
                        n_seeds=n_seeds, control=control_sigma is not None)


# ---------------------------------------------------------------------------
# literal energies and entropy


def energy_terms(config: PTConfig, params: dict, tokens: np.ndarray,
                 q_z: np.ndarray, q_h: np.ndarray, q_g: np.ndarray) -> dict[str, np.ndarray]:
    """Per-token literal energy magnitudes and tempered label entropy.

    e_unary[i]  = -tau        sum_a  Q_i(a) S[w_i, a]
    e_binary[i] = -tau M      sum_ag Q_i(a) Q^G_i(g) B[g, a]
    e_ternary[i]= -tau N sum_c sum_j Q_h[c,i,j] (Q_i U_c).(Q_j V_c)
    tau_H[i]    =  tau H(Q_i)

    The ternary bilinear uses the low-rank factors directly; it equals the
    dense form exactly in real arithmetic.
    """
    tau = config.tau
    s_tok = np.asarray(params["S"])[tokens]
    u, v, b = (np.asarray(params[k]) for k in ("U", "V", "B"))
    e_unary = -tau * np.einsum("ia,ia->i", q_z, s_tok)
    e_binary = -tau * config.topics * np.einsum("ia,ig,ga->i", q_z, q_g, b)
    qu = np.matmul(q_z[None], u)
    qv = np.matmul(q_z[None], v)
    bilinear = np.matmul(qu, qv.swapaxes(-1, -2))        # (C, n, n)
    e_ternary = -tau * config.width * np.einsum("cij,cij->i", q_h, bilinear)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(q_z > 0, q_z * np.log(q_z), 0.0)
    tau_h = -tau * plogp.sum(axis=-1)
    return {"e_unary": e_unary, "e_binary": e_binary, "e_ternary": e_ternary,
            "tau_entropy": tau_h}


def entropy_uniform_exact(config: PTConfig, n: int = 4) -> tuple[float, float]:
    """(tau*H per token at exactly uniform Q_z, tau*ln N). Must match closely."""
    q_z = np.full((n, config.width), 1.0 / config.width)
    with np.errstate(divide="ignore"):
        h = float(-(q_z[0] * np.log(q_z[0])).sum())
    return config.tau * h, config.tau * math.log(config.width)


@dataclass
class MagnitudeFit:
    """Mean per-token magnitude of one quantity along the width ladder."""

    quantity: str
    widths: list[int]
    magnitudes: list[float]
    slope: float
    normalized_slope: float | None = None   # entropy only: after / ln N

    def summary(self) -> str:
        norm = "" if self.normalized_slope is None else f" (per lnN: {self.normalized_slope:+.3f})"
        return f"{self.quantity}: slope {self.slope:+.3f}{norm}"


def energy_entropy_probe(scaler: WidthScaler, widths: list[int], n_seeds: int = 8,
                         n_tokens: int = 16, seed0: int = 0,
                         stage: str = "init", train_steps: int = 5,
                         hp: HPPoint | None = None) -> dict[str, MagnitudeFit]:
    """Fit log-log width slopes of the literal energy terms and tau*H.

    stage="init" evaluates the exactly uniform posterior state on random
    parameters (the regime the stage-wise magnitude analysis describes);
    stage="trained" instead takes the posteriors after a few optimizer steps
    and full inference, recorded for inspection rather than asserted.
    """
    if stage not in ("init", "trained"):
        raise ConfigError(f"stage must be 'init' or 'trained', got {stage!r}")
    base = scaler.base
    tok_rng = SeededRng(seed0).spawn("probe-tokens")
    tokens = np.asarray(tok_rng.integers(0, base.vocab_size, (n_tokens,)))
    acc: dict[str, list[float]] = {k: [] for k in ("e_unary", "e_binary", "e_ternary", "tau_entropy")}
    for width in widths:
        config = scaler.config_at(width).with_(pos_bias=False)
        sums = {k: 0.0 for k in acc}
        for s in range(n_seeds):
            rng = SeededRng(seed0).spawn(f"w{width}/s{s}")
            params = model.ModelParams.init(config, rng)
            if stage == "init":
                q_z, q_h, q_g = model.uniform_posteriors(config, n_tokens)
            else:
                q_z, q_h, q_g = _trained_posteriors(config, params, tokens,
                                                    hp or HPPoint(), train_steps, s)
            terms = energy_terms(config, params.tensors, tokens, q_z, q_h, q_g)
            for k in sums:
                sums[k] += float(np.abs(terms[k]).mean())
        for k in acc:
            acc[k].append(sums[k] / n_seeds)

    logw = np.log(widths)
    fits = {}
    for k, values in acc.items():
        slope = float(np.polyfit(logw, np.log(values), 1)[0])
        normalized = None
        if k == "tau_entropy":
            normalized = float(np.polyfit(logw, np.log(np.asarray(values) / np.log(widths)), 1)[0])
        fits[k] = MagnitudeFit(quantity=k, widths=list(widths), magnitudes=values,
                               slope=slope, normalized_slope=normalized)
    return fits


def _trained_posteriors(config: PTConfig, params: model.ModelParams,
                        tokens: np.ndarray, hp: HPPoint, steps: int, seed: int):
    corpus = _diag_corpus(32, seed, n_bytes=1 << 13)
    opt = AdamW(model.tensor_shapes(config), config.width, hp.lr)
    root = SeededRng(seed)
    batches = ((corpus.ids[t % corpus.num_chunks][None], root.spawn(f"m{t}"))
               for t in range(steps))
    for _ in train_steps(config, params, opt, hp, corpus, batches, 0.15, "bert", 2):
        pass
    state = model.run_mfvi(config, params.tensors,
                           tokens % config.vocab_size, hp.weights, iters=2)
    return val(state.q_z), val(state.q_h), val(state.q_g)


# ---------------------------------------------------------------------------
# artifact writers


def write_coord_csv(report: CoordReport, path) -> None:
    lines = [COORD_CSV_HEADER]
    for probe in PROBES:
        for width in report.widths:
            for step in range(report.steps + 1):
                m = report.mean_abs[probe][width][step]
                v = report.variance[probe][width][step]
                lines.append(f"{width},{probe},{step},{m!r},{v!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def coord_summary_json(report: CoordReport, lo: float = 1.0 / 3.0, hi: float = 3.0) -> str:
    violations = report.band_violations(lo, hi)
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "paradigm": report.paradigm,
        "widths": report.widths,
        "steps": report.steps,
        "band": [lo, hi],
        "band_probes": list(BAND_PROBES),
        "violations": violations,
        "stable": not violations,
        "diverged": {str(k): v for k, v in report.diverged.items()},
    })
