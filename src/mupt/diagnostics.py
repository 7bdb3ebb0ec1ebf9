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
energy/entropy magnitudes against their predicted power laws. The widths of
the coordinate check train in parallel on the usable CPUs, with a report
identical to a serial ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import corpus as corpus_mod
from . import model
from .autodiff import _softmax_np
from .config import HPPoint, InfoWeights, PTConfig
from .errors import ConfigError
from .mup import AdamW, WidthScaler
from .parallel import map_jobs
from .rng import SeededRng
from .training import TrainSettings, train_steps
from .util import canonical_json, write_text

__all__ = [
    "DIAG_WEIGHTS", "DIAG_HP", "EXACT_TOL", "INIT_VARIANCE_TOL",
    "prob_rel_dev", "scale_rel_dev",
    "EquivalenceReport", "equivalence_check", "tau_cancellation_check",
    "dense_oracle_check",
    "COORD_BAND", "CoordReport", "coord_check",
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

# the largest relative deviation at which two computations of one quantity are
# the same: the inference paths, the temperature forms, the entropy closed form
EXACT_TOL = 1e-12


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
    x = config.width * q_z
    ms = np.mean(x * x, axis=-1, keepdims=True)
    feature = x / np.sqrt(ms + config.rms_eps) * np.asarray(params["gamma"])
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


def equivalence_check(config: PTConfig, seed: int, iters: int, n_tokens: int = 8,
                      iw: InfoWeights | None = None,
                      tolerance: float = EXACT_TOL) -> EquivalenceReport:
    """Run all three paths on one random model and compare every sweep.

    Raises nothing on deviation; the report carries pass/fail so callers can
    decide (the CLI exits 2, the acceptance test asserts).
    """
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (n_tokens,)))
    if iw is None:
        iw = InfoWeights()

    report = EquivalenceReport(width=config.width, seed=seed, sweeps=iters,
                               tolerance=tolerance)

    state = model.init_mfvi(config, params, tokens[None], iw)
    lit = _LiteralPath(config, params, tokens, iw)
    res = _RescaledPath(config, params, tokens, iw)
    report.deviations["init/q_z:literal"] = prob_rel_dev(lit.q_z, state.q_z[0])
    report.deviations["init/q_z:rescaled"] = prob_rel_dev(res.q_z, state.q_z[0])

    for t in range(1, iters + 1):
        state = model.sweep(config, params, state, iw)[0]
        lit.sweep()
        res.sweep()
        for name, path in (("literal", lit), ("rescaled", res)):
            report.deviations[f"sweep{t}/q_h:{name}"] = prob_rel_dev(path.q_h, state.q_h[0])
            report.deviations[f"sweep{t}/q_g:{name}"] = prob_rel_dev(path.q_g, state.q_g[0])
            report.deviations[f"sweep{t}/q_z:{name}"] = prob_rel_dev(path.q_z, state.q_z[0])

    out = model.mlm_logits(config, params, state)[0]
    pred = _np_softmax(out)
    for name, path in (("literal", lit), ("rescaled", res)):
        path_out = _np_readout(config, params, path.q_z)
        report.deviations[f"final/mlm_logits:{name}"] = scale_rel_dev(path_out, out)
        report.deviations[f"final/predictive:{name}"] = prob_rel_dev(_np_softmax(path_out), pred)
    return report


def tau_cancellation_check(width: int, rank: int, seed: int) -> float:
    """Scale-relative deviation of production label logits from the literal
    temperature form (1/tau) * [tau-weighted energy gradients], same
    contraction order, after one refreshed sweep, on 8 tokens of a 2-channel,
    17-token model at all-ones weights. Small means tau cancels.
    """
    config = PTConfig(width=width, rank=rank, channels=2,
                      topics=2 * width, vocab_size=17, pos_bias=False)
    tau = config.tau
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (8,)))
    iw = InfoWeights()

    state = model.init_mfvi(config, params, tokens[None], iw)
    swept, _, _, prod = model.sweep(config, params, state, iw)

    u, v, b = (np.asarray(params[k]) for k in ("U", "V", "B"))
    q_z, q_hv, q_gv = state.q_z[0], swept.q_h[0], swept.q_g[0]
    s_tok = np.asarray(params["S"])[tokens]
    n_val, m_val = config.width, config.topics
    a_dep = np.matmul(q_z[None], v)
    a_head = np.matmul(q_z[None], u)
    dep = np.matmul(np.matmul(q_hv, a_dep), u.swapaxes(-1, -2)).sum(axis=0)
    head = np.matmul(np.matmul(q_hv.swapaxes(-1, -2), a_head), v.swapaxes(-1, -2)).sum(axis=0)
    lit = (iw.w_unary * (tau * s_tok)
           + iw.w_binary * ((tau * m_val) * (q_gv @ b))
           + (tau * n_val) * (iw.w_tern_dep * dep + iw.w_tern_head * head)) / tau
    return scale_rel_dev(lit, prod[0])


def dense_oracle_check(config: PTConfig, seed: int) -> dict[str, float]:
    """Production low-rank contractions vs densely materialized T_c = U_c V_c^T.

    Returns scale-relative deviations for the attention logits and both
    ternary messages after one refreshed sweep over 8 tokens.
    """
    rng = SeededRng(seed)
    params = model.ModelParams.init(config, rng.spawn("params")).tensors
    tokens = np.asarray(rng.spawn("tokens").integers(0, config.vocab_size, (8,)))
    iw = InfoWeights()
    state = model.init_mfvi(config, params, tokens[None], iw)
    swept, f_prod, _, _ = model.sweep(config, params, state, iw)

    nz = config.width * state.q_z[0]
    t_dense = _dense_t(params)
    f_dense = np.einsum("ia,cab,jb->cij", nz, t_dense, nz) / config.rank

    only = {"w_unary": 0.0, "w_binary": 0.0, "w_tern_dep": 0.0, "w_tern_head": 0.0,
            "w_attn": iw.w_attn, "w_topic": iw.w_topic}
    # w_attn and w_topic as in iw, so these sweeps refresh Q_h and Q_g as above
    dep_prod = model.sweep(config, params, state,
                           InfoWeights(**{**only, "w_tern_dep": 1.0}))[3][0]
    head_prod = model.sweep(config, params, state,
                            InfoWeights(**{**only, "w_tern_head": 1.0}))[3][0]
    q_hv = swept.q_h[0]
    dep_dense = np.einsum("cij,cab,jb->ia", q_hv, t_dense, nz)
    head_dense = np.einsum("cji,cba,jb->ia", q_hv, t_dense, nz)
    return {
        "attn_logits": scale_rel_dev(f_dense, f_prod[0]),
        "tern_dep": scale_rel_dev(dep_dense, dep_prod),
        "tern_head": scale_rel_dev(head_dense, head_prod),
    }


# ---------------------------------------------------------------------------
# width ladders: coordinate norms and update magnitudes


PROBES = ("nz", "delta_nz", "attn_logits", "z_logits", "topic_logits", "out_logits")

# probes whose mean-abs must sit in the stability band at every recorded step;
# out_logits shrinks like 1/sqrt(N) at init by design and is reported only.
BAND_PROBES = ("nz", "attn_logits", "z_logits", "delta_nz")
# the stability band [lo, hi] for mean-abs ratios between consecutive widths
COORD_BAND = (1.0 / 3.0, 3.0)


def _ratio(a: float, b: float) -> float:
    """b / a of two mean-abs values: 0/0 is 1, and a zero a or a non-finite b
    is inf."""
    if a == 0.0 and b == 0.0:
        return 1.0
    if a == 0.0 or not math.isfinite(b):
        return math.inf
    return b / a


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
        return [_ratio(a, b) for a, b in zip(vals, vals[1:])]

    def end_to_end_ratio(self, probe: str, step: int) -> float:
        vals = self.mean_abs[probe]
        return _ratio(vals[self.widths[0]][step], vals[self.widths[-1]][step])

    def band_violations(self) -> list[str]:
        """Consecutive-width ratios outside COORD_BAND; empty means stable."""
        (lo, hi), bad = COORD_BAND, []
        for probe in BAND_PROBES:
            first_step = 1 if probe == "delta_nz" else 0  # delta is 0 at init by definition
            for step in range(first_step, self.steps + 1):
                for k, ratio in enumerate(self.ratio_table(probe, step)):
                    if not (lo <= ratio <= hi):
                        bad.append(f"{probe}@step{step}:w{self.widths[k]}->w{self.widths[k+1]}={ratio:.3f}")
        return bad


def _probe_forward(config: PTConfig, params: dict, tokens: np.ndarray,
                   iw: InfoWeights, iters: int):
    """One value-only forward capturing the probed tensors at the last sweep."""
    state = model.init_mfvi(config, params, tokens, iw)
    logits = (None, None, None)
    for _ in range(iters):
        state, *logits = model.sweep(config, params, state, iw)
    f_last, g_last, z_last = logits
    return {
        "nz": config.width * state.q_z,
        "attn_logits": f_last,
        "z_logits": z_last,
        "topic_logits": g_last,
        "out_logits": model.mlm_logits(config, params, state),
    }


def _check_ladder(widths: list[int]) -> None:
    """A width-scaling fit needs at least two widths, none of them repeated."""
    if len(widths) < 2:
        raise ConfigError(f"a width ladder needs at least 2 widths, got {list(widths)}")
    if len(set(widths)) != len(widths):
        raise ConfigError(f"a width ladder must not repeat a width, got {list(widths)}")


def _check_seeds(n_seeds: int) -> None:
    """A mean over seeds needs at least one seed."""
    if n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {n_seeds}")


def _coord_width(config: PTConfig, hp: HPPoint, corpus: corpus_mod.Corpus, seed: int,
                 steps: int, batch_size: int, iters: int,
                 hidden_lr_scaling: str) -> tuple[dict, dict, bool]:
    """Train one width of the ladder: (mean_abs, variance, diverged), each
    probe's list holding one value per recorded step."""
    root = SeededRng(seed)
    probe_chunks = corpus.ids[:batch_size]
    params = model.ModelParams.init(config, root.spawn("params"))
    opt = AdamW(model.tensor_shapes(config), config.width, hp.lr,
                hidden_lr_scaling=hidden_lr_scaling)
    mean_abs = {p: [] for p in PROBES}
    variance = {p: [] for p in PROBES}
    nz0 = None

    def record(step_dead: bool) -> None:
        nonlocal nz0
        if step_dead:
            for p in PROBES:
                mean_abs[p].append(math.inf)
                variance[p].append(math.inf)
            return
        probes = _probe_forward(config, params.tensors, probe_chunks, hp.weights, iters)
        if nz0 is None:
            nz0 = probes["nz"].copy()
        probes["delta_nz"] = probes["nz"] - nz0
        for p in PROBES:
            mean_abs[p].append(float(np.abs(probes[p]).mean()))
            variance[p].append(float(probes[p].var()))

    record(False)
    # width-independent batches and corruption: the same keyed streams are
    # spawned afresh for every width
    batches = ((corpus.ids[batch_size * (t + 1):batch_size * (t + 2)],
                root.spawn(f"batch-mask/{t}")) for t in range(steps))
    diverged = False
    for loss in train_steps(config, params, opt, hp, corpus, batches,
                            TrainSettings.mask_ratio, iters):
        diverged = not math.isfinite(loss)
        record(diverged)
    return mean_abs, variance, diverged


def coord_check(scaler: WidthScaler, widths: list[int], hp: HPPoint,
                steps: int = 10, seed: int = 0, batch_size: int = 4,
                iters: int = 3, hidden_lr_scaling: str = "mup") -> CoordReport:
    """Track probe magnitudes across a width ladder while training.

    Every width sees identical token batches, identical corruption, and the
    same base LR; only the geometry (and with it the grouped LRs) changes.
    hidden_lr_scaling="constant" is the deliberately mis-scaled control.

    Every width's geometry is built before any width trains, so a width the
    scaler refuses fails at once. The widths then train in parallel on the
    usable CPUs (parallel.map_jobs), widest first, each whole in one process,
    so the report is identical to a serial ladder; `taskset -c 0` makes the
    ladder serial.
    """
    _check_ladder(widths)
    if sorted(widths) != list(widths):
        raise ConfigError("widths must be ascending")
    if steps < 0 or batch_size < 1 or iters < 1:
        raise ConfigError(f"coord_check needs steps >= 0, batch_size >= 1 and iters >= 1, "
                          f"got {steps}, {batch_size} and {iters}")
    seq_len = 32
    corpus = corpus_mod.encode_corpus(corpus_mod.synth_text(1 << 15, seed), seq_len)
    if corpus.vocab_size != scaler.base.vocab_size:
        raise ConfigError(f"scaler base vocab must be {corpus.vocab_size} for the byte corpus")
    if corpus.num_chunks < batch_size * (steps + 2):
        raise ConfigError("diagnostic corpus too small for the requested step count")
    widest_first = {w: scaler.config_at(w) for w in reversed(widths)}
    done = dict(zip(widest_first, map_jobs(_coord_width, [
        (f"width {w}", (config, hp, corpus, seed, steps, batch_size, iters, hidden_lr_scaling))
        for w, config in widest_first.items()])))
    return CoordReport(paradigm=scaler.paradigm, widths=list(widths), steps=steps,
                       mean_abs={p: {w: done[w][0][p] for w in widths} for p in PROBES},
                       variance={p: {w: done[w][1][p] for w in widths} for p in PROBES},
                       diverged={w: done[w][2] for w in widths})


# ---------------------------------------------------------------------------
# parametrization audit: empirical init variance per group

# the largest relative error of a group's pooled init variance against its table
INIT_VARIANCE_TOL = 0.15


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

    def within(self, tol: float = INIT_VARIANCE_TOL) -> bool:
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
            if mup.tensor_sigma(name, config.width) == 0.0:
                if replica == 0:
                    zero_names.append(name)
                    zeros_ok = zeros_ok and bool(np.all(tensor == 0.0))
                continue
            groups.setdefault(mup.classify_param(name), []).append(np.asarray(tensor).ravel())
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
    _check_seeds(n_seeds)
    _check_ladder(widths)
    base = scaler.base
    tok_rng = SeededRng(seed0).spawn("tokens")
    tokens = np.asarray(tok_rng.integers(0, base.vocab_size, (n_tokens,)))
    iw = InfoWeights()
    variances = []
    for width in widths:
        config = scaler.config_at(width)
        samples = []
        for s in range(n_seeds):
            rng = SeededRng(seed0).spawn(f"w{width}/s{s}")
            params = model.ModelParams.init(config, rng)
            if control_sigma is not None:
                params.tensors["W_out"] = rng.spawn("const-wout").normal(
                    params.tensors["W_out"].shape, control_sigma)
            state = model.run_mfvi(config, params.tensors, tokens[None], iw, iters=iters)
            samples.append(model.mlm_logits(config, params.tensors, state).ravel())
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


def energy_entropy_probe(scaler: WidthScaler, widths: list[int], n_seeds: int = 32,
                         n_tokens: int = 16, seed0: int = 0) -> dict[str, MagnitudeFit]:
    """Fit log-log width slopes of the literal energy terms and tau*H at init.

    Each seed's random parameters are evaluated at the exactly uniform
    posterior state, the regime the stage-wise magnitude analysis describes.
    """
    _check_seeds(n_seeds)
    _check_ladder(widths)
    base = scaler.base
    tok_rng = SeededRng(seed0).spawn("probe-tokens")
    tokens = np.asarray(tok_rng.integers(0, base.vocab_size, (n_tokens,)))
    acc: dict[str, list[float]] = {k: [] for k in ("e_unary", "e_binary", "e_ternary", "tau_entropy")}
    for width in widths:
        config = scaler.config_at(width)
        sums = {k: 0.0 for k in acc}
        for s in range(n_seeds):
            rng = SeededRng(seed0).spawn(f"w{width}/s{s}")
            params = model.ModelParams.init(config, rng)
            q_z, q_h, q_g = model.uniform_posteriors(config, n_tokens)
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
    write_text(path, "\n".join(lines))


def coord_summary_json(report: CoordReport) -> str:
    violations = report.band_violations()
    return canonical_json({
        "schema_version": SCHEMA_VERSION,
        "paradigm": report.paradigm,
        "widths": report.widths,
        "steps": report.steps,
        "band": list(COORD_BAND),
        "band_probes": list(BAND_PROBES),
        "violations": violations,
        "stable": not violations,
        "diverged": {str(k): v for k, v in report.diverged.items()},
    })
