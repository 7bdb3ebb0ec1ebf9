"""Probabilistic transformer: a CRF over token labels, head links, and topics.

Each position i carries a label variable Z_i with N values, one head-selection
variable H_i^(c) per channel c pointing at another position, and a topic
variable G_i with M values. Inference is synchronous mean-field, and `sweep`
is the one place a sweep is written: it recomputes head and topic posteriors
from the current label posteriors, then the label posteriors from those, and
hands back the three logit tensors it passed through softmax. `run_mfvi` is
init_mfvi plus `iters` sweeps; the diagnostics step `sweep` themselves.

All update formulas below are the temperature-cancelled closed forms, written
in terms of the quasi-distributions

    Nz = N * Q_z        (rows mean exactly 1)
    Ng = M * Q_g

so every message stays width-stable by construction:

    head logits      F_c[i,j] = (1/r) (Nz[i] U_c) . (Nz[j] V_c)  (+ position bias)
    topic logits     (M/N) Nz[i] . B[g,:]
    label logits     w_u S[w_i] + w_b Ng[i] B
                     + w_dep  sum_c sum_j Q_h[c,i,j] (U_c (V_c^T Nz[j]))
                     + w_head sum_c sum_j Q_h[c,j,i] (V_c (U_c^T Nz[j]))

The low-rank factors U_c V_c^T are never materialized here; dense-product
oracles live with the diagnostics. U and V are stored as (C, N, r) and used
stacked as (N, C*r), column block c*r:(c+1)*r holding channel c, so that
`low_rank_products` forms Nz U and Nz V of every channel as one
(B*n, N) @ (N, C*r) GEMM each, once per sweep, for both the head logits and
the label messages. The ternary messages apply Q_h per channel in r
dimensions and sum over channels inside a single (B*n, C*r) @ (C*r, N) GEMM
against the stacked factor; no (B, C, n, N) tensor is formed.

Shapes: tokens and token_mask are (B, n), the posteriors (B, n, N) /
(B, C, n, n) / (B, n, M); a single sequence is a batch of one. token_mask marks
real positions; masked-out positions neither attend nor get attended to.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Union

import numpy as np

from . import autodiff as ad
from . import mup
from .autodiff import Var
from .config import PTConfig, InfoWeights
from .errors import ConfigError
from .rng import SeededRng, gaussian_tensor

__all__ = [
    "ModelParams", "MFVIState", "tensor_shapes", "tensor_order", "param_count",
    "position_buckets", "init_mfvi", "low_rank_products",
    "update_heads", "update_topics", "update_z", "sweep", "run_mfvi", "quasi",
    "mlm_logits", "masked_ce_loss", "uniform_posteriors",
]

ParamsLike = Mapping[str, Union[Var, np.ndarray]]


def tensor_order(config: PTConfig) -> tuple[str, ...]:
    """Canonical tensor ordering used by init, checkpoints, and reports."""
    names = ["S", "U", "V", "B", "gamma", "W_out", "b_out"]
    if config.pos_bias:
        names.append("P_rel")
    return tuple(names)


def tensor_shapes(config: PTConfig) -> dict[str, tuple[int, ...]]:
    n, r, c, m, v = (config.width, config.rank, config.channels,
                     config.topics, config.vocab_size)
    shapes: dict[str, tuple[int, ...]] = {
        "S": (v, n),
        "U": (c, n, r),
        "V": (c, n, r),
        "B": (m, n),
        "gamma": (n,),
        "W_out": (n, v),
        "b_out": (v,),
    }
    if config.pos_bias:
        shapes["P_rel"] = (c, config.pos_buckets)
    return {k: shapes[k] for k in tensor_order(config)}


def param_count(config: PTConfig) -> int:
    return sum(int(np.prod(s)) for s in tensor_shapes(config).values())


@dataclass
class ModelParams:
    """All trainable tensors of one model plus its geometry."""

    config: PTConfig
    tensors: dict[str, np.ndarray] = field(repr=False)

    @classmethod
    def init(cls, config: PTConfig, rng: SeededRng, dtype=np.float64) -> "ModelParams":
        """Group-scaled Gaussian init; the position table and biases start 0.

        Each tensor is drawn from its own child stream, so adding or removing
        a tensor never shifts any other tensor's draw.
        """
        tensors = {
            name: gaussian_tensor(rng.spawn(f"init/{name}"), shape,
                                  mup.tensor_sigma(name, config.width)).astype(dtype, copy=False)
            for name, shape in tensor_shapes(config).items()}
        return cls(config=config, tensors=tensors)

    @property
    def n_params(self) -> int:
        return sum(t.size for t in self.tensors.values())

    def as_vars(self) -> dict[str, Var]:
        """Leaf Vars sharing this instance's storage, for one backward pass.

        A forward on `tensors` themselves builds no tape."""
        return {k: Var(v) for k, v in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


@dataclass
class MFVIState:
    """Posteriors after some number of sweeps, plus what produced them.

    q_z: (B, n, N) labels; q_h: (B, C, n, n) head selections, row [b, c, i, :]
    is position i's distribution over heads j != i; q_g: (B, n, M) topics.
    tokens and token_mask are (B, n).
    """

    tokens: np.ndarray
    q_z: Union[Var, np.ndarray]
    q_h: Union[Var, np.ndarray]
    q_g: Union[Var, np.ndarray]
    token_mask: np.ndarray | None = None
    sweeps: int = 0


def position_buckets(n: int, n_buckets: int, clip: int) -> np.ndarray:
    """Bucket index of the clipped signed offset i - j, shape (n, n).

    Offsets are clipped to [-clip, clip]; negatives fill buckets 0..clip-1,
    positives fill clip..2clip-1. The diagonal never reaches the logits (it is
    masked) and is assigned bucket 0 arbitrarily.
    """
    if n_buckets != 2 * clip:
        raise ConfigError(f"pos_buckets ({n_buckets}) must equal 2 * pos_clip ({2 * clip})")
    idx = np.arange(n)
    d = np.clip(idx[:, None] - idx[None, :], -clip, clip)
    buckets = np.where(d < 0, d + clip, clip - 1 + d)
    buckets[d == 0] = 0
    return buckets.astype(np.int64)


def _attn_mask(n: int, token_mask: np.ndarray | None) -> np.ndarray:
    """Boolean support of the head distributions: j != i and j is real."""
    off_diag = ~np.eye(n, dtype=bool)[None, None]
    if token_mask is None:
        return off_diag
    return off_diag & np.asarray(token_mask, dtype=bool)[:, None, None, :]


def _valid_rows(token_mask: np.ndarray | None):
    """Multiplier zeroing head rows of padding positions, or None."""
    if token_mask is None:
        return None
    return np.asarray(token_mask, dtype=np.float64)[:, None, :, None]


def quasi(q, count: int):
    """Quasi-distribution count * q; rows then average to exactly 1."""
    return ad.mul(q, float(count))


def init_mfvi(config: PTConfig, params: ParamsLike, tokens, iw: InfoWeights,
              token_mask: np.ndarray | None = None) -> MFVIState:
    """Sweep-0 posteriors: unary-only labels, uniform heads and topics."""
    tokens = np.asarray(tokens)
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ConfigError("tokens must be integers")
    if tokens.ndim != 2:
        raise ConfigError(f"tokens must have shape (batch, n), got ndim {tokens.ndim}")
    batch, n = tokens.shape
    if n < 2:
        raise ConfigError("head selection undefined for single-token sequence")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise ConfigError("token id out of range")
    if token_mask is not None and np.shape(token_mask) != tokens.shape:
        raise ConfigError(f"token_mask must have the tokens' shape {tokens.shape}, "
                          f"got {np.shape(token_mask)}")

    s_rows = ad.take(params["S"], tokens)
    q_z = ad.softmax_rows(ad.mul(s_rows, iw.w_unary))

    support = _attn_mask(n, token_mask)
    counts = support.sum(axis=-1, keepdims=True)
    rows_valid = _valid_rows(token_mask)
    uniform_h = np.where(support, 1.0, 0.0) / np.maximum(counts, 1)
    if rows_valid is not None:
        # a real position's head candidates are the other real positions of its row
        if (rows_valid.sum(axis=2) == 1).any():
            raise ConfigError("degenerate distribution support: a position has no head candidates")
        uniform_h = uniform_h * rows_valid
    q_h = np.broadcast_to(uniform_h, (batch, config.channels, n, n)).copy()

    q_g = np.full((batch, n, config.topics), 1.0 / config.topics, dtype=np.float64)
    return MFVIState(tokens=tokens, q_z=q_z, q_h=q_h, q_g=q_g,
                     token_mask=token_mask, sweeps=0)


def low_rank_products(config: PTConfig, params: ParamsLike, state: MFVIState):
    """(Nz U, Nz V, U_s, V_s): the stacked factors U_s, V_s of shape (N, C*r),
    column c*r + k holding U[c][:, k] (and V), and Nz of `state` flattened to
    (B*n, N) times each of them, (B*n, C*r)."""
    width, stacked = config.width, config.channels * config.rank
    u_s = ad.reshape(ad.transpose(params["U"], (1, 0, 2)), (width, stacked))
    v_s = ad.reshape(ad.transpose(params["V"], (1, 0, 2)), (width, stacked))
    nz = ad.reshape(quasi(state.q_z, width), (-1, width))
    return ad.matmul(nz, u_s), ad.matmul(nz, v_s), u_s, v_s


def _per_channel(config: PTConfig, x, batch: int):
    """(B*n, C*r) -> the (B, C, n, r) view with channels ahead of positions."""
    x = ad.reshape(x, (batch, -1, config.channels, config.rank))
    return ad.transpose(x, (0, 2, 1, 3))


def _channel_sum(config: PTConfig, per_channel, factor_t):
    """sum_c per_channel[:, c] @ factor_c^T as one GEMM: (B, C, n, r) against
    the transposed stacked factor (C*r, N) gives (B*n, N)."""
    stacked = ad.reshape(ad.transpose(per_channel, (0, 2, 1, 3)),
                         (-1, config.channels * config.rank))
    return ad.matmul(stacked, factor_t)


def update_heads(config: PTConfig, params: ParamsLike, state: MFVIState,
                 iw: InfoWeights, products):
    """(F, Q_h): the bilinear head logits of all channels, (B, C, n, n), and
    the softmax of w_attn * F over j != i, exact zeros off-support.

    F[b, c, i, j] = (1/r) (Nz[i] U_c) . (Nz[j] V_c), plus the learned
    relative-position bias when the geometry enables it. `products` is
    `low_rank_products` of this state.
    """
    batch, n = state.tokens.shape
    nz_u, nz_v = products[:2]
    q = _per_channel(config, nz_u, batch)
    k = _per_channel(config, nz_v, batch)
    f = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / config.rank)
    if config.pos_bias:
        buckets = position_buckets(n, config.pos_buckets, config.pos_clip)
        prel = ad.take(ad.swapaxes(params["P_rel"], 0, 1), buckets)
        f = ad.add(f, ad.transpose(prel, (2, 0, 1)))
    q_h = ad.softmax_rows(ad.mul(f, iw.w_attn), _attn_mask(n, state.token_mask))
    rows_valid = _valid_rows(state.token_mask)
    if rows_valid is not None:
        q_h = ad.mul(q_h, rows_valid)
    return f, q_h


def update_topics(config: PTConfig, params: ParamsLike, state: MFVIState,
                  iw: InfoWeights):
    """(topic logits, Q_g): w_topic * (M/N) * Nz B^T, (B, n, M), and its softmax."""
    nz = ad.reshape(quasi(state.q_z, config.width), (-1, config.width))
    logits = ad.mul(ad.matmul(nz, ad.swapaxes(params["B"], 0, 1)),
                    iw.w_topic * (config.topics / config.width))
    logits = ad.reshape(logits, state.tokens.shape + (config.topics,))
    return logits, ad.softmax_rows(logits)


def update_z(config: PTConfig, params: ParamsLike, state: MFVIState,
             iw: InfoWeights, products):
    """(label logits, Q_z): unary + topic message + both ternary messages,
    (B, n, N), and their softmax.

    The head posteriors in `state` weight messages in both directions: as the
    dependent (row i of Q_h selects heads j, low-rank direction U_c V_c^T) and
    as somebody's head (column i of Q_h, direction V_c U_c^T). `products` is
    `low_rank_products` of the Q_z the messages are sent from; Q_h is applied
    per channel in r dimensions and the channel sum happens inside the GEMM
    against the stacked factor.
    """
    batch = state.tokens.shape[0]
    nz_u, nz_v, u_s, v_s = products
    q_h = state.q_h
    dep = _channel_sum(config, ad.matmul(q_h, _per_channel(config, nz_v, batch)),
                       ad.swapaxes(u_s, 0, 1))
    head = _channel_sum(config, ad.matmul(ad.swapaxes(q_h, -1, -2),
                                          _per_channel(config, nz_u, batch)),
                        ad.swapaxes(v_s, 0, 1))

    s_rows = ad.take(params["S"], state.tokens.reshape(-1))
    ng = ad.reshape(quasi(state.q_g, config.topics), (-1, config.topics))
    binary = ad.matmul(ng, params["B"])

    logits = ad.add(
        ad.add(ad.mul(s_rows, iw.w_unary), ad.mul(binary, iw.w_binary)),
        ad.add(ad.mul(dep, iw.w_tern_dep), ad.mul(head, iw.w_tern_head)),
    )
    logits = ad.reshape(logits, state.tokens.shape + (config.width,))
    return logits, ad.softmax_rows(logits)


def sweep(config: PTConfig, params: ParamsLike, state: MFVIState, iw: InfoWeights):
    """One synchronous sweep: (next state, F, topic logits, label logits).

    Q_h and Q_g come from the incoming Q_z, then Q_z from the refreshed Q_h,
    Q_g and the incoming Q_z's messages; Nz U and Nz V are formed once, by
    `low_rank_products`, and shared by both. The topic and label logits are
    exactly what the sweep passed through softmax; F is the head softmax's
    input before the w_attn factor.
    """
    products = low_rank_products(config, params, state)
    f, q_h = update_heads(config, params, state, iw, products)
    g, q_g = update_topics(config, params, state, iw)
    refreshed = replace(state, q_h=q_h, q_g=q_g)
    z, q_z = update_z(config, params, refreshed, iw, products)
    return replace(refreshed, q_z=q_z, sweeps=state.sweeps + 1), f, g, z


def run_mfvi(config: PTConfig, params: ParamsLike, tokens, iw: InfoWeights,
             token_mask: np.ndarray | None = None, *, iters: int) -> MFVIState:
    """Full inference: init, then `iters` synchronous sweeps."""
    if iters < 0:
        raise ConfigError(f"iters must be >= 0, got {iters}")
    state = init_mfvi(config, params, tokens, iw, token_mask)
    for _ in range(iters):
        state = sweep(config, params, state, iw)[0]
    return state


def mlm_logits(config: PTConfig, params: ParamsLike, state: MFVIState):
    """Vocabulary logits: rms-normalized quasi-labels through the output map."""
    nz = quasi(state.q_z, config.width)
    feature = ad.rms_norm(nz, params["gamma"], config.rms_eps)
    return ad.add(ad.matmul(feature, params["W_out"]), params["b_out"])


def masked_ce_loss(logits, targets, positions):
    """Mean cross-entropy over the selected positions.

    targets holds the original token at every selected position (values at
    unselected positions are ignored); positions is boolean with at least one
    True entry.
    """
    positions = np.asarray(positions, dtype=bool)
    count = int(positions.sum())
    if count == 0:
        raise ConfigError("masked_ce_loss: no positions selected")
    targets = np.asarray(targets)
    safe_targets = np.where(positions, targets, 0)
    lsm = ad.log_softmax_rows(logits)
    picked = ad.take_along(lsm, safe_targets[..., None], axis=-1)
    picked = ad.reshape(picked, positions.shape)
    total = ad.reduce_sum(ad.mul(picked, positions.astype(np.float64)))
    return ad.mul(total, -1.0 / count)


def uniform_posteriors(config: PTConfig, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exactly uniform (q_z, q_h, q_g) of one n-token sequence, without the batch
    axis: plain (n, N) / (C, n, n) / (n, M) arrays for the NumPy oracles."""
    if n < 2:
        raise ConfigError("head selection undefined for single-token sequence")
    q_z = np.full((n, config.width), 1.0 / config.width)
    off = ~np.eye(n, dtype=bool)
    q_h = np.broadcast_to(np.where(off, 1.0 / (n - 1), 0.0), (config.channels, n, n)).copy()
    q_g = np.full((n, config.topics), 1.0 / config.topics)
    return q_z, q_h, q_g
