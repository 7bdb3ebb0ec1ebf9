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

A sweep is one tape node, in the manner of CRF-as-RNN (arXiv:1502.03240),
not a chain of about sixty primitive ops. Its forward runs update_topics,
topic_message, low_rank_products, update_heads, ternary_messages and
update_z on plain arrays, each in the order of operations the composed sweep
used, so every forward value is bit-identical to it. The topic path (the
first two) and the head and ternary path (the next three) read only the
incoming Q_z, so they run as two lanes on two CPUs where init_mfvi's
`parallel.lanes` allows it, and update_z joins them; the vjp's two branches
run the same way. A lane changes where an operation runs, never its operands
or their order, so every number is the same with one lane or two. Only
the new Q_z crosses sweeps, so it is the node's one taped output; Q_h, Q_g
and the logits come back as plain arrays. Its vjp, `_sweep_backward`, is the
hand-derived reverse of the sweep, from the new Q_z's cotangent to those of
the incoming Q_z, S[tokens], the stacked U_s and V_s, B and the position
bias; it keeps only the arrays it reads, not F or w_attn * F, and with two
lanes it forms Nz U, Nz V and the ternary operands again beside the topic
branch instead of keeping them. What every sweep reads but none changes
(S[tokens], U_s, V_s, the position bias, the head support and the valid-row
multiplier) init_mfvi forms once per forward as ordinary tape nodes, the
`SweepInvariants`, so each cotangent is summed over the sweeps before it
goes further back. tests/composed_sweep.py keeps the composed sweep as the
oracle.

A training tape is init_mfvi's nodes, one node per sweep, then the readout
`mlm_logits` and the loss `masked_ce_loss`, one node each with a closed-form
vjp (`_readout_backward`, `_ce_backward`).

Shapes: tokens and token_mask are (B, n), the posteriors (B, n, N) /
(B, C, n, n) / (B, n, M); a single sequence is a batch of one. token_mask marks
real positions; masked-out positions neither attend nor get attended to.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Union

import numpy as np

from . import autodiff as ad
from . import mup, parallel
from .autodiff import Var, val
from .config import PTConfig, InfoWeights
from .errors import ConfigError
from .rng import SeededRng, gaussian_tensor

__all__ = [
    "ModelParams", "MFVIState", "tensor_shapes", "tensor_order", "param_count",
    "position_buckets", "SweepInvariants", "init_mfvi", "low_rank_products",
    "update_heads", "update_topics", "topic_message", "ternary_messages", "update_z",
    "sweep", "run_mfvi", "mlm_logits", "masked_ce_loss", "uniform_posteriors",
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
    tokens and token_mask are (B, n). Only Q_z crosses sweeps, so only q_z is
    a Var (on the tape when the parameters are); q_h and q_g are plain
    arrays. invariants is what init_mfvi formed for every sweep to read.
    """

    tokens: np.ndarray
    q_z: Union[Var, np.ndarray]
    q_h: np.ndarray
    q_g: np.ndarray
    token_mask: np.ndarray | None = None
    sweeps: int = 0
    invariants: SweepInvariants | None = None


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


@dataclass(frozen=True)
class SweepInvariants:
    """What every sweep of one forward reads and no sweep changes.

    init_mfvi forms these once per forward, so the cotangent of each is summed
    once over the sweeps. s_rows is S[tokens], (B*n, N); u_s and v_s are the
    stacked factors, (N, C*r), column c*r + k holding U[c][:, k] (and V); bias
    is the relative-position bias P_rel[c, bucket(i - j)], (C, n, n), or None;
    support is the boolean head support, j != i and j real, broadcastable to
    (B, C, n, n); rows_valid is the (B, 1, n, 1) multiplier zeroing the head
    rows of padding positions, or None. The first four are Vars, on the tape
    when the parameters are; `arrays()` is the plain-array twin that the
    update functions read. lanes is how many lanes every sweep of the
    forward and its vjp run on (parallel.lanes), decided once, here.
    """

    s_rows: Var | np.ndarray
    u_s: Var | np.ndarray
    v_s: Var | np.ndarray
    bias: Var | np.ndarray | None
    support: np.ndarray
    rows_valid: np.ndarray | None
    lanes: int

    def arrays(self) -> "SweepInvariants":
        return replace(self, s_rows=val(self.s_rows), u_s=val(self.u_s), v_s=val(self.v_s),
                       bias=None if self.bias is None else val(self.bias))


def init_mfvi(config: PTConfig, params: ParamsLike, tokens, iw: InfoWeights,
              token_mask: np.ndarray | None = None) -> MFVIState:
    """Sweep-0 posteriors, unary-only labels with uniform heads and topics,
    and the invariants every sweep reads."""
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

    width, stacked = config.width, config.channels * config.rank
    s_rows = ad.take(params["S"], tokens.reshape(-1))
    q_z = ad.softmax_rows(ad.reshape(ad.mul(s_rows, iw.w_unary), (batch, n, width)))

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

    bias = None
    if config.pos_bias:
        buckets = position_buckets(n, config.pos_buckets, config.pos_clip)
        bias = ad.transpose(ad.take(ad.swapaxes(params["P_rel"], 0, 1), buckets), (2, 0, 1))
    invariants = SweepInvariants(
        s_rows=s_rows,
        u_s=ad.reshape(ad.transpose(params["U"], (1, 0, 2)), (width, stacked)),
        v_s=ad.reshape(ad.transpose(params["V"], (1, 0, 2)), (width, stacked)),
        bias=bias, support=support, rows_valid=rows_valid,
        lanes=parallel.lanes(batch * n * width * config.topics))
    return MFVIState(tokens=tokens, q_z=q_z, q_h=q_h, q_g=q_g,
                     token_mask=token_mask, sweeps=0, invariants=invariants)


def _per_channel(config: PTConfig, x: np.ndarray) -> np.ndarray:
    """(B, n, C*r) -> the (B, C, n, r) view with channels ahead of positions."""
    return x.reshape(x.shape[:2] + (config.channels, config.rank)).transpose(0, 2, 1, 3)


def _stacked(config: PTConfig, per_channel: np.ndarray) -> np.ndarray:
    """(B, C, n, r) -> (B*n, C*r), the inverse of `_per_channel` flattened."""
    return per_channel.transpose(0, 2, 1, 3).reshape(-1, config.channels * config.rank)


def low_rank_products(inv: SweepInvariants, nz: np.ndarray):
    """(Nz U_s, Nz V_s), each (B, n, C*r), from the quasi-labels Nz, (B, n, N):
    one (B*n, N) @ (N, C*r) GEMM each for all channels."""
    flat = nz.reshape(-1, nz.shape[-1])
    shape = nz.shape[:2] + (-1,)
    return np.matmul(flat, inv.u_s).reshape(shape), np.matmul(flat, inv.v_s).reshape(shape)


def update_heads(config: PTConfig, iw: InfoWeights, inv: SweepInvariants,
                 nz_u: np.ndarray, nz_v: np.ndarray):
    """(F, Q_h): the bilinear head logits of all channels, (B, C, n, n), and
    the softmax of w_attn * F over j != i, exact zeros off-support.

    F[b, c, i, j] = (1/r) (Nz[i] U_c) . (Nz[j] V_c), plus the learned
    relative-position bias when the geometry enables it. nz_u and nz_v are
    `low_rank_products` of the incoming Nz.
    """
    f = np.matmul(_per_channel(config, nz_u), _per_channel(config, nz_v).swapaxes(-1, -2))
    f *= 1.0 / config.rank
    if inv.bias is not None:
        f += inv.bias
    q_h = ad._softmax_np(f * iw.w_attn, inv.support)
    if inv.rows_valid is not None:
        q_h *= inv.rows_valid
    return f, q_h


def update_topics(config: PTConfig, iw: InfoWeights, b: np.ndarray, nz: np.ndarray):
    """(topic logits, Q_g): w_topic * (M/N) * Nz B^T, (B, n, M), and its softmax."""
    logits = np.matmul(nz.reshape(-1, config.width), b.swapaxes(0, 1))
    logits *= iw.w_topic * (config.topics / config.width)
    logits = logits.reshape(nz.shape[:2] + (config.topics,))
    return logits, ad._softmax_np(logits, None)


def topic_message(config: PTConfig, iw: InfoWeights, b: np.ndarray, q_g: np.ndarray):
    """The topic (binary) message to the labels, w_binary * Ng B, (B, n, N)."""
    ng = (q_g * float(config.topics)).reshape(-1, config.topics)
    binary = np.matmul(ng, b)
    binary *= iw.w_binary
    return binary.reshape(q_g.shape[:2] + (config.width,))


def _ternary_operands(config: PTConfig, q_h: np.ndarray, nz_u: np.ndarray, nz_v: np.ndarray):
    """Q_h applied per channel to Nz V and, transposed, to Nz U: the two
    (B*n, C*r) operands of the ternary messages' GEMMs."""
    return (_stacked(config, np.matmul(q_h, _per_channel(config, nz_v))),
            _stacked(config, np.matmul(q_h.swapaxes(-1, -2), _per_channel(config, nz_u))))


def ternary_messages(config: PTConfig, iw: InfoWeights, inv: SweepInvariants,
                     q_h: np.ndarray, nz_u: np.ndarray, nz_v: np.ndarray):
    """(both ternary messages to the labels, summed, (B, n, N); the two
    (B*n, C*r) GEMM operands they were formed from).

    The head posteriors weight messages in both directions: as the dependent
    (row i of Q_h selects heads j, low-rank direction U_c V_c^T) and as
    somebody's head (column i of Q_h, direction V_c U_c^T). nz_u and nz_v are
    `low_rank_products` of the Q_z the messages are sent from; Q_h is applied
    per channel in r dimensions and the channel sum happens inside the GEMM
    against the stacked factor.
    """
    dep_in, head_in = _ternary_operands(config, q_h, nz_u, nz_v)
    dep = np.matmul(dep_in, inv.u_s.swapaxes(0, 1))
    dep *= iw.w_tern_dep
    head = np.matmul(head_in, inv.v_s.swapaxes(0, 1))
    head *= iw.w_tern_head
    dep += head
    return dep.reshape(nz_u.shape[:2] + (config.width,)), (dep_in, head_in)


def update_z(config: PTConfig, iw: InfoWeights, inv: SweepInvariants,
             binary: np.ndarray, ternary: np.ndarray):
    """(label logits, Q_z): the unary term plus the `topic_message` binary
    and the summed `ternary_messages` ternary, (B, n, N), added in that
    order, and their softmax."""
    logits = (inv.s_rows * iw.w_unary).reshape(binary.shape)
    logits += binary
    logits += ternary
    return logits, ad._softmax_np(logits, None)


def sweep(config: PTConfig, params: ParamsLike, state: MFVIState, iw: InfoWeights):
    """One synchronous sweep: (next state, F, topic logits, label logits).

    Q_h and Q_g come from the incoming Q_z, then Q_z from the refreshed Q_h,
    Q_g and the incoming Q_z's messages; Nz U and Nz V are formed once, by
    `low_rank_products`, and shared by the heads and the ternary messages.
    The topic logits, Q_g and the topic message depend on nothing the head
    logits, Q_h and the ternary messages depend on, so the two run as lanes
    (parallel.fork_join) on two CPUs when the invariants say so, and the
    label update joins them. The topic and label logits are exactly what the
    sweep passed through softmax; F is the head softmax's input before the
    w_attn factor.

    The sweep is one tape node. Only the new Q_z crosses sweeps, so it is the
    node's one output, a Var, on the tape when the incoming Q_z, the
    invariants or B are; Q_h, Q_g and the three logit tensors are plain
    arrays. Its vjp, `_sweep_backward`, keeps the arrays it reads, not F or
    w_attn * F.
    """
    inv = state.invariants
    if inv is None:
        raise ConfigError("sweep needs a state from init_mfvi, which forms its invariants")
    arrays = inv.arrays()
    q_z, b = ad.as_var(state.q_z), ad.as_var(params["B"])
    nz = q_z.value * float(config.width)

    def topic_lane():
        g, q_g = update_topics(config, iw, b.value, nz)
        return g, q_g, topic_message(config, iw, b.value, q_g)

    def head_lane():
        nz_u, nz_v = low_rank_products(arrays, nz)
        f, q_h = update_heads(config, iw, arrays, nz_u, nz_v)
        return (nz_u, nz_v, f, q_h) + ternary_messages(config, iw, arrays, q_h, nz_u, nz_v)

    # The topic lane is the one on the new thread. The other way round, the
    # second of two width-512 evaluation passes in a new process took 200-280
    # page faults in 38 of 40 environment sizes, against 9-90 this way.
    (g, q_g, binary), (nz_u, nz_v, f, q_h, ternary, operands) = parallel.fork_join(
        topic_lane, head_lane, inv.lanes)
    del nz
    z, q_z_next = update_z(config, iw, arrays, binary, ternary)
    del binary, ternary

    # With two lanes the vjp's head branch ends well before its topic branch,
    # so it forms Nz U, Nz V and the ternary operands again from the incoming
    # Q_z instead of keeping them on the tape: 1 MiB less per sweep at width
    # 256, and no slower. With one lane that work would add to the step.
    products = None if inv.lanes == 2 else (nz_u, nz_v) + operands
    kept = _SweepKept(q_z_in=q_z.value, q_z=q_z_next, q_h=q_h, q_g=q_g, products=products,
                      u_s=arrays.u_s, v_s=arrays.v_s, b=b.value, lanes=inv.lanes)
    inputs = (q_z, inv.s_rows, inv.u_s, inv.v_s, b) + (() if inv.bias is None else (inv.bias,))
    out = ad.fused(q_z_next, inputs, lambda grad, wanted: _sweep_backward(
        config, iw, kept, grad, wanted))
    return replace(state, q_z=out, q_h=q_h, q_g=q_g, sweeps=state.sweeps + 1), f, g, z


@dataclass(frozen=True)
class _SweepKept:
    """The arrays a sweep's vjp reads: its input and output Q_z, the refreshed
    Q_h (zero on padding rows) and Q_g, (Nz U, Nz V and the two ternary GEMM
    operands) or None where the vjp forms them again, and the factors U_s,
    V_s (so `low_rank_products` can read it as it reads the invariants) and
    B; and the lanes of its forward."""

    q_z_in: np.ndarray
    q_z: np.ndarray
    q_h: np.ndarray
    q_g: np.ndarray
    products: tuple | None
    u_s: np.ndarray
    v_s: np.ndarray
    b: np.ndarray
    lanes: int


def _sweep_backward(config: PTConfig, iw: InfoWeights, kept: _SweepKept, g: np.ndarray,
                    wanted: tuple):
    """The reverse of one sweep: from the cotangent g of the new Q_z to those
    of (incoming Q_z, s_rows, U_s, V_s, B[, bias]), None where not wanted.

    Each step undoes one line of the forward, in reverse: the label softmax;
    the unary, topic and ternary messages; the topic softmax and logits; the
    head softmax, which needs no rows_valid because Q_h is already zero on
    padding rows; the bilinear logits; and Nz U, Nz V and Nz = N * Q_z. The
    topic branch and the head and ternary branch are the forward's two
    lanes, and run as lanes again; each frees its temporaries once they are
    dead. Q_z's cotangent is the topic branch's part, then the U and then the
    V part of the other's, added after the join.
    """
    want_qz, want_s, want_u, want_v, want_b = wanted[:5]
    want_bias = len(wanted) > 5 and wanted[5]
    width, topics = config.width, config.topics
    u_s, v_s = kept.u_s, kept.v_s
    gl = ad._softmax_vjp(kept.q_z, g).reshape(-1, width)
    nz = (kept.q_z_in * float(width)).reshape(-1, width)

    def topic_branch():                     # binary message and topic update
        g_nz = g_b = None
        if not (want_qz or want_b):
            return g_nz, g_b
        g_bin = gl * iw.w_binary
        if want_b:
            ng = (kept.q_g * float(topics)).reshape(-1, topics)
            g_b = np.matmul(ng.swapaxes(-1, -2), g_bin)
            del ng
        g_ng = np.matmul(g_bin, kept.b.swapaxes(-1, -2))
        del g_bin
        g_ng *= float(topics)
        g_log = ad._softmax_vjp(kept.q_g, g_ng.reshape(kept.q_g.shape)).reshape(-1, topics)
        del g_ng
        g_log *= iw.w_topic * (topics / width)
        if want_b:
            g_b += np.matmul(nz.swapaxes(-1, -2), g_log).swapaxes(0, 1)
        if want_qz:
            g_nz = np.matmul(g_log, kept.b)
        return g_nz, g_b

    def head_branch():                      # ternary messages and heads
        g_u = g_v = g_bias = t_u = t_v = None
        if not (want_qz or want_u or want_v or want_bias):
            return g_u, g_v, g_bias, t_u, t_v
        nz_u, nz_v = (kept.products[:2] if kept.products else
                      low_rank_products(kept, nz.reshape(kept.q_z_in.shape)))
        q, k = _per_channel(config, nz_u), _per_channel(config, nz_v)
        g_dep = gl * iw.w_tern_dep
        g_head = gl * iw.w_tern_head
        g_dep_pc = _per_channel(config, np.matmul(g_dep, u_s).reshape(nz_u.shape))
        g_head_pc = _per_channel(config, np.matmul(g_head, v_s).reshape(nz_u.shape))
        g_qh = np.matmul(g_dep_pc, k.swapaxes(-1, -2))
        g_qh += np.matmul(g_head_pc, q.swapaxes(-1, -2)).swapaxes(-1, -2)
        g_f = ad._softmax_vjp(kept.q_h, g_qh)
        del g_qh
        g_f *= iw.w_attn
        if want_bias:
            g_bias = g_f.sum(axis=0)
        g_f *= 1.0 / config.rank
        g_q = np.matmul(g_f, k)
        g_q += np.matmul(kept.q_h, g_head_pc)
        del g_head_pc
        g_k = np.matmul(q.swapaxes(-1, -2), g_f).swapaxes(-1, -2)
        del g_f
        g_k += np.matmul(kept.q_h.swapaxes(-1, -2), g_dep_pc)
        del g_dep_pc
        g_nz_u, g_nz_v = _stacked(config, g_q), _stacked(config, g_k)
        del g_q, g_k
        dep_in, head_in = (kept.products[2:] if kept.products else
                           _ternary_operands(config, kept.q_h, nz_u, nz_v))
        if want_u:
            g_u = np.matmul(nz.swapaxes(-1, -2), g_nz_u)
            g_u += np.matmul(dep_in.swapaxes(-1, -2), g_dep).swapaxes(0, 1)
        if want_v:
            g_v = np.matmul(nz.swapaxes(-1, -2), g_nz_v)
            g_v += np.matmul(head_in.swapaxes(-1, -2), g_head).swapaxes(0, 1)
        if want_qz:
            t_u = np.matmul(g_nz_u, u_s.swapaxes(-1, -2))
            t_v = np.matmul(g_nz_v, v_s.swapaxes(-1, -2))
        return g_u, g_v, g_bias, t_u, t_v

    g_s = gl * iw.w_unary if want_s else None
    (g_nz, g_b), (g_u, g_v, g_bias, t_u, t_v) = parallel.fork_join(
        topic_branch, head_branch, kept.lanes)
    g_qz = None
    if want_qz:
        g_nz += t_u
        g_nz += t_v
        g_nz *= float(width)
        g_qz = g_nz.reshape(kept.q_z_in.shape)
    return (g_qz, g_s, g_u, g_v, g_b, g_bias)[:len(wanted)]


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
    """Vocabulary logits, (B, n, V): the quasi-labels Nz = N * Q_z over their
    root mean square, times gamma, through W_out and b_out; float64 whatever
    Q_z's dtype. One tape node over (Q_z, gamma, W_out, b_out)."""
    inputs = tuple(ad.as_var(x) for x in (state.q_z, params["gamma"], params["W_out"],
                                          params["b_out"]))
    q_z, gamma, w_out, b_out = (x.value for x in inputs)
    nz = q_z * np.float64(config.width)
    den = np.sqrt((nz * nz).sum(axis=-1, keepdims=True) * (1.0 / config.width) + config.rms_eps)
    normed = nz / den
    feature = normed * gamma
    return ad.fused(np.matmul(feature, w_out) + b_out, inputs, lambda g, wanted: _readout_backward(
        g, wanted, nz, den, normed, feature, gamma, w_out, b_out.shape))


def _readout_backward(g, wanted, nz, den, normed, feature, gamma, w_out, b_shape):
    """The reverse of `mlm_logits`: from the logits' cotangent g to those of
    (Q_z, gamma, W_out, b_out), None where not wanted. W_out's is a batched
    product summed over the batch; Nz's is the part through Nz / den, then
    the part through den's mean square."""
    want_qz, want_gamma, want_w, want_b = wanted
    g_qz = g_gamma = g_w = None
    g_b = ad._unbroadcast(g, b_shape) if want_b else None
    if want_w:
        g_w = ad._unbroadcast(np.matmul(feature.swapaxes(-1, -2), g), w_out.shape)
    if want_qz or want_gamma:
        g_feature = np.matmul(g, w_out.swapaxes(-1, -2))
        if want_gamma:
            g_gamma = ad._unbroadcast(g_feature * normed, gamma.shape)
        if want_qz:
            width = nz.shape[-1]
            g_normed = g_feature * gamma
            g_den = ad._unbroadcast(-g_normed * normed / den, den.shape)
            g_nz = g_normed / den
            g_nz += g_den * (0.5 / den) * (1.0 / width) * (2.0 * nz)
            g_qz = g_nz * float(width)
    return g_qz, g_gamma, g_w, g_b


def masked_ce_loss(logits, targets, positions):
    """Mean cross-entropy over the selected positions.

    targets holds the original token at every selected position (values at
    unselected positions are ignored); positions is boolean with at least one
    True entry. One tape node over the logits.
    """
    positions = np.asarray(positions, dtype=bool)
    count = int(positions.sum())
    if count == 0:
        raise ConfigError("masked_ce_loss: no positions selected")
    safe_targets = np.where(positions, np.asarray(targets), 0)
    logits = ad.as_var(logits)
    x = logits.value
    top = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - top)
    total = e.sum(axis=-1, keepdims=True)
    lse = top + np.log(total)
    soft = e / total
    del e
    picked = np.take_along_axis(x - lse, safe_targets[..., None], axis=-1)
    weights = positions.astype(np.float64)
    loss = (picked.reshape(positions.shape) * weights).sum() * (-1.0 / count)
    return ad.fused(loss, (logits,), lambda g, wanted: (
        _ce_backward(soft, safe_targets, (g * (-1.0 / count)) * weights),))


def _ce_backward(soft, targets, g_picked):
    """The logits' cotangent, softmax minus one-hot: g_picked scattered at the
    targets, then its negated row sum times the softmax added."""
    vocab = soft.shape[-1]
    flat = np.arange(targets.size) * vocab + targets.ravel() % vocab
    g = ad._scatter_add(flat, g_picked, soft.shape)
    g += (-g).sum(axis=-1, keepdims=True) * soft
    return g


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
