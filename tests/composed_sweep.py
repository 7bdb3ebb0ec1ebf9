"""The mean-field sweep composed from `autodiff` ops, one tape node per op.

This is how `model.sweep` was written before it became one fused node with a
hand-derived vjp, kept here as the oracle the fused sweep is tested against:
its forward must match bit for bit, its gradients to rounding. Every sweep
re-forms S[tokens], the stacked factors and the position bias itself, as the
composed sweep did.
"""
import numpy as np

from mupt import autodiff as ad
from mupt.model import MFVIState, _attn_mask, _valid_rows, position_buckets


def quasi(q, count):
    """Quasi-distribution count * q; rows then average to exactly 1."""
    return ad.mul(q, float(count))


def init(config, params, tokens, iw, token_mask=None):
    """Sweep-0 posteriors: unary-only labels, uniform heads and topics."""
    tokens = np.asarray(tokens)
    batch, n = tokens.shape
    q_z = ad.softmax_rows(ad.mul(ad.take(params["S"], tokens), iw.w_unary))
    support = _attn_mask(n, token_mask)
    uniform_h = np.where(support, 1.0, 0.0) / np.maximum(support.sum(axis=-1, keepdims=True), 1)
    rows_valid = _valid_rows(token_mask)
    if rows_valid is not None:
        uniform_h = uniform_h * rows_valid
    q_h = np.broadcast_to(uniform_h, (batch, config.channels, n, n)).copy()
    q_g = np.full((batch, n, config.topics), 1.0 / config.topics)
    return MFVIState(tokens=tokens, q_z=q_z, q_h=q_h, q_g=q_g, token_mask=token_mask)


def _per_channel(config, x, batch):
    x = ad.reshape(x, (batch, -1, config.channels, config.rank))
    return ad.transpose(x, (0, 2, 1, 3))


def _channel_sum(config, per_channel, factor_t):
    stacked = ad.reshape(ad.transpose(per_channel, (0, 2, 1, 3)),
                         (-1, config.channels * config.rank))
    return ad.matmul(stacked, factor_t)


def sweep(config, params, state, iw):
    """(next state, F, topic logits, label logits), all of them Vars."""
    batch, n = state.tokens.shape
    width, stacked = config.width, config.channels * config.rank
    u_s = ad.reshape(ad.transpose(params["U"], (1, 0, 2)), (width, stacked))
    v_s = ad.reshape(ad.transpose(params["V"], (1, 0, 2)), (width, stacked))
    nz = ad.reshape(quasi(state.q_z, width), (-1, width))
    nz_u, nz_v = ad.matmul(nz, u_s), ad.matmul(nz, v_s)

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

    nz_t = ad.reshape(quasi(state.q_z, width), (-1, width))
    g = ad.mul(ad.matmul(nz_t, ad.swapaxes(params["B"], 0, 1)),
               iw.w_topic * (config.topics / width))
    g = ad.reshape(g, state.tokens.shape + (config.topics,))
    q_g = ad.softmax_rows(g)

    dep = _channel_sum(config, ad.matmul(q_h, _per_channel(config, nz_v, batch)),
                       ad.swapaxes(u_s, 0, 1))
    head = _channel_sum(config, ad.matmul(ad.swapaxes(q_h, -1, -2),
                                          _per_channel(config, nz_u, batch)),
                        ad.swapaxes(v_s, 0, 1))
    s_rows = ad.take(params["S"], state.tokens.reshape(-1))
    ng = ad.reshape(quasi(q_g, config.topics), (-1, config.topics))
    binary = ad.matmul(ng, params["B"])
    z = ad.add(
        ad.add(ad.mul(s_rows, iw.w_unary), ad.mul(binary, iw.w_binary)),
        ad.add(ad.mul(dep, iw.w_tern_dep), ad.mul(head, iw.w_tern_head)),
    )
    z = ad.reshape(z, state.tokens.shape + (width,))
    q_z = ad.softmax_rows(z)
    out = MFVIState(tokens=state.tokens, q_z=q_z, q_h=q_h, q_g=q_g,
                    token_mask=state.token_mask, sweeps=state.sweeps + 1)
    return out, f, g, z


def run(config, params, tokens, iw, token_mask=None, *, iters):
    state = init(config, params, tokens, iw, token_mask)
    for _ in range(iters):
        state = sweep(config, params, state, iw)[0]
    return state
