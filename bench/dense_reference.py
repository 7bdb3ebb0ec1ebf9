"""Dense reference forward for the correctness checks of the benchmark.

Written from the closed-form updates in the docstring of ``mupt.model``, one
sequence at a time, in plain NumPy. The low-rank couplings are multiplied out
into dense ``T_c = U_c V_c^T`` matrices, so this path shares neither the
low-rank contraction order of ``model.py`` nor the autodiff tape:

    head logits   F_c[i,j] = (1/r) Nz[i] T_c Nz[j]^T  (+ position bias)
    topic logits  w_topic (M/N) Nz B^T
    label logits  w_u S[w] + w_b Ng B
                  + w_dep  sum_c sum_j Q_h[c,i,j] T_c Nz[j]
                  + w_head sum_c sum_j Q_h[c,j,i] T_c^T Nz[j]
    readout       rms_norm(Nz) * gamma @ W_out + b_out
"""
from __future__ import annotations

import numpy as np


def _softmax(x: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    if support is not None:
        x = np.where(support, x, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _position_bias(p_rel: np.ndarray, n: int, clip: int) -> np.ndarray:
    """P_rel[c, bucket(i - j)] with offsets clipped to [-clip, clip], (C, n, n).

    Negative offsets fill buckets 0..clip-1, positive ones clip..2clip-1; the
    diagonal never reaches a softmax and gets bucket 0.
    """
    bucket = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            d = max(-clip, min(clip, i - j))
            if d < 0:
                bucket[i, j] = d + clip
            elif d > 0:
                bucket[i, j] = clip - 1 + d
    return p_rel[:, bucket]


def reference_logits(config, tensors: dict, weights, tokens: np.ndarray,
                     real: np.ndarray | None, iters: int) -> np.ndarray:
    """Vocabulary logits (n, vocab) of one sequence after `iters` sweeps.

    ``real`` marks real (non-padding) positions; None means all are real.
    """
    n_width, rank, topics = config.width, config.rank, config.topics
    n = tokens.shape[0]
    real = np.ones(n, dtype=bool) if real is None else np.asarray(real, dtype=bool)
    S, U, V, B = tensors["S"], tensors["U"], tensors["V"], tensors["B"]
    T = np.einsum("cnr,cmr->cnm", U, V)           # dense couplings, (C, N, N)
    support = ~np.eye(n, dtype=bool) & real[None, :]
    bias = (_position_bias(tensors["P_rel"], n, config.pos_clip)
            if config.pos_bias else 0.0)

    unary = S[tokens]
    q_z = _softmax(weights.w_unary * unary)
    q_h = np.where(support, 1.0, 0.0) / np.maximum(support.sum(-1, keepdims=True), 1)
    q_h = np.broadcast_to(q_h * real[:, None], (config.channels, n, n))
    for _ in range(iters):
        nz = n_width * q_z
        f = np.einsum("in,cnm,jm->cij", nz, T, nz, optimize=True) / rank + bias
        q_h = _softmax(weights.w_attn * f, support) * real[:, None]
        q_g = _softmax(weights.w_topic * (topics / n_width) * (nz @ B.T))
        ng = topics * q_g
        dep = np.einsum("cij,cnm,jm->in", q_h, T, nz, optimize=True)
        head = np.einsum("cji,jn,cnm->im", q_h, nz, T, optimize=True)
        q_z = _softmax(weights.w_unary * unary + weights.w_binary * (ng @ B)
                       + weights.w_tern_dep * dep + weights.w_tern_head * head)
    nz = n_width * q_z
    feature = nz / np.sqrt(np.mean(nz * nz, axis=-1, keepdims=True) + config.rms_eps)
    return (feature * tensors["gamma"]) @ tensors["W_out"] + tensors["b_out"]


def reference_eval_loss(config, tensors: dict, weights, batches, iters: int) -> float:
    """Mean masked cross-entropy over every selected position of the batches.

    ``batches`` has the layout of ``training.build_eval_batches``: tuples of
    (corrupted, targets, selected, token_mask or None).
    """
    total, count = 0.0, 0
    for corrupted, targets, selected, token_mask in batches:
        for b in range(corrupted.shape[0]):
            real = None if token_mask is None else token_mask[b]
            logits = reference_logits(config, tensors, weights, corrupted[b], real, iters)
            m = logits.max(axis=-1, keepdims=True)
            lsm = logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
            picked = lsm[np.arange(corrupted.shape[1]), targets[b]]
            total -= float(picked[selected[b]].sum())
            count += int(selected[b].sum())
    return total / count
