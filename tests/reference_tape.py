"""A general reverse-mode tape over numpy arrays, and the model's training
forward composed on it.

This is the engine `mupt.autodiff` ran before a training forward became an
explicit chain of stages, kept here as the oracle the chain is tested
against: its gradients must match the chain's bit for bit. `init` is
init_mfvi as it was, eleven small nodes; `sweep`, `readout` and `loss` make
one `fused` node each of the model's stage forwards and vjps, as the model
did, so the tape sums every cotangent in the order its links force.

A Var wraps an ndarray. Whether it is on the tape follows from its inputs:

  - `Var(x)` is a leaf on the tape, a parameter for reverse_grad;
  - every other operand (an ndarray, a scalar) is wrapped by `as_var` as a
    constant, off the tape;
  - an op's result is on the tape iff at least one input is. An op on
    constants keeps no links, and no cotangent is ever computed for a
    constant.

The tape is a graph of links, kept apart from the values. A taped Var points
to its link; the link points to the links of exactly the taped inputs and
holds, for each, the vjp that pushes a cotangent through to it. A vjp keeps
only the arrays it reads, so the tape holds no Var. A backward pass frees
the vjps it has used, so each forward pass takes one backward pass; a
second one through the same links raises.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping

import numpy as np

from mupt import model
from mupt.autodiff import _as_array, _gather_vjp, _softmax_np, _softmax_vjp, _unbroadcast


class _Link:
    """One node of the tape: the links of its taped inputs and their vjps."""

    __slots__ = ("_parents", "_vjps")

    def __init__(self, parents: tuple = (), vjps: tuple = ()) -> None:
        self._parents = parents
        self._vjps = vjps


class Var:
    """An ndarray value, on the tape (with a link) or not."""

    __slots__ = ("value", "_link")

    def __init__(self, value, on_tape: bool = True) -> None:
        self.value = _as_array(value)
        self._link = _Link() if on_tape else None

    @property
    def on_tape(self) -> bool:
        return self._link is not None

    @property
    def _parents(self) -> tuple:
        """The links of the taped inputs, where a walk of the tape starts."""
        return () if self._link is None else self._link._parents

    @property
    def ndim(self):
        return self.value.ndim


def as_var(x) -> Var:
    """x itself if it is a Var, else x as a constant."""
    return x if isinstance(x, Var) else Var(x, on_tape=False)


def val(x) -> np.ndarray:
    return x.value if isinstance(x, Var) else _as_array(x)


def _node(value, inputs: tuple, vjps: tuple) -> Var:
    """An op's result, linked to the links of the taped inputs and their vjps only."""
    out = Var(value, on_tape=False)
    links = [(a._link, vjp) for a, vjp in zip(inputs, vjps) if a._link is not None]
    if links:
        parents, kept = zip(*links)
        out._link = _Link(parents, kept)
    return out


def fused(value, inputs: tuple, backward: Callable) -> Var:
    """One node for a composite whose reverse is written by hand.

    backward(g, wanted) gets the cotangent of `value` and one flag per input,
    true where the input is on the tape, and returns one cotangent per input
    (it may return None where the flag is false); the tape keeps only those
    of the inputs on it. It runs once per backward pass: the node's
    per-input vjps share its result.
    """
    inputs = tuple(as_var(a) for a in inputs)
    wanted = tuple(a.on_tape for a in inputs)
    pending: dict[int, np.ndarray] = {}

    def part(i):
        def vjp(g):
            if not pending:
                pending.update((j, c) for j, c in enumerate(backward(g, wanted)) if wanted[j])
            return pending.pop(i)
        return vjp

    return _node(value, inputs, tuple(part(i) for i in range(len(inputs))))


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    sa, sb = a.value.shape, b.value.shape
    return _node(a.value + b.value, (a, b),
                 (lambda g: _unbroadcast(g, sa),
                  lambda g: _unbroadcast(g, sb)))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape
    return _node(av * bv, (a, b),
                 (lambda g: _unbroadcast(g * bv, sa),
                  lambda g: _unbroadcast(g * av, sb)))


def matmul(a, b) -> Var:
    """Batched matrix product; both operands must be at least 2-D."""
    a, b = as_var(a), as_var(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {a.ndim} and {b.ndim}")
    av, bv = a.value, b.value
    sa, sb = av.shape, bv.shape

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), sa)

    def vjp_b(g):
        return _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), sb)

    return _node(np.matmul(av, bv), (a, b), (vjp_a, vjp_b))


def transpose(a, axes) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.value.transpose(axes), (a,), (lambda g: g.transpose(inv),))


def swapaxes(a, i, j) -> Var:
    a = as_var(a)
    return _node(a.value.swapaxes(i, j), (a,), (lambda g: g.swapaxes(i, j),))


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.value.shape
    return _node(a.value.reshape(shape), (a,), (lambda g: g.reshape(old),))


def take(a, indices) -> Var:
    """Gather along axis 0; backward is an exact scatter-add."""
    a = as_var(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("take indices must be integers")
    in_shape = a.value.shape
    return _node(a.value[idx], (a,), (lambda g: _gather_vjp(idx, g, in_shape),))


def softmax_rows(x, mask=None) -> Var:
    """Row-stochastic softmax over the last axis; mask as in _softmax_np."""
    x = as_var(x)
    p = _softmax_np(x.value, mask)
    return _node(p, (x,), (lambda g: _softmax_vjp(p, g),))


def _toposort(root: _Link) -> list[_Link]:
    """Every link reachable from root, each after all of its parents."""
    order: list[_Link] = []
    seen: set[int] = set()
    stack: list[tuple[_Link, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def reverse_grad(loss: Var, params: Mapping[str, Var]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to named leaf Vars; exact
    zeros for a parameter the loss does not depend on."""
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    param_ids = {id(p._link) for p in params.values() if p.on_tape}
    order = _toposort(loss._link) if loss.on_tape else []
    grads: dict[int, np.ndarray] = {id(loss._link): np.ones((), dtype=loss.value.dtype)}
    kept: dict[int, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in param_ids:
            kept[id(node)] = g
        if node._vjps is None:
            raise ValueError("reverse_grad reached a link an earlier backward pass "
                             "freed: build a new forward pass for each backward pass")
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
        if node._parents:      # a leaf keeps its (empty) vjps: it may start more tapes
            node._vjps = None
    out = {}
    for name, p in params.items():
        g = kept.get(id(p._link)) if p.on_tape else None
        if g is None:
            out[name] = np.zeros_like(p.value)
        else:
            out[name] = np.broadcast_to(g, p.value.shape).astype(p.value.dtype, copy=True)
    return out


# -- the model's training forward on the tape -------------------------------

def init(config, params, tokens, iw, token_mask=None):
    """(sweep-0 state, its taped invariants): init_mfvi as eleven nodes.

    The state's q_z is a Var and its invariants are model.SweepInvariants of
    plain arrays, for the model's sweep forward; the taped invariants
    (S[tokens], U_s, V_s, bias) are what the sweep nodes link to."""
    plain = model.init_mfvi(config, {k: val(v) for k, v in params.items()}, tokens, iw,
                            token_mask)
    batch, n = plain.tokens.shape
    width, stacked = config.width, config.channels * config.rank
    s_rows = take(params["S"], plain.tokens.reshape(-1))
    q_z = softmax_rows(reshape(mul(s_rows, iw.w_unary), (batch, n, width)))
    bias = None
    if config.pos_bias:
        buckets = model.position_buckets(n, config.pos_buckets, config.pos_clip)
        bias = transpose(take(swapaxes(params["P_rel"], 0, 1), buckets), (2, 0, 1))
    taped = (s_rows, reshape(transpose(params["U"], (1, 0, 2)), (width, stacked)),
             reshape(transpose(params["V"], (1, 0, 2)), (width, stacked)), bias)
    return replace(plain, q_z=q_z), taped


def sweep(config, params, state, iw, taped):
    """(next state, F, topic logits, label logits): one fused node over
    (Q_z, S[tokens], U_s, V_s, B[, bias]) whose backward is the model's."""
    q_z, b = as_var(state.q_z), as_var(params["B"])
    q_z_next, q_h, q_g, f, g, z, kept = model._sweep_forward(
        config, iw, state.invariants, q_z.value, b.value)
    inputs = (q_z, *taped[:3], b) + (() if taped[3] is None else (taped[3],))
    out = fused(q_z_next, inputs,
                lambda grad, wanted: model._sweep_backward(config, iw, kept, grad)[:len(inputs)])
    return replace(state, q_z=out, q_h=q_h, q_g=q_g, sweeps=state.sweeps + 1), f, g, z


def run(config, params, tokens, iw, token_mask=None, *, iters):
    state, taped = init(config, params, tokens, iw, token_mask)
    for _ in range(iters):
        state = sweep(config, params, state, iw, taped)[0]
    return state


def readout(config, params, state):
    """mlm_logits as one fused node over (Q_z, gamma, W_out, b_out)."""
    inputs = tuple(as_var(x) for x in (state.q_z, params["gamma"], params["W_out"],
                                       params["b_out"]))
    logits, kept = model._readout_forward(config, *(x.value for x in inputs))
    return fused(logits, inputs, lambda g, wanted: model._readout_backward(g, *kept))


def loss(logits, targets, positions):
    """masked_ce_loss as one fused node over the logits."""
    logits = as_var(logits)
    value, kept = model._ce_forward(logits.value, targets, positions)
    return fused(value, (logits,), lambda g, wanted: (model._ce_backward(g, *kept),))
