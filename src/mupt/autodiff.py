"""Reverse-mode automatic differentiation over numpy arrays.

A Var wraps an ndarray. Whether it is on the tape follows from its inputs:

  - `Var(x)` is a leaf on the tape, a parameter for reverse_grad;
  - every other operand (an ndarray, a scalar) is wrapped by `as_var` as a
    constant, off the tape;
  - an op's result is on the tape iff at least one input is, and it links
    back, with the recipe for pushing a cotangent through, to exactly those
    inputs. An op on constants keeps no links, so a forward pass on plain
    arrays builds no tape and frees each intermediate as soon as nothing
    holds it, and no cotangent is ever computed for a constant.

The ops are deliberately few: add, sub, mul, div, sqrt, square; batched
matmul, transpose, swapaxes, reshape; reduce_sum, reduce_mean; the gathers
take and take_along; and the fused rows primitives logsumexp and softmax_rows,
whose closed-form vjps keep the backward pass exact. rms_norm and
log_softmax_rows are not primitives: they compose square, reduce_mean, add,
sqrt, div and mul, and sub and logsumexp. Everything is float64 unless the
caller hands in float32 explicitly.

Gradients returned by reverse_grad are plain ndarrays; a parameter the loss
never touched gets an exact zero gradient of matching shape.
"""
from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Var",
    "as_var",
    "val",
    "add", "sub", "mul", "div", "sqrt", "square",
    "matmul", "transpose", "swapaxes", "reshape",
    "reduce_sum", "reduce_mean", "take", "take_along",
    "logsumexp", "softmax_rows", "rms_norm", "log_softmax_rows",
    "reverse_grad", "finite_diff_check", "FiniteDiffReport",
]

_FLOATS = (np.float32, np.float64)


def _as_array(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype not in _FLOATS:
        a = a.astype(np.float64)
    return a


class Var:
    """An ndarray value, on the tape (with links to its taped inputs) or not."""

    __slots__ = ("value", "on_tape", "_parents", "_vjps")

    def __init__(self, value, on_tape: bool = True) -> None:
        self.value = value if isinstance(value, np.ndarray) and value.dtype in _FLOATS else _as_array(value)
        self.on_tape = on_tape
        self._parents = self._vjps = ()

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape}, on_tape={self.on_tape}, leaf={not self._parents})"


def as_var(x) -> Var:
    """x itself if it is a Var, else x as a constant."""
    return x if isinstance(x, Var) else Var(x, on_tape=False)


def _node(value, inputs: tuple, vjps: tuple) -> Var:
    """An op's result, linked to the inputs on the tape and their vjps only."""
    out = Var(value, on_tape=False)
    links = [(a, vjp) for a, vjp in zip(inputs, vjps) if a.on_tape]
    if links:
        out.on_tape = True
        out._parents, out._vjps = zip(*links)
    return out


def val(x) -> np.ndarray:
    """The plain ndarray behind x, whether or not it is on the tape."""
    return x.value if isinstance(x, Var) else _as_array(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape of the operand it belongs to."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return _node(a.value + b.value, (a, b),
                 (lambda g: _unbroadcast(g, a.value.shape),
                  lambda g: _unbroadcast(g, b.value.shape)))


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return _node(a.value - b.value, (a, b),
                 (lambda g: _unbroadcast(g, a.value.shape),
                  lambda g: _unbroadcast(-g, b.value.shape)))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return _node(a.value * b.value, (a, b),
                 (lambda g: _unbroadcast(g * b.value, a.value.shape),
                  lambda g: _unbroadcast(g * a.value, b.value.shape)))


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.value / b.value
    return _node(out, (a, b),
                 (lambda g: _unbroadcast(g / b.value, a.value.shape),
                  lambda g: _unbroadcast(-g * out / b.value, b.value.shape)))


def sqrt(a) -> Var:
    a = as_var(a)
    out = np.sqrt(a.value)
    return _node(out, (a,), (lambda g: g * (0.5 / out),))


def square(a) -> Var:
    a = as_var(a)
    return _node(a.value * a.value, (a,), (lambda g: g * (2.0 * a.value),))


def matmul(a, b) -> Var:
    """Batched matrix product; both operands must be at least 2-D."""
    a, b = as_var(a), as_var(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {a.ndim} and {b.ndim}")

    def vjp_a(g):
        return _unbroadcast(np.matmul(g, b.value.swapaxes(-1, -2)), a.value.shape)

    def vjp_b(g):
        return _unbroadcast(np.matmul(a.value.swapaxes(-1, -2), g), b.value.shape)

    return _node(np.matmul(a.value, b.value), (a, b), (vjp_a, vjp_b))


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


def reduce_sum(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    in_shape = a.value.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, in_shape).copy()
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, in_shape).copy()

    return _node(a.value.sum(axis=axis, keepdims=keepdims), (a,), (vjp,))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    if axis is None:
        count = a.value.size
    else:
        count = a.value.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def take(a, indices, axis: int = 0) -> Var:
    """Gather along axis 0; backward is an unbuffered scatter-add."""
    if axis != 0:
        raise ValueError("take supports axis=0; move the axis first")
    a = as_var(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("take indices must be integers")
    in_shape = a.value.shape

    def vjp(g):
        out = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(out, idx, g)
        return out

    return _node(a.value[idx], (a,), (vjp,))


def take_along(a, indices, axis: int = -1) -> Var:
    """Gather along an axis with np.take_along_axis semantics."""
    a = as_var(a)
    idx = np.asarray(indices)
    in_shape = a.value.shape
    ax = axis % len(in_shape)

    def vjp(g):
        out = np.zeros(in_shape, dtype=g.dtype)
        grids = np.ogrid[tuple(slice(0, s) for s in idx.shape)]
        full = tuple(idx if d == ax else grids[d] for d in range(len(in_shape)))
        np.add.at(out, full, g)
        return out

    return _node(np.take_along_axis(a.value, idx, axis=ax), (a,), (vjp,))


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Var:
    """log(sum(exp(a))) with the usual max-shift; gradient is softmax(a)."""
    a = as_var(a)
    m = np.max(a.value, axis=axis, keepdims=True)
    e = np.exp(a.value - m)
    s = e.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    soft = e / s
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return g * soft

    return _node(out, (a,), (vjp,))


def softmax_rows(x, mask=None) -> Var:
    """Row-stochastic softmax over the last axis.

    mask, if given, is boolean and broadcastable to x: False entries are
    excluded from the support and come out exactly 0. A row whose support is
    empty has no normalizable distribution and is an error.
    """
    x = as_var(x)
    p = _softmax_np(x.value, mask)

    def vjp(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return p * (g - inner)

    return _node(p, (x,), (vjp,))


def _softmax_np(x: np.ndarray, mask) -> np.ndarray:
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax_rows: degenerate distribution support (a row is fully masked)")
        shifted = np.where(mask, x, -np.inf)
        m = shifted.max(axis=-1, keepdims=True)
        e = np.exp(shifted - m)  # exactly 0 off-support: every row has support
    else:
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def rms_norm(x, gain, eps: float = 1e-6) -> Var:
    """x / sqrt(mean(x^2) + eps) * gain over the last axis."""
    x = as_var(x)
    ms = reduce_mean(square(x), axis=-1, keepdims=True)
    return mul(div(x, sqrt(add(ms, eps))), gain)


def log_softmax_rows(x) -> Var:
    x = as_var(x)
    return sub(x, logsumexp(x, axis=-1, keepdims=True))


def _toposort(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
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
    """Gradients of a scalar loss with respect to named leaf Vars.

    Parameters the loss does not depend on get exact zeros.
    """
    if not isinstance(loss, Var):
        raise TypeError("loss must be a Var")
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    param_ids = {id(p) for p in params.values()}
    order = _toposort(loss)
    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.value.dtype)}
    kept: dict[int, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if id(node) in param_ids:
            kept[id(node)] = g
        for parent, vjp in zip(node._parents, node._vjps):
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    out = {}
    for name, p in params.items():
        g = kept.get(id(p))
        if g is None:
            out[name] = np.zeros_like(p.value)
        else:
            out[name] = np.broadcast_to(g, p.value.shape).astype(p.value.dtype, copy=True)
    return out


class FiniteDiffReport:
    """Worst-case agreement between tape gradients and central differences.

    A coordinate passes when |ad - fd| <= atol + rtol * max(|ad|, |fd|); the
    recorded ratio is |ad - fd| / (atol + rtol * max(|ad|, |fd|)), so passing
    means every ratio is <= 1.
    """

    def __init__(self, rtol: float, atol: float) -> None:
        self.rtol = rtol
        self.atol = atol
        self.worst_ratio = 0.0
        self.worst_coord: tuple[str, tuple] | None = None
        self.per_tensor: dict[str, float] = {}

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0

    def record(self, name: str, idx: tuple, ad: float, fd: float) -> None:
        ratio = abs(ad - fd) / (self.atol + self.rtol * max(abs(ad), abs(fd)))
        if ratio > self.per_tensor.get(name, 0.0):
            self.per_tensor[name] = ratio
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
            self.worst_coord = (name, idx)

    def __repr__(self) -> str:
        return (f"FiniteDiffReport(passed={self.passed}, worst_ratio={self.worst_ratio:.3g}, "
                f"worst_coord={self.worst_coord})")


def finite_diff_check(loss_fn: Callable[[dict[str, Var]], Var],
                      params: Mapping[str, np.ndarray],
                      step: float = 1e-5,
                      rtol: float = 1e-6,
                      atol: float = 1e-8) -> FiniteDiffReport:
    """Compare reverse-mode gradients against central finite differences.

    loss_fn must be a deterministic pure function of its parameters; this is
    verified by evaluating the base point twice and requiring bit equality.
    Every coordinate of every parameter is probed with a symmetric step. The
    probes hand loss_fn plain arrays, so only the gradient pass builds a tape.
    """
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def eval_loss(values: Mapping[str, np.ndarray]) -> float:
        out = loss_fn({k: v.copy() for k, v in values.items()})
        v = val(out)
        if v.shape != ():
            raise ValueError("loss_fn must return a scalar")
        return float(v)

    if eval_loss(base) != eval_loss(base):
        raise ValueError("loss_fn is not deterministic: two evaluations disagree bitwise")

    leaves = {k: Var(v.copy()) for k, v in base.items()}
    grads = reverse_grad(loss_fn(leaves), leaves)

    report = FiniteDiffReport(rtol=rtol, atol=atol)
    for name, value in base.items():
        flat = value.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = eval_loss(base)
            flat[i] = orig - step
            down = eval_loss(base)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            idx = np.unravel_index(i, value.shape) if value.shape else ()
            report.record(name, idx, float(grads[name].reshape(-1)[i]), fd)
    return report
