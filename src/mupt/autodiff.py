"""Reverse-mode automatic differentiation over numpy arrays.

A Var wraps an ndarray. Whether it is on the tape follows from its inputs:

  - `Var(x)` is a leaf on the tape, a parameter for reverse_grad;
  - every other operand (an ndarray, a scalar) is wrapped by `as_var` as a
    constant, off the tape;
  - an op's result is on the tape iff at least one input is. An op on
    constants keeps no links, so a forward pass on plain arrays builds no tape
    and no cotangent is ever computed for a constant.

The tape is a graph of links, kept apart from the values. A taped Var points
to its link; the link points to the links of exactly the taped inputs and
holds, for each, the vjp that pushes a cotangent through to it. A vjp keeps
only the arrays it reads (matmul both operands, mul the other operand,
softmax_rows its output), and the shape-only ops keep shapes and indices.
So the tape holds no Var: an intermediate's array is freed as soon as the
caller drops its Var, unless a vjp reads it, and what a vjp reads lives until
reverse_grad has passed its link. A backward pass frees the vjps it has used,
so each forward pass takes one backward pass; a second one through the same
links raises.

The ops are deliberately few: add, mul; batched matmul, transpose,
swapaxes, reshape; the gather take; and softmax_rows, whose closed-form vjp
keeps the backward pass exact. Everything is float64 unless the caller hands
in float32 explicitly.

`fused` makes one node of a composite whose reverse is written by hand:
model.sweep, a whole mean-field sweep, is one, and so are the readout
(model.mlm_logits) and the loss (model.masked_ce_loss). Its backward runs
once and hands each taped input its cotangent; it is never asked for a
constant's. Such a node keeps what its backward reads, like any other, so
the composite's intermediates are freed after its forward unless that
backward reads them.

Gradients returned by reverse_grad are plain ndarrays; a parameter the loss
never touched gets an exact zero gradient of matching shape.

Importing this module pins glibc malloc's mmap and trim thresholds and its
arena count for the whole process (see _pin_malloc); every numeric path imports it.
"""
from __future__ import annotations

import math
import os
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Var",
    "as_var",
    "val",
    "fused",
    "add", "mul", "matmul", "transpose", "swapaxes", "reshape", "take", "softmax_rows",
    "reverse_grad", "finite_diff_check", "FiniteDiffReport",
]

_FLOATS = (np.float32, np.float64)


def _pin_malloc() -> None:
    """Keep freed heap memory mapped, on glibc; elsewhere do nothing.

    glibc serves large blocks from fresh mmap pages and raises that threshold
    as the process frees large blocks, and it trims the heap top back to the
    OS. So how fast a forward pass runs depends on what the process freed
    before: a width-512 evaluation pass in a process that trained nothing
    took 3840 minor page faults against 0 after a width-512 training. With
    both thresholds fixed, blocks up to 32 MiB come from the heap and the
    heap keeps up to 64 MiB of free top, whatever ran before.

    Arenas are capped at two: the heap, and one for the sweep's lane thread
    (parallel.fork_join). A thread lets go of its arena only after its join
    has returned, so without the cap a lane started right after often found
    it taken and made a new one: three rounds of the benchmark's width-512
    evaluation loop grew the process 62 -> 75 -> 88 MB, a 4.6 MiB arena a
    round, against 62 -> 70 -> 79 MB with it.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes

    libc = ctypes.CDLL(None)
    libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD, the cap of glibc's dynamic one
    libc.mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD
    libc.mallopt(-8, 2)           # M_ARENA_MAX


_pin_malloc()


def _as_array(x) -> np.ndarray:
    a = np.asarray(x)
    if a.dtype not in _FLOATS:
        a = a.astype(np.float64)
    return a


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
        self.value = value if isinstance(value, np.ndarray) and value.dtype in _FLOATS else _as_array(value)
        self._link = _Link() if on_tape else None

    @property
    def on_tape(self) -> bool:
        return self._link is not None

    @property
    def _parents(self) -> tuple:
        """The links of the taped inputs, where a walk of the tape starts."""
        return () if self._link is None else self._link._parents

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
    (None where the flag is false, so a constant's cotangent is never
    computed). It runs once per backward pass: the node's per-input vjps
    share its result, and reverse_grad calls them back to back.
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


def _scatter_add(flat: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of `shape` plus g summed in at the flat positions `flat` (g's shape).

    Each entry accumulates its contributions in input order starting from
    0.0, as np.add.at does, so a float64 result equals np.add.at's bit for
    bit (the sign of a zero included). A float32 g is accumulated in float64
    and rounded back once, so its result can differ from np.add.at's float32
    sums in the last place; no float32 number is pinned.
    """
    out = np.bincount(flat.ravel(), weights=g.ravel(), minlength=math.prod(shape))
    return out.reshape(shape).astype(g.dtype, copy=False)


def take(a, indices) -> Var:
    """Gather along axis 0; backward is an exact scatter-add (`_scatter_add`)."""
    a = as_var(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError("take indices must be integers")
    in_shape = a.value.shape

    def vjp(g):
        rest = math.prod(in_shape[1:])
        flat = (idx % in_shape[0])[..., None] * rest + np.arange(rest)
        return _scatter_add(flat, g, in_shape)

    return _node(a.value[idx], (a,), (vjp,))


def softmax_rows(x, mask=None) -> Var:
    """Row-stochastic softmax over the last axis.

    mask, if given, is boolean and broadcastable to x: False entries are
    excluded from the support and come out exactly 0. A row whose support is
    empty has no normalizable distribution and is an error.
    """
    x = as_var(x)
    p = _softmax_np(x.value, mask)
    return _node(p, (x,), (lambda g: _softmax_vjp(p, g),))


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The cotangent of a row softmax's input, p * (g - sum(g * p)), with one
    temporary; p is the softmax's output and g the cotangent of p."""
    out = g * p
    inner = out.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=out)
    out *= p
    return out


def _softmax_np(x: np.ndarray, mask) -> np.ndarray:
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax_rows: degenerate distribution support (a row is fully masked)")
        e = np.where(mask, x, -np.inf)
        e -= e.max(axis=-1, keepdims=True)  # exp gives exactly 0 off-support: every row has support
    else:
        e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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
    """Gradients of a scalar loss with respect to named leaf Vars.

    Parameters the loss does not depend on get exact zeros. Each link's vjps
    are freed once the walk has passed it, so the arrays they read go back to
    the heap during the walk, not when the caller drops the loss.
    """
    if not isinstance(loss, Var):
        raise TypeError("loss must be a Var")
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
