"""Reverse mode over a chain of hand-derived stages, on numpy arrays.

A training forward of the model is a fixed chain of stages, each with a
closed-form vjp (model.py): init_mfvi, one stage per mean-field sweep, the
readout mlm_logits and the loss masked_ce_loss. A `Var` is a value plus the
`Chain` that made it:

  - `Var(x)` is a leaf, with no chain: a parameter for reverse_grad. A
    recorded forward takes every parameter as a leaf;
  - its first stage, init_mfvi, opens a new `Chain`; every later stage reads
    the latest output of that chain along it and extends it (`chain_of`),
    and its output is a Var of the chain. A stage given any other Var
    there, an earlier output or a leaf, raises;
  - a stage on plain arrays records nothing and returns plain arrays, so a
    forward on plain arrays keeps nothing for a backward pass.

A chain keeps each stage's vjp, a closure over just the arrays it reads, and
the cotangents its vjps have summed so far, by key: a leaf Var, or a name
two stages agree on. reverse_grad calls the vjps last stage first, each with
the cotangent the one after it returned, and drops each once it has run, so
what a vjp reads goes back to the heap during the backward pass. A chain
takes one backward pass; a second raises. A leaf the loss never touched
gets an exact zero gradient of matching shape.

The array kernels the stages share live here too: the masked row softmax
and its vjp, the exact scatter-add behind a gather's vjp, the sum of a
cotangent down to a broadcast operand's shape, and `matmul`, the checked
batched product of the readout's forward. `finite_diff_check` holds a
gradient, however it was computed, against central differences of a loss
on plain arrays.

Importing this module pins glibc malloc's mmap and trim thresholds and its
arena count for the whole process (see _pin_malloc); every numeric path imports it.
"""
from __future__ import annotations

import math
import os
from typing import Callable, Mapping

import numpy as np

__all__ = ["Var", "Chain", "chain_of", "val", "matmul", "reverse_grad",
           "finite_diff_check", "FiniteDiffReport"]

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


class Var:
    """An ndarray value and the chain that made it, None for a leaf."""

    __slots__ = ("value", "chain")

    def __init__(self, value, chain: Chain | None = None) -> None:
        self.value = value if isinstance(value, np.ndarray) and value.dtype in _FLOATS else _as_array(value)
        self.chain = chain

    def __repr__(self) -> str:
        return f"Var(shape={self.value.shape}, leaf={self.chain is None})"


class Chain:
    """The record of one forward: its stages' vjps in forward order and the
    cotangents the vjps have summed so far, by key.

    A vjp is called as vjp(g, chain) with the cotangent of its stage's
    output. It sums the cotangents of the stage's other inputs into the
    chain (`add`) and returns that of its input along the chain, None for
    the first stage, which has none.
    """

    __slots__ = ("vjps", "sums", "tip")

    def __init__(self) -> None:
        self.vjps: list[Callable] = []
        self.sums: dict = {}
        self.tip = None     # id of the latest output: only it may be extended

    def add(self, key, g: np.ndarray) -> None:
        """Sum g into key's cotangent, after what was summed there before."""
        acc = self.sums.get(key)
        self.sums[key] = g if acc is None else acc + g

    def extend(self, value, vjp: Callable) -> Var:
        """value as the output of a new last stage whose reverse is vjp."""
        self.vjps.append(vjp)
        out = Var(value, self)
        self.tip = id(out)
        return out


def chain_of(x) -> Chain | None:
    """The chain a stage extends that reads x along the chain: x's own, if x
    is the latest output of a chain, or None for a plain array, and the
    stage records nothing. A leaf, which no stage made, is no chain's
    latest output."""
    if not isinstance(x, Var):
        return None
    if x.chain is None or x.chain.tip != id(x):
        raise ValueError("a recorded forward is one chain from init_mfvi: extend it from "
                         "its latest output")
    return x.chain


def val(x) -> np.ndarray:
    """The plain ndarray behind x, whether or not it is a Var."""
    return x.value if isinstance(x, Var) else _as_array(x)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix product; both operands must be at least 2-D."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs ndim >= 2 operands, got {a.ndim} and {b.ndim}")
    return np.matmul(a, b)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape of the operand it belongs to."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


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


def _gather_vjp(indices: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """The cotangent of a table of `shape` gathered along axis 0 at integer
    `indices`, g the gather's cotangent: an exact scatter-add."""
    rest = math.prod(shape[1:])
    flat = (indices % shape[0])[..., None] * rest + np.arange(rest)
    return _scatter_add(flat, g, shape)


def _softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The cotangent of a row softmax's input, p * (g - sum(g * p)), with one
    temporary; p is the softmax's output and g the cotangent of p."""
    out = g * p
    inner = out.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=out)
    out *= p
    return out


def _softmax_np(x: np.ndarray, mask) -> np.ndarray:
    """Row-stochastic softmax over the last axis.

    mask, if given, is boolean and broadcastable to x: False entries are
    excluded from the support and come out exactly 0. A row whose support is
    empty has no normalizable distribution and is an error.
    """
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("row softmax: degenerate distribution support (a row is fully masked)")
        e = np.where(mask, x, -np.inf)
        e -= e.max(axis=-1, keepdims=True)  # exp gives exactly 0 off-support: every row has support
    else:
        e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def reverse_grad(loss: Var, params: Mapping[str, Var]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss with respect to named leaf Vars.

    Runs the loss's chain backward, each stage's vjp dropped once it has
    run. Parameters the loss does not depend on get exact zeros.
    """
    if not isinstance(loss, Var):
        raise TypeError("loss must be a Var")
    if loss.value.shape != ():
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    chain, sums = loss.chain, {}
    if chain is not None:
        if not chain.vjps:
            raise ValueError("reverse_grad met a chain an earlier backward pass ran: "
                             "build a new forward pass for each backward pass")
        g = np.ones((), dtype=loss.value.dtype)
        while chain.vjps:
            g = chain.vjps.pop()(g, chain)
        sums = chain.sums
    out = {}
    for name, p in params.items():
        g = sums.get(p)
        if g is None:
            out[name] = np.zeros_like(p.value)
        else:
            out[name] = np.broadcast_to(g, p.value.shape).astype(p.value.dtype, copy=True)
    sums.clear()            # out holds copies; the loss may outlive this call
    return out


class FiniteDiffReport:
    """Worst-case agreement between gradients and central differences.

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


def finite_diff_check(loss_fn: Callable[[dict[str, np.ndarray]], object],
                      params: Mapping[str, np.ndarray],
                      grads: Mapping[str, np.ndarray],
                      step: float = 1e-5,
                      rtol: float = 1e-6,
                      atol: float = 1e-8) -> FiniteDiffReport:
    """Compare gradients against central finite differences.

    loss_fn maps plain arrays to a scalar and must be a deterministic pure
    function of them; this is verified by evaluating the base point twice
    and requiring bit equality. grads holds the gradient under test for
    every name in params, however it was computed. Every coordinate of every
    parameter is probed with a symmetric step.
    """
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}

    def eval_loss(values: Mapping[str, np.ndarray]) -> float:
        v = val(loss_fn({k: v.copy() for k, v in values.items()}))
        if v.shape != ():
            raise ValueError("loss_fn must return a scalar")
        return float(v)

    if eval_loss(base) != eval_loss(base):
        raise ValueError("loss_fn is not deterministic: two evaluations disagree bitwise")

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
