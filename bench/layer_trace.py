"""Per-layer tracing from outside the program.

A Tracer replaces the module-level public functions of each mupt layer with
timing wrappers. Every binding of a function in a loaded ``mupt`` module is
swapped, so a name imported with ``from .x import y`` is traced as well as
``x.y``. Spans nest: each wrapper keeps its inclusive time and its self time,
which is the inclusive time minus that of the traced calls it made.

Layers and what is wrapped:

    model, mup, corpus, training, search, diagnostics, checkpoint
        every public module-level function, plus ModelParams.init and
        AdamW.step
    autodiff
        matmul and reverse_grad only; wrapping every elementwise tape op
        would cost more than many of the ops themselves

Besides times, the tracer counts what a training forward builds (a forward
whose parameters are tape Vars): the forward matmul calls and their FLOPs
from operand shapes, and the tape nodes reverse_grad walks.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
from time import perf_counter

import numpy as np

LAYERS = ("model", "mup", "corpus", "training", "search", "diagnostics", "checkpoint")
AUTODIFF_TRACED = ("matmul", "reverse_grad")
METHODS = (("model", "ModelParams", "init"), ("mup", "AdamW", "step"))


def _module(layer: str):
    return sys.modules[f"mupt.{layer}"]


def _public_functions(layer: str) -> dict:
    mod = _module(layer)
    names = AUTODIFF_TRACED if layer == "autodiff" else [
        n for n, obj in vars(mod).items()
        if not n.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__]
    return {n: getattr(mod, n) for n in names}


def _tape_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in getattr(stack.pop(), "_parents", ()):
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Wraps the layers while installed; keeps its statistics across installs."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.train_forwards = 0
        self.train_matmul_calls = 0
        self.train_matmul_flops = 0
        self.backward_calls = 0
        self.tape_nodes = 0
        self._stack: list[float] = []
        self._in_train_forward = False
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, before=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            restore = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if restore is not None:
                    restore()
        return wrapper

    def _enter_forward(self, args, kwargs, opens: bool):
        """Flag a forward on tape Vars as a training forward while it runs."""
        from mupt.autodiff import Var

        params = args[1] if len(args) > 1 else kwargs.get("params")
        if self._in_train_forward or not isinstance(params.get("S"), Var):
            return None
        self._in_train_forward = True
        self.train_forwards += opens

        def restore():
            self._in_train_forward = False
        return restore

    def _count_matmul(self, args, kwargs):
        if self._in_train_forward:
            a, b = (x.shape if hasattr(x, "shape") else () for x in args[:2])
            batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2]))
            self.train_matmul_calls += 1
            self.train_matmul_flops += 2 * batch * a[-2] * a[-1] * b[-1]

    def _count_tape(self, args, kwargs):
        self.backward_calls += 1
        self.tape_nodes += _tape_size(args[0])

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {"model.run_mfvi": functools.partial(self._enter_forward, opens=True),
                 "model.mlm_logits": functools.partial(self._enter_forward, opens=False),
                 "autodiff.matmul": self._count_matmul,
                 "autodiff.reverse_grad": self._count_tape}
        replace: dict[int, object] = {}
        for layer in ("autodiff",) + LAYERS:
            for name, fn in _public_functions(layer).items():
                key = f"{layer}.{name}"
                replace[id(fn)] = self._timed(key, fn, hooks.get(key))
        mupt_modules = [m for n, m in list(sys.modules.items())
                        if n == "mupt" or n.startswith("mupt.")]
        for mod in mupt_modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(_module(layer), cls_name)
            raw = cls.__dict__[meth]
            key = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._timed(key, raw.__func__))
            else:
                wrapped = self._timed(key, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- read-out ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def table(self) -> dict:
        """name -> {calls, total_ms, self_ms, ms_per_call} for every traced name."""
        return {name: {"calls": c, "total_ms": 1e3 * tot, "self_ms": 1e3 * slf,
                       "ms_per_call": 1e3 * tot / c if c else 0.0}
                for name, (c, tot, slf) in sorted(self.stats.items()) if c}


def merged_ms_per_call(tracers, name: str) -> float:
    """Mean inclusive milliseconds per call of `name` over several tracers."""
    calls = sum(t.stats.get(name, [0, 0.0])[0] for t in tracers)
    total = sum(t.stats.get(name, [0, 0.0])[1] for t in tracers)
    return 1e3 * total / calls if calls else 0.0
