"""Grouped parametrization: width-aware init scales, learning rates, AdamW.

Tensors fall into four groups that scale differently with the width N:

    input   (S, gamma, P_rel)   init N(0, 1),      LR eta
    hidden  (U, V, B)           init N(0, 1/N),    LR eta / N
    output  (W_out)             init N(0, 1/N^2),  LR eta / N
    bias    (b_out)             init 0,            LR eta

This table is the one source of every init scale and learning rate.
hidden_lr_scaling="constant" (hidden LR eta at every width) is a deliberately
mis-scaled negative control for the coordinate check and must never be used
for real training.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PTConfig, SCALE_CHANNELS, SCALE_RANK, PARADIGMS
from .errors import ConfigError

__all__ = [
    "INPUT", "HIDDEN", "OUTPUT", "BIAS", "GROUPS",
    "classify_param", "init_sigma", "tensor_sigma",
    "group_lr", "AdamW", "WidthScaler", "scale_width",
]

INPUT = "input"
HIDDEN = "hidden"
OUTPUT = "output"
BIAS = "bias"
GROUPS = (INPUT, HIDDEN, OUTPUT, BIAS)

_GROUP_OF = {
    "S": INPUT,
    "gamma": INPUT,
    "P_rel": INPUT,
    "U": HIDDEN,
    "V": HIDDEN,
    "B": HIDDEN,
    "W_out": OUTPUT,
    "b_out": BIAS,
}

# Zero-initialized despite its group; excluded from init-variance audits.
ZERO_INIT_NAMES = frozenset({"P_rel"})

# Decoupled weight decay touches weight matrices only, never biases or gains.
DECAY_NAMES = frozenset({"S", "U", "V", "B", "W_out"})


def classify_param(name: str) -> str:
    try:
        return _GROUP_OF[name]
    except KeyError:
        raise ConfigError(f"unknown parameter tensor: {name!r}") from None


def init_sigma(group: str, width: int) -> float:
    """Initialization scale for a group at width N: {1, 1/sqrt(N), 1/N, 0}."""
    if group == INPUT:
        return 1.0
    if group == HIDDEN:
        return float(width) ** -0.5
    if group == OUTPUT:
        return 1.0 / float(width)
    if group == BIAS:
        return 0.0
    raise ConfigError(f"unknown parameter group: {group!r}")


def tensor_sigma(name: str, width: int) -> float:
    """Initialization scale of one named tensor at width N: its group's scale,
    or 0 for the zero-initialized tensors."""
    return 0.0 if name in ZERO_INIT_NAMES else init_sigma(classify_param(name), width)


def group_lr(group: str, eta: float, width: int,
             hidden_lr_scaling: str = "mup") -> float:
    """Per-group learning rate at width N for base rate eta."""
    if hidden_lr_scaling not in ("mup", "constant"):
        raise ConfigError(f"hidden_lr_scaling must be 'mup' or 'constant', got {hidden_lr_scaling!r}")
    if group in (INPUT, BIAS):
        return eta
    if group == HIDDEN:
        return eta if hidden_lr_scaling == "constant" else eta / width
    if group == OUTPUT:
        return eta / width
    raise ConfigError(f"unknown parameter group: {group!r}")


class AdamW:
    """Decoupled-weight-decay Adam with per-group learning rates.

    Moments are kept per tensor; the decay term multiplies the group LR and is
    skipped entirely for biases, gains, and the position table. The update is
    the standard bias-corrected form:

        m <- b1 m + (1-b1) g        mhat = m / (1 - b1^t)
        v <- b2 v + (1-b2) g^2      vhat = v / (1 - b2^t)
        p <- p - lr (mhat / (sqrt(vhat) + eps) + wd * p)
    """

    def __init__(self, shapes: dict[str, tuple], width: int, eta: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01,
                 hidden_lr_scaling: str = "mup") -> None:
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros(s, dtype=np.float64) for k, s in shapes.items()}
        self.v = {k: np.zeros(s, dtype=np.float64) for k, s in shapes.items()}
        self.lr_of = {
            k: group_lr(classify_param(k), eta, width, hidden_lr_scaling) for k in shapes
        }

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Advance every tensor in place by one update."""
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            # the closed form above, operation for operation, in two temporaries
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            tmp = np.multiply(g, 1.0 - self.beta1)
            m += tmp
            v *= self.beta2
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - self.beta2
            v += tmp
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            update = np.divide(m, c1)
            update /= tmp
            if self.weight_decay != 0.0 and name in DECAY_NAMES:
                np.multiply(p, self.weight_decay, out=tmp)
                update += tmp
            update *= self.lr_of[name]
            p -= update


def scale_width(base: PTConfig, target_width: int, paradigm: str) -> PTConfig:
    """Rescale a base geometry to a target width under one paradigm.

    scale_channels: rank pinned, channels and topics grow with N (tau = N/r0
    grows). scale_rank: channels pinned, rank and topics grow with N (tau
    pinned at N0/r0). Widths that do not scale the integer fields evenly are
    rejected rather than rounded.
    """
    if paradigm not in PARADIGMS:
        raise ConfigError(f"paradigm must be one of {PARADIGMS}, got {paradigm!r}")
    if target_width < 1:
        raise ConfigError(f"target width must be positive, got {target_width}")

    def scaled(value: int, what: str) -> int:
        out = value * target_width
        if out % base.width != 0:
            raise ConfigError(
                f"cannot scale {what}={value} from width {base.width} to {target_width}: "
                f"result is not an integer")
        return out // base.width

    topics = scaled(base.topics, "topics")
    if paradigm == SCALE_CHANNELS:
        return base.with_(width=target_width, topics=topics,
                          channels=scaled(base.channels, "channels"))
    return base.with_(width=target_width, topics=topics,
                      rank=scaled(base.rank, "rank"))


@dataclass(frozen=True)
class WidthScaler:
    """A base geometry plus the paradigm used to reach other widths."""

    base: PTConfig
    paradigm: str

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ConfigError(f"paradigm must be one of {PARADIGMS}, got {self.paradigm!r}")

    def config_at(self, width: int) -> PTConfig:
        return scale_width(self.base, width, self.paradigm)
