"""Model geometry and hyperparameter containers.

PTConfig fixes the shape of one probabilistic-transformer instance: N label
values per token (width), C head channels of rank r, M topic values, and the
inference temperature tau = N / r that the closed-form updates cancel against.
Two width-scaling regimes are recognized: "scale_channels" grows the channel
count at fixed rank (tau grows with N), "scale_rank" grows the rank at fixed
channel count (tau pinned).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

__all__ = ["SCALE_CHANNELS", "SCALE_RANK", "PARADIGMS", "PTConfig", "InfoWeights", "HPPoint"]

SCALE_CHANNELS = "scale_channels"
SCALE_RANK = "scale_rank"
PARADIGMS = (SCALE_CHANNELS, SCALE_RANK)


@dataclass(frozen=True)
class PTConfig:
    """Geometry and fixed constants of one model instance.

    pos_bias toggles the learned relative-position term on the attention
    logits, one entry per clipped offset in [-pos_clip, pos_clip] but 0, so
    pos_buckets = 2 * pos_clip. It defaults on for training; the diagnostics
    take the geometry they are given, and their callers turn it off to probe
    the bare bilinear logits.
    """

    width: int
    rank: int
    channels: int
    topics: int
    vocab_size: int
    pos_bias: bool = True
    pos_buckets: int = 32
    pos_clip: int = 16
    rms_eps: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("width", "rank", "channels", "topics", "vocab_size"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.rank > self.width:
            raise ConfigError(f"rank ({self.rank}) must not exceed width ({self.width})")
        if self.pos_clip < 1 or self.pos_buckets != 2 * self.pos_clip:
            raise ConfigError(f"pos_clip must be >= 1 and pos_buckets 2 * pos_clip, "
                              f"got {self.pos_clip} and {self.pos_buckets}")

    @property
    def tau(self) -> float:
        """Inference temperature N / r."""
        return self.width / self.rank

    def with_(self, **kw) -> "PTConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class InfoWeights:
    """Multipliers on the six message families entering the mean-field updates.

    All six must be positive; 1.0 everywhere reproduces the plain updates.
    """

    w_unary: float = 1.0
    w_tern_dep: float = 1.0
    w_tern_head: float = 1.0
    w_binary: float = 1.0
    w_attn: float = 1.0
    w_topic: float = 1.0

    ORDER = ("w_unary", "w_tern_dep", "w_tern_head", "w_binary", "w_attn", "w_topic")

    def __post_init__(self) -> None:
        for name in self.ORDER:
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v!r}")

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in self.ORDER], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "InfoWeights":
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (6,):
            raise ConfigError(f"InfoWeights.from_array expects 6 values, got shape {a.shape}")
        return cls(**dict(zip(cls.ORDER, (float(x) for x in a))))


@dataclass(frozen=True)
class HPPoint:
    """One point of the tuned hyperparameter space: base LR plus InfoWeights.

    Coordinate order for vectorization, distances, and neighborhood sampling is
    fixed and documented: (lr, w_unary, w_tern_dep, w_tern_head, w_binary,
    w_attn, w_topic).
    """

    lr: float = 1e-3
    weights: InfoWeights = field(default_factory=InfoWeights)

    DIM = 7

    def __post_init__(self) -> None:
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")

    def to_array(self) -> np.ndarray:
        return np.concatenate(([self.lr], self.weights.to_array()))

    @classmethod
    def from_array(cls, a) -> "HPPoint":
        a = np.asarray(a, dtype=np.float64)
        if a.shape != (cls.DIM,):
            raise ConfigError(f"HPPoint.from_array expects {cls.DIM} values, got shape {a.shape}")
        return cls(lr=float(a[0]), weights=InfoWeights.from_array(a[1:]))

    def to_dict(self) -> dict:
        """Flat {"lr": ..., "w_unary": ..., ...}, the form configs and records use."""
        return {"lr": self.lr, **{k: getattr(self.weights, k) for k in InfoWeights.ORDER}}

    @classmethod
    def from_dict(cls, d: dict) -> "HPPoint":
        keys = ("lr",) + InfoWeights.ORDER
        if set(d) != set(keys):
            raise ConfigError(f"HPPoint.from_dict expects exactly the keys {keys}, "
                              f"got {sorted(d)}")
        return cls(lr=d["lr"], weights=InfoWeights(**{k: d[k] for k in InfoWeights.ORDER}))

    def with_lr(self, lr: float) -> "HPPoint":
        return HPPoint(lr=lr, weights=self.weights)
