"""Local-optimality verification for the transferable hyperparameter point.

A point is declared locally optimal "in the top-p of its neighborhood at
confidence 1-alpha" when none of n >= ln(alpha)/ln(1-p) uniform draws from
the +/-20% per-coordinate box trains to a better matched-seed loss. The
sample-count bound, confidence formula, and relative distance metric are
exactly reproducible and are tested against closed forms; the training runs
themselves are ordinary shortened runs from training.py.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import HPPoint, PTConfig
from .corpus import Corpus
from .errors import ConfigError
from .rng import SeededRng
from .svgplot import line_svg, scatter_svg
from .training import TrainSettings, train_run
from .util import canonical_json, short_hash

__all__ = [
    "min_samples", "sample_size_bound", "confidence",
    "hp_distance", "sample_neighborhood",
    "VerificationReport", "verify_local_optimality",
    "VERIFY_CSV_HEADER",
]

VERIFY_CSV_HEADER = "sample_id,distance,loss,loss_increase_rel"
SCHEMA_VERSION = "1"


def sample_size_bound(p: float = 0.05, alpha: float = 0.05) -> float:
    """Real-valued lower bound ln(alpha)/ln(1-p) on the sample count."""
    if not (0.0 < p < 1.0 and 0.0 < alpha < 1.0):
        raise ConfigError("p and alpha must lie strictly between 0 and 1")
    return math.log(alpha) / math.log1p(-p)


def min_samples(p: float = 0.05, alpha: float = 0.05) -> int:
    """Smallest integer n with (1-p)^n <= alpha."""
    return math.ceil(sample_size_bound(p, alpha))


def confidence(n: int, p: float = 0.05) -> float:
    """P(at least one of n uniform draws lands in the top-p set) = 1-(1-p)^n."""
    if n < 0:
        raise ConfigError("sample count must be nonnegative")
    if not 0.0 < p < 1.0:
        raise ConfigError("p must lie strictly between 0 and 1")
    return 1.0 - (1.0 - p) ** n

def hp_distance(base: HPPoint, other: HPPoint) -> float:
    """Relative L2 distance sqrt(sum_i ((other_i - base_i)/base_i)^2)."""
    a, b = base.to_array(), other.to_array()
    if np.any(a == 0.0):
        raise ConfigError("relative distance undefined at a zero base coordinate")
    return float(np.sqrt(np.sum(((b - a) / a) ** 2)))


def sample_neighborhood(base: HPPoint, n: int, rng: SeededRng,
                        scale: float = 0.2) -> list[HPPoint]:
    """n uniform draws from the per-coordinate box [x(1-scale), x(1+scale)]."""
    if n <= 0:
        raise ConfigError("need a positive number of samples")
    if not 0.0 < scale < 1.0:
        raise ConfigError("scale must lie strictly between 0 and 1")
    center = base.to_array()
    draws = rng.uniform(1.0 - scale, 1.0 + scale, (n, center.size))
    return [HPPoint.from_array(center * row) for row in np.asarray(draws)]


@dataclass
class VerificationReport:
    """Outcome of one neighborhood verification."""

    base_hp: dict
    p: float
    alpha: float
    n_samples: int
    confidence: float
    base_loss: float
    rank: int                      # 1 = base beats every sample
    n_better: int
    n_within_noise: int            # better, but by <= noise_tol relative
    noise_tol: float
    locally_optimal: bool          # no sample beats base beyond noise_tol
    sample_losses: list[float] = field(default_factory=list)
    distances: list[float] = field(default_factory=list)
    artifacts: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return canonical_json({
            "schema_version": SCHEMA_VERSION,
            "base_hp": self.base_hp,
            "p": self.p, "alpha": self.alpha,
            "n_samples": self.n_samples,
            "confidence": self.confidence,
            "base_loss": self.base_loss,
            "rank": self.rank,
            "n_better": self.n_better,
            "n_within_noise": self.n_within_noise,
            "noise_tol": self.noise_tol,
            "locally_optimal": self.locally_optimal,
            "sample_losses": self.sample_losses,
            "distances": self.distances,
            "artifacts": self.artifacts,
        })

    def summary(self) -> str:
        flag = "locally optimal" if self.locally_optimal else "beaten"
        noise = (f" ({self.n_within_noise} within training-noise tolerance)"
                 if self.n_within_noise else "")
        return (f"base rank {self.rank}/{self.n_samples + 1}, "
                f"{self.n_better} better{noise}, confidence {self.confidence:.4f}: {flag}")


def verify_local_optimality(config: PTConfig, base_hp: HPPoint, corpus: Corpus,
                            seed: int, settings: TrainSettings,
                            out_dir: str, p: float = 0.05, alpha: float = 0.05,
                            n: int | None = None, scale: float = 0.2,
                            noise_tol: float = 0.004) -> VerificationReport:
    """Train base and n neighborhood draws under one matched seed and rank.

    Every run shares the seed, hence identical data order, corruption, and
    init; only the hyperparameter point differs. Artifacts: a CSV of all runs,
    a distance-vs-loss-increase scatter, and a sorted-loss rank curve.
    """
    if n is None:
        n = min_samples(p, alpha)
    if n < min_samples(p, alpha):
        raise ConfigError(
            f"{n} samples cannot reach confidence {1 - alpha:g} at p={p:g}; "
            f"need at least {min_samples(p, alpha)}")
    os.makedirs(out_dir, exist_ok=True)

    hps = sample_neighborhood(base_hp, n, SeededRng(seed).spawn("neighborhood"), scale)
    base_rec = train_run(config, base_hp, corpus, seed, settings)
    base_loss = base_rec.final_eval_loss
    losses, dists = [], []
    for hp in hps:
        rec = train_run(config, hp, corpus, seed, settings)
        losses.append(rec.final_eval_loss)
        dists.append(hp_distance(base_hp, hp))

    n_better = sum(1 for x in losses if x < base_loss)
    rank = n_better + 1
    rel_gain = [(base_loss - x) / base_loss for x in losses]
    n_within_noise = sum(1 for g in rel_gain if 0.0 < g <= noise_tol)
    locally_optimal = n_better == n_within_noise

    tag = short_hash({"seed": seed, "hp": base_hp.to_array().tolist(),
                      "width": config.width, "n": n})
    csv_path = os.path.join(out_dir, f"verify-{tag}.csv")
    rows = [VERIFY_CSV_HEADER, f"0,0.0,{base_loss!r},0.0"]
    for i, (d, x) in enumerate(zip(dists, losses), start=1):
        rows.append(f"{i},{d!r},{x!r},{(x - base_loss) / base_loss!r}")
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")

    scatter_path = os.path.join(out_dir, f"verify-scatter-{tag}.svg")
    scatter_svg(scatter_path,
                list(zip(dists, [(x - base_loss) / base_loss for x in losses])),
                title="Neighborhood perturbations vs base",
                xlabel="relative HP distance from base",
                ylabel="relative loss increase",
                highlight=(0.0, 0.0), highlight_label="base")

    rank_path = os.path.join(out_dir, f"verify-rank-{tag}.svg")
    ordered = sorted(losses + [base_loss])
    base_pos = ordered.index(base_loss) + 1
    line_svg(rank_path,
             [("sorted final losses", list(zip(range(1, len(ordered) + 1), ordered)))],
             title="Rank curve of neighborhood runs",
             xlabel="rank (1 = lowest loss)", ylabel="final eval loss",
             vline=float(base_pos), vline_label=f"base (rank {base_pos})")

    report = VerificationReport(
        base_hp=base_hp.to_dict(),
        p=p, alpha=alpha, n_samples=n, confidence=confidence(n, p),
        base_loss=base_loss, rank=rank, n_better=n_better,
        n_within_noise=n_within_noise, noise_tol=noise_tol,
        locally_optimal=locally_optimal,
        sample_losses=losses, distances=dists,
        artifacts={"csv": csv_path, "scatter_svg": scatter_path,
                   "rank_svg": rank_path})
    json_path = os.path.join(out_dir, f"verify-{tag}.json")
    with open(json_path, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    report.artifacts["json"] = json_path
    return report
