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
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import HPPoint, PTConfig
from .corpus import Corpus
from .errors import ConfigError
from .parallel import map_jobs
from .rng import SeededRng
from .svgplot import line_svg, scatter_svg
from .training import TrainSettings, train_run
from .util import canonical_json, short_hash, write_text

__all__ = [
    "min_samples", "sample_size_bound", "confidence",
    "hp_distance", "sample_neighborhood",
    "VerificationReport", "verify_local_optimality", "verify_scatter_svg",
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
        return canonical_json({"schema_version": SCHEMA_VERSION, **asdict(self)})

    def summary(self) -> str:
        flag = "locally optimal" if self.locally_optimal else "beaten"
        noise = (f" ({self.n_within_noise} within training-noise tolerance)"
                 if self.n_within_noise else "")
        return (f"base rank {self.rank}/{self.n_samples + 1}, "
                f"{self.n_better} better{noise}, confidence {self.confidence:.4f}: {flag}")


def verify_scatter_svg(path, points) -> None:
    """The neighborhood chart: (distance, relative loss increase) of every
    sample around the base point at the origin. verify_local_optimality and
    `mupt plot` on its CSV both draw it here."""
    scatter_svg(path, points, title="Neighborhood perturbations vs base",
                xlabel="relative HP distance from base",
                ylabel="relative loss increase",
                highlight=(0.0, 0.0), highlight_label="base")


def verify_local_optimality(config: PTConfig, base_hp: HPPoint, corpus: Corpus,
                            seed: int, settings: TrainSettings,
                            out_dir: str, p: float = 0.05, alpha: float = 0.05,
                            n: int | None = None, scale: float = 0.2,
                            noise_tol: float = 0.004) -> VerificationReport:
    """Train base and n neighborhood draws under one matched seed and rank.

    Every run shares the seed, hence identical data order, corruption, and
    init; only the hyperparameter point differs. Artifacts: a CSV of all runs,
    a distance-vs-loss-increase scatter, and a sorted-loss rank curve.

    The n + 1 runs train in parallel on the usable CPUs (map_jobs) and the
    report and artifacts are identical to a serial verification; `taskset -c 0`
    makes it serial. Only the calling process writes the artifacts.
    """
    if n is None:
        n = min_samples(p, alpha)
    if n < min_samples(p, alpha):
        raise ConfigError(
            f"{n} samples cannot reach confidence {1 - alpha:g} at p={p:g}; "
            f"need at least {min_samples(p, alpha)}")
    os.makedirs(out_dir, exist_ok=True)

    hps = sample_neighborhood(base_hp, n, SeededRng(seed).spawn("neighborhood"), scale)
    dists = [hp_distance(base_hp, hp) for hp in hps]
    labels = ["base"] + [f"neighbour {i}" for i in range(1, n + 1)]
    runs = map_jobs(train_run, [(label, (config, hp, corpus, seed, settings))
                                for label, hp in zip(labels, [base_hp, *hps])])
    base_loss, *losses = [rec.final_eval_loss for rec in runs]

    n_better = sum(1 for x in losses if x < base_loss)
    rank = n_better + 1
    rel_increase = [(x - base_loss) / base_loss for x in losses]
    n_within_noise = sum(1 for r in rel_increase if -noise_tol <= r < 0.0)
    locally_optimal = n_better == n_within_noise

    tag = short_hash({"seed": seed, "hp": base_hp.to_array().tolist(),
                      "width": config.width, "n": n})
    csv_path = os.path.join(out_dir, f"verify-{tag}.csv")
    rows = [VERIFY_CSV_HEADER, f"0,0.0,{base_loss!r},0.0"]
    for i, (d, x, r) in enumerate(zip(dists, losses, rel_increase), start=1):
        rows.append(f"{i},{d!r},{x!r},{r!r}")
    write_text(csv_path, "\n".join(rows))

    scatter_path = os.path.join(out_dir, f"verify-scatter-{tag}.svg")
    verify_scatter_svg(scatter_path, list(zip(dists, rel_increase)))

    rank_path = os.path.join(out_dir, f"verify-rank-{tag}.svg")
    ordered = sorted(losses + [base_loss])
    line_svg(rank_path,
             [("sorted final losses", list(zip(range(1, len(ordered) + 1), ordered)))],
             title="Rank curve of neighborhood runs",
             xlabel="rank (1 = lowest loss)", ylabel="final eval loss",
             vline=float(rank), vline_label=f"base (rank {rank})")

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
    write_text(json_path, report.to_json())
    report.artifacts["json"] = json_path
    return report
