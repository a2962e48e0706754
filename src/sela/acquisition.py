"""UCB selection of the next behavior from a finite candidate set.

Scores every candidate as reward(posterior mean) + alpha * aggregated
uncertainty and returns the argmax. The aggregated uncertainty pools the
per-dimension posterior variances, sqrt(sum_d var_d); with the shared
factorization that is sqrt(outcome_dim * var). Ties resolve to the lowest
candidate index so selection is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gp import CandidatePosterior, _as_points, predict_batch  # noqa: F401 (perfbench patches it)

# Largest dense direction grid: one cross-kernel row per observation is then
# at most 80 KB.
MAX_CANDIDATES = 10_000


@dataclass(frozen=True)
class CandidateSet:
    """Finite, duplicate-free pool of behavior points to select from."""

    points: np.ndarray   # (n, behavior_dim)

    def __post_init__(self):
        pts = _as_points(self.points)
        if len(pts) == 0:
            raise ValueError("candidate set must not be empty")
        if len(set(map(tuple, pts.tolist()))) != len(pts):   # np.unique would import numpy.ma
            raise ValueError("candidate set contains duplicate points")
        object.__setattr__(self, "points", pts)

    @classmethod
    def dense_theta_grid(cls, resolution: int = 360) -> "CandidateSet":
        """Evenly spaced directions covering (-pi, pi].

        With the default resolution the grid sits on whole degrees, so the
        axis directions and the diagonals are all exactly representable.
        """
        if not 1 <= resolution <= MAX_CANDIDATES:
            raise ValueError(f"resolution must be in [1, {MAX_CANDIDATES}], got {resolution}")
        steps = np.arange(1, resolution + 1)
        thetas = -np.pi + steps * (2.0 * np.pi / resolution)
        return cls(points=thetas[:, None])


def select_next(
    posterior: CandidatePosterior,
    reward: Callable[[np.ndarray], np.ndarray],
    alpha: float,
) -> tuple[np.ndarray, int]:
    """Behavior point and index maximizing the UCB score over the points of `posterior`, which
    scores its model once per size. `reward` scores all posterior means in one call,
    (n, outcome_dim) -> (n,); `alpha` weighs the uncertainty bonus, and zero adds none."""
    means, sigma_agg = posterior.score()
    scores = reward(means) + alpha * sigma_agg if alpha else reward(means)
    index = int(scores.argmax())
    return posterior.points[index].copy(), index
