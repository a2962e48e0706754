"""Gaussian-process regression over behavior space with an injectable prior mean.

One fitted model serves every output dimension of the observed outcome
vectors: the inputs and kernel are shared, so a single factorization of the
kernel matrix is reused and only the residual targets differ per dimension.
Predictions follow the prior-correction form

    mean(x) = P(x) + k(x, X) K^-1 (Y - P(X))
    var(x)  = k(x, x) - k(x, X) K^-1 k(X, x)

where P is the prior mean and K carries the modeled sampling noise on its
diagonal. With a zero prior this is plain GP regression.

A model keeps k(X, X) and P(X), so refitting after one more observation
(`fit(..., previous=model)`) evaluates the kernel and the prior only at the
new input. The factorization itself is redone from scratch each time.

`CandidatePosterior` serves a fixed query set such as a mission's candidates:
it evaluates the prior there once, grows k(X, points) by one row per
observation, and scores each fitted model once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

TWO_PI = 2.0 * np.pi

# Added to the diagonal once if the noiseless factorization fails.
JITTER = 1e-10

# Maps a behavior point to its predicted outcome vector.
PriorMean = Callable[[np.ndarray], np.ndarray]


class GpFitError(RuntimeError):
    """The kernel matrix could not be factorized for this configuration."""


class KernelFamily(Enum):
    SQUARED_EXPONENTIAL = "squared_exponential"
    EXPONENTIAL = "exponential"


class DistanceKind(Enum):
    EUCLIDEAN = "euclidean"
    WRAPPED_ANGULAR = "wrapped_angular"


@dataclass(frozen=True)
class Kernel:
    """Stationary unit-variance kernel; k(x, x) = 1 for every x."""

    family: KernelFamily = KernelFamily.SQUARED_EXPONENTIAL
    sigma: float = 0.1
    distance: DistanceKind = DistanceKind.EUCLIDEAN

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"kernel sigma must be positive, got {self.sigma}")


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"expected a (n, behavior_dim) array, got shape {pts.shape}")
    return pts


def pairwise_distance(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance matrix between two point sets under the kernel's metric.

    Wrapped-angular distance folds each coordinate difference onto [0, pi]
    before taking the Euclidean norm, so 0.1 and 2*pi - 0.1 are 0.2 apart.
    """
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"behavior dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    diff = a[:, None, :] - b[None, :, :]
    if kernel.distance is DistanceKind.WRAPPED_ANGULAR:
        diff = np.abs(diff) % TWO_PI
        diff = np.minimum(diff, TWO_PI - diff)
    return np.sqrt(np.sum(diff * diff, axis=2))


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r = pairwise_distance(kernel, a, b)
    if kernel.family is KernelFamily.SQUARED_EXPONENTIAL:
        return np.exp(-(r * r) / (2.0 * kernel.sigma * kernel.sigma))
    return np.exp(-r / kernel.sigma)


@dataclass(frozen=True)
class ObservationSet:
    """Paired behavior inputs and outcome vectors plus the modeled noise level.

    noise_variance is the sampling noise the model assumes, not necessarily
    what the world actually injects.
    """

    inputs: np.ndarray    # (t, behavior_dim)
    outputs: np.ndarray   # (t, outcome_dim)
    noise_variance: float = 0.001

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if len(inputs) != len(outputs):
            raise ValueError(f"{len(inputs)} inputs vs {len(outputs)} outputs")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def empty(cls, behavior_dim: int, outcome_dim: int, noise_variance: float = 0.001) -> "ObservationSet":
        return cls(
            inputs=np.zeros((0, behavior_dim)),
            outputs=np.zeros((0, outcome_dim)),
            noise_variance=noise_variance,
        )

    def with_observation(self, x, y) -> "ObservationSet":
        """New set with one more (input, outcome) pair appended."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return ObservationSet(
            inputs=np.vstack([self.inputs, x[None, :]]),
            outputs=np.vstack([self.outputs, y[None, :]]),
            noise_variance=self.noise_variance,
        )

    def __len__(self) -> int:
        return len(self.inputs)


def prior_values(prior: PriorMean, points: np.ndarray) -> np.ndarray:
    pts = _as_points(points)
    return np.array([np.asarray(prior(p), dtype=float) for p in pts])


def zero_prior(outcome_dim: int) -> PriorMean:
    def prior(_x: np.ndarray) -> np.ndarray:
        return np.zeros(outcome_dim)

    return prior


@dataclass(frozen=True)
class GpModel:
    """Fitted posterior state. Treat as immutable; call fit again to update."""

    kernel: Kernel
    observations: ObservationSet
    prior: PriorMean
    chol: np.ndarray                # (t, t) lower Cholesky factor of K
    prior_correction: np.ndarray    # (t, outcome_dim), equals K^-1 (Y - P(X))
    gram: np.ndarray                # (t, t) k(X, X), K without the noise
    prior_at_inputs: np.ndarray     # (t, outcome_dim) P(X)

    @property
    def behavior_dim(self) -> int:
        return self.observations.inputs.shape[1]


def fit(
    observations: ObservationSet,
    kernel: Kernel,
    prior: PriorMean,
    previous: GpModel | None = None,
) -> GpModel:
    """Factorize the kernel matrix and precompute the prior correction.

    Legal with zero observations: predictions then revert to the prior with
    unit variance. Non-finite inputs or outputs, and exact duplicate inputs
    with zero noise variance, are rejected up front: the first would spread
    NaN through the posterior, and jitter would only mask the second's
    singular matrix.

    `previous` is a model fitted with the same kernel and prior on a strict
    prefix of these observations; None stands for the empty prefix. Its Gram
    matrix and prior values are reused, so the kernel and the prior are
    evaluated only at the new inputs. The Cholesky factor and the solve are
    still computed on the whole matrix, so the result is bit-identical to a
    fit from scratch.
    """
    inputs = observations.inputs
    if not (np.isfinite(inputs).all() and np.isfinite(observations.outputs).all()):
        raise GpFitError("observation inputs and outputs must be finite")
    t = len(observations)
    if t == 0:
        return GpModel(
            kernel=kernel,
            observations=observations,
            prior=prior,
            chol=np.zeros((0, 0)),
            prior_correction=np.zeros((0, observations.outputs.shape[1])),
            gram=np.zeros((0, 0)),
            prior_at_inputs=np.zeros((0, observations.outputs.shape[1])),
        )
    if observations.noise_variance == 0.0:
        _, counts = np.unique(inputs, axis=0, return_counts=True)
        if np.any(counts > 1):
            raise GpFitError(
                "duplicate observation inputs with zero noise variance make "
                "the kernel matrix singular"
            )
    if previous is None:   # grow from the empty prefix
        empty = ObservationSet.empty(inputs.shape[1], observations.outputs.shape[1])
        previous = fit(empty, kernel, prior)
    k = len(previous.observations)
    if not (
        k < t
        and previous.kernel == kernel
        and previous.prior is prior
        and np.array_equal(previous.observations.inputs, inputs[:k])
    ):
        raise ValueError(
            "previous model must be fitted with the same kernel and prior "
            "on a strict prefix of the observations"
        )
    new_rows = kernel_matrix(kernel, inputs[k:], inputs)   # (t - k, t)
    gram = np.empty((t, t))
    gram[:k, :k] = previous.gram
    gram[k:] = new_rows
    gram[:k, k:] = new_rows[:, :k].T
    prior_at_inputs = np.concatenate([previous.prior_at_inputs, prior_values(prior, inputs[k:])])
    diagonal = np.diag_indices_from(gram)
    gram[diagonal] += observations.noise_variance
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        gram[diagonal] += JITTER
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise GpFitError(
                f"kernel matrix not positive definite (t={t}, "
                f"noise_variance={observations.noise_variance}, kernel={kernel})"
            ) from exc
    # back to k(X, X) in place instead of factorizing a copy: k(x, x) is
    # exactly 1 for every kernel here
    gram[diagonal] = 1.0
    residuals = observations.outputs - prior_at_inputs
    correction = cho_solve((chol, True), residuals, check_finite=False)
    return GpModel(
        kernel=kernel,
        observations=observations,
        prior=prior,
        chol=chol,
        prior_correction=correction,
        gram=gram,
        prior_at_inputs=prior_at_inputs,
    )


def _posterior(model: GpModel, prior_means: np.ndarray, cross: np.ndarray | None):
    """(means, variances) from the prior and k(X, points) at the query points."""
    if len(model.observations) == 0:
        return prior_means.copy(), np.ones(len(prior_means))
    means = prior_means + cross.T @ model.prior_correction
    half = solve_triangular(model.chol, cross, lower=True, check_finite=False)
    variances = 1.0 - np.einsum("ij,ij->j", half, half)
    return means, np.maximum(variances, 0.0)


def predict_batch(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, outcome_dim) and the per-point variance (n,).

    The variance is shared across output dimensions since they use the same
    inputs and kernel.
    """
    pts, inputs = _as_points(points), model.observations.inputs
    # kernel_matrix also rejects a query of another behavior dimension
    cross = kernel_matrix(model.kernel, inputs, pts) if len(inputs) > 0 else None  # (t, n)
    return _posterior(model, prior_values(model.prior, pts), cross)


class CandidatePosterior:
    """The posterior at a fixed point set: the prior there, the cross kernel
    k(X, points) with one row per observation, and the means and aggregated
    sigma of the latest model scored. `score` recomputes them only for
    another model object; models are immutable, so the kept ones are exact.
    Every model scored must use this kernel and prior and extend the inputs
    scored before."""

    def __init__(self, points, prior: PriorMean, kernel: Kernel):
        self.points = _as_points(points)
        self.prior, self.kernel = prior, kernel
        self.prior_means = prior_values(prior, self.points)     # (n, outcome_dim)
        # the inputs (t, behavior_dim) and k(inputs, points) (t, n)
        self.inputs, self.cross = np.zeros((0, self.points.shape[1])), np.zeros((0, len(self)))
        # the latest model scored, its means (n, outcome_dim) and sigma (n,)
        self.model = self.means = self.sigma = None

    def __len__(self) -> int:
        return len(self.points)

    def score(self, model: GpModel) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means (n, outcome_dim) and the aggregated uncertainty
        sqrt(sum_d var_d) = sqrt(outcome_dim * var) (n,), both read-only."""
        if model is self.model:
            return self.means, self.sigma
        # let the last model and its score go before the new one is computed
        self.model = self.means = self.sigma = None
        inputs, k = model.observations.inputs, len(self.inputs)
        if not (model.prior is self.prior and model.kernel == self.kernel
                and np.array_equal(self.inputs, inputs[:k])):
            raise ValueError("model must use this kernel and prior, extending the inputs seen")
        if k < len(inputs):
            rows = kernel_matrix(self.kernel, inputs[k:], self.points)
            self.cross, self.inputs = np.vstack([self.cross, rows]), inputs
        means, variances = _posterior(model, self.prior_means, self.cross)
        sigma = np.sqrt(means.shape[1] * variances)
        means.flags.writeable = sigma.flags.writeable = False
        self.model, self.means, self.sigma = model, means, sigma
        return means, sigma


def predict(model: GpModel, x) -> tuple[np.ndarray, float]:
    """Posterior mean vector and variance at a single behavior point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    means, variances = predict_batch(model, x[None, :])
    return means[0], float(variances[0])
