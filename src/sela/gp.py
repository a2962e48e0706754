"""Gaussian-process regression over behavior space with an injectable prior mean.

One fitted model serves every output dimension of the observed outcome
vectors: the inputs and kernel are shared, so a single factorization of the
kernel matrix is reused and only the residual targets differ per dimension.
Predictions follow the prior-correction form

    mean(x) = P(x) + k(x, X) K^-1 (Y - P(X)) = P(x) + (L^-1 k(X, x)) . z
    var(x)  = k(x, x) - k(x, X) K^-1 k(X, x) = 1 - |L^-1 k(X, x)|^2

where P is the prior mean, K = L L^T carries the modeled sampling noise on its
diagonal and z = L^-1 (Y - P(X)). With a zero prior this is plain GP regression
(Rasmussen & Williams 2006, Algorithm 2.1, split row by row).

A model grows one observation at a time through a `CandidatePosterior` (below); the rows
of its factor `chol` are its one record of its size t. Row t of L is r = L^-1 k(X, x_t)
over the earlier inputs followed by L_tt = sqrt(1 + noise + jitter - r.r), and z grows by
z_t = (y_t - P(x_t) - r.z) / L_tt, one O(t) dot, with no triangular solve. The noise
alone sets the jitter: JITTER for a noise variance below it and 0 otherwise, so a repeated
input factors even without noise. A pivot that is not positive raises GpFitError. `fit`
builds a model from scratch by learning each input at its index of a posterior at the inputs.

`CandidatePosterior` serves one model at a fixed query set such as a mission's candidates,
and is the one place that forms h = L^-1 k(X, points) and the means. It evaluates the prior
P there once and keeps, one row per observation, k(X, points) and h, whose row i is
(k(x_i, points) - L[i, :i] h[:i]) / L_ii, as `learn` fills a new row. Its means are
P + sum_i z_i h_i and its variance 1 - sum_i h_i^2, so each row adds one rank-1 term to both
sums, and a score multiplies nothing over the t rows. `learn` takes r and P(x_t) from column
`index` of the posterior, or elsewhere (only babbling learns there) from a new posterior at
x_t, both of the model before the row. It grows the model and its rows in one pass, writing
past t into buffers that double together when full, so read-only views taken before stay
valid. `predict_batch` is a new posterior's score: the bits of any posterior of the model at
its points. The same rows learned at the same indices of the same points give the same model;
numpy's products round by a column's position and the row width, so learning at other points
gives other bits: with a noise variance of 1e-3 or more, the factor lies within 1e-12 and z
within 1e-9 of a textbook fit. The config check bounds models at `MAX_GP_OBSERVATIONS` inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

TWO_PI = 2.0 * np.pi

# On K's diagonal, from the first row on, of every model whose noise variance is below it.
JITTER = 1e-10

# Largest model a config may grow: at 1,000 inputs a learning step at 360 candidates takes about
# 0.2 ms, a fit from scratch 0.2 s (2-vCPU x86-64, one OpenBLAS thread); no buffer doubles past it.
MAX_GP_OBSERVATIONS = 1_000

# Smallest kernel sigma. Below about 1e-154, 2 sigma^2 leaves the normal floats, and the
# squared-exponential r^2 / (2 sigma^2) is 0/0 at r = 0 (k(x, x) = NaN, not 1) or overflows;
# from 1e-100 up it stays finite for every distance below 1e54.
MIN_KERNEL_SIGMA = 1e-100

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
        if not self.sigma >= MIN_KERNEL_SIGMA:
            raise ValueError(f"kernel sigma must be at least {MIN_KERNEL_SIGMA}, got {self.sigma}")


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"expected a (n, behavior_dim) array, got shape {pts.shape}")
    return pts


def kernel_matrix(kernel: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """k(a, b) between two point sets under the kernel's metric.

    Wrapped-angular distance folds each coordinate difference onto [0, pi]
    before taking the Euclidean norm, so 0.1 and 2*pi - 0.1 are 0.2 apart.
    """
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"behavior dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    diff = a[:, None, :] - b[None, :, :]
    if kernel.distance is DistanceKind.WRAPPED_ANGULAR:
        np.fmod(np.abs(diff, out=diff), TWO_PI, out=diff)   # np.remainder's bits at |diff|
        np.minimum(diff, TWO_PI - diff, out=diff)
    squares = np.multiply(diff, diff, out=diff)
    r = np.sqrt(squares[:, :, 0] if a.shape[1] == 1 else np.add.reduce(squares, axis=2))
    if kernel.family is KernelFamily.SQUARED_EXPONENTIAL:
        return np.exp(r * r / (-2.0 * kernel.sigma * kernel.sigma))   # the bits of -(r * r) / (2 sigma^2)
    return np.exp(r / -kernel.sigma)


def _doubled(buffer: np.ndarray, axes=(0,), zeroed=False) -> np.ndarray:
    """A copy of `buffer`, zeroed past it or not, with room for twice its rows along `axes`
    (capped at MAX_GP_OBSERVATIONS), or for one more if that is more."""
    capacity = buffer.shape[axes[0]]
    room = max(capacity + 1, min(2 * capacity, MAX_GP_OBSERVATIONS))
    shape = [room if axis in axes else n for axis, n in enumerate(buffer.shape)]
    grown = (np.zeros if zeroed else np.empty)(shape)
    grown[tuple(map(slice, buffer.shape))] = buffer
    return grown


@dataclass(eq=False)
class ObservationSet:
    """Paired behavior inputs and outcome vectors plus the modeled noise level.

    noise_variance is the sampling noise the model assumes, not necessarily
    what the world actually injects. The set copies the caller's arrays into
    `rows`; `inputs` and `outputs` are read-only views of its first t rows.
    """

    inputs: np.ndarray    # (t, behavior_dim)
    outputs: np.ndarray   # (t, outcome_dim)
    noise_variance: float = 0.001
    rows: np.ndarray = field(init=False, repr=False)   # [input, outcome] per row; `learn` doubles it when full

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if len(inputs) != len(outputs):
            raise ValueError(f"{len(inputs)} inputs vs {len(outputs)} outputs")
        if not self.noise_variance >= 0:
            raise ValueError("noise_variance must be non-negative")
        self.rows, b = np.concatenate([inputs, outputs], axis=1), inputs.shape[1]
        self.inputs, self.outputs = self.rows[:, :b], self.rows[:, b:]
        self.inputs.flags.writeable = self.outputs.flags.writeable = False

    @classmethod
    def empty(cls, behavior_dim: int, outcome_dim: int, noise_variance: float) -> "ObservationSet":
        return cls(
            inputs=np.zeros((0, behavior_dim)),
            outputs=np.zeros((0, outcome_dim)),
            noise_variance=noise_variance,
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


@dataclass(eq=False)
class GpModel:
    """Fitted posterior state of the first t = len(chol) observations; `fit` builds it and
    `CandidatePosterior.learn` grows it in place. K's diagonal follows from the noise
    variance alone (see JITTER)."""

    kernel: Kernel
    observations: ObservationSet
    prior: PriorMean
    chol: np.ndarray = field(init=False)            # (t, t) lower Cholesky factor L of K, read-only
    z: np.ndarray = field(init=False)               # (t, outcome_dim) L^-1 (Y - P(X)), read-only
    buffers: tuple = field(init=False, repr=False)  # (factor, z), viewed above

    def __post_init__(self):   # the empty model, which `fit` fills
        factor, z = np.zeros((0, 0)), np.zeros((0, self.observations.outputs.shape[1]))
        self.chol, self.z, self.buffers = factor, z, (factor, z)


def _pivot(model: GpModel, r: np.ndarray, t: int) -> float:
    """The factor's diagonal entry in the row r of the t-th input, sqrt(1 + noise + jitter - r.r)."""
    noise = model.observations.noise_variance
    pivot = 1.0 + noise + (JITTER if noise < JITTER else 0.0) - r @ r
    if not pivot > 0.0:
        raise GpFitError(f"kernel matrix not positive definite (t={t}, noise_variance={noise}, kernel={model.kernel})")
    return math.sqrt(pivot)


def fit(observations: ObservationSet, kernel: Kernel, prior: PriorMean) -> GpModel:
    """Build the model of every observation in the set from scratch: each input is learned
    at its index of a posterior at the inputs, into buffers of t rows.

    Legal with zero observations: predictions then revert to the prior with unit
    variance. Non-finite inputs or outputs are rejected up front: they would spread
    NaN through the posterior. A pivot that is not positive raises GpFitError and
    leaves the set as it was.
    """
    inputs, outputs, t = observations.inputs, observations.outputs, len(observations)
    if not all(map(math.isfinite, observations.rows[:t].ravel().tolist())):   # as floats, cheaper than numpy
        raise GpFitError("observation inputs and outputs must be finite")
    model = GpModel(kernel, observations, prior)
    if t:   # the empty model calls no prior
        model.buffers = np.zeros((t, t)), np.empty(outputs.shape)
        observations.inputs, observations.outputs = inputs[:0], outputs[:0]   # learned back row by row
        posterior = CandidatePosterior(inputs, model)
        try:
            for index, (x, y) in enumerate(zip(inputs, outputs)):
                posterior.learn(x, y, index)
        finally:   # the set's own views again, all t rows, also where a pivot failed
            observations.inputs, observations.outputs = inputs, outputs
    return model


def predict_batch(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, outcome_dim), read-only, and the per-point variance (n,): the score
    of a new posterior at the points, with the bits of any posterior of the model there.

    The variance is shared across output dimensions since they use the same
    inputs and kernel.
    """
    posterior = CandidatePosterior(points, model)
    return posterior.score()[0], np.maximum(1.0 - posterior.sums, 0.0)


class CandidatePosterior:
    """The posterior of one model at a fixed point set, and the one way that model grows: the
    prior there, k(X, points) and L^-1 k(X, points) with one row per observation, the two
    sums that each row adds a term to, and the score, which `score` forms only once the
    model has grown."""

    def __init__(self, points, model: GpModel):
        self.points = _as_points(points)
        self.model = model
        self.prior_means = np.asfortranarray(prior_values(model.prior, self.points))   # (n, outcome_dim), by column
        inputs = model.observations.inputs
        self.buffer = np.empty((2, len(inputs), len(self)))   # [0] cross, [1] L^-1 cross; doubles when full
        self.cross, half = self.buffer   # k(inputs, points) (t, n) and L^-1 of it, views of the buffer
        self.cross[:] = kernel_matrix(model.kernel, inputs, self.points)
        self.sums = np.zeros(len(self))   # the column sums of squares of L^-1 cross
        self.shift = np.zeros((model.z.shape[1], len(self)))   # (outcome_dim, n), the means less the prior
        for i, z in enumerate(model.z):   # row by row, as `learn` adds each row
            row = half[i] = (self.cross[i] - model.chol[i, :i] @ half[:i]) / model.chol[i, i]
            self.sums += row * row
            self.shift += z[:, None] * row
        self.seen = {x.tobytes(): i for i, x in enumerate(inputs)}   # each input's bytes -> a row of cross at it
        self.means, self.sigma = None, None   # the means (n, outcome_dim) and sigma (n,); None until scored

    def __len__(self) -> int:
        return len(self.points)

    def learn(self, behavior, observed, index=None) -> None:
        """Grow the model by one observation in place, and this posterior's rows with it, taking
        L^-1 k(X, x) and P(x) from a column of a posterior of the model before the row: this
        one's column at candidate `index`, else a new one-point posterior's at `behavior`. A
        non-finite row or a pivot that is not positive raises GpFitError and leaves both as
        they were."""
        model, t = self.model, len(self.cross)
        observations, (factor, z) = model.observations, model.buffers
        rows, b = observations.rows, observations.inputs.shape[1]
        if t == len(z):   # the set's, the model's and this posterior's buffers are full together;
            # the set and the model take theirs doubled once the row passes its checks
            rows, factor, z = _doubled(rows), _doubled(factor, axes=(0, 1), zeroed=True), _doubled(z)
        rows[t, :b], rows[t, b:] = behavior, observed
        if not all(map(math.isfinite, rows[t].tolist())):
            raise GpFitError("observation inputs and outputs must be finite")
        x = rows[t, :b]
        at, column = (self, index) if index is not None else (CandidatePosterior(x[None], model), 0)
        r, value = at.buffer[1, :t, column], at.prior_means[column]
        pivot = _pivot(model, r, t + 1)
        factor[t, :t], factor[t, t] = r, pivot
        z[t] = (rows[t, b:] - value - r @ z[:t]) / pivot
        model.chol, model.z, model.buffers = factor[:t + 1, :t + 1], z[:t + 1], (factor, z)
        observations.rows, observations.inputs, observations.outputs = rows, rows[:t + 1, :b], rows[:t + 1, b:]
        model.chol.flags.writeable = model.z.flags.writeable = False
        observations.inputs.flags.writeable = observations.outputs.flags.writeable = False
        # the posterior's rows: k(x, points), copied for an input seen before, and L^-1 of it; the
        # buffer doubles with the model's, but only once their old copies are gone (peak memory)
        if t == self.buffer.shape[1]:
            self.buffer = _doubled(self.buffer, axes=(1,))
        cross, half = self.buffer
        seen = self.seen.setdefault(x.tobytes(), t)
        cross[t] = cross[seen] if seen < t else kernel_matrix(model.kernel, x[None], self.points)
        row = half[t] = (cross[t] - factor[t, :t] @ half[:t]) / pivot
        self.sums += row * row
        self.shift += z[t, :, None] * row
        self.cross, self.means, self.sigma = cross[:t + 1], None, None

    def score(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means (n, outcome_dim) and the aggregated uncertainty
        sqrt(sum_d var_d) = sqrt(outcome_dim * var) (n,), both read-only, from the two sums."""
        if self.means is None:
            self.means = (self.prior_means.T + self.shift).T   # by column, as the prior means are
            self.sigma = np.sqrt(self.means.shape[1] * np.maximum(1.0 - self.sums, 0.0))
            self.means.flags.writeable = self.sigma.flags.writeable = False
        return self.means, self.sigma


def predict(model: GpModel, x) -> tuple[np.ndarray, float]:
    """Posterior mean vector and variance at a single behavior point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    means, variances = predict_batch(model, x[None, :])
    return means[0], float(variances[0])

