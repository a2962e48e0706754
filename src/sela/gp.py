"""Gaussian-process regression over behavior space with an injectable prior mean.

One fitted model serves every output dimension of the observed outcome
vectors: the inputs and kernel are shared, so a single factorization of the
kernel matrix is reused and only the residual targets differ per dimension.
Predictions follow the prior-correction form

    mean(x) = P(x) + k(x, X) K^-1 (Y - P(X))
    var(x)  = k(x, x) - k(x, X) K^-1 k(X, x)

where P is the prior mean and K carries the modeled sampling noise on its
diagonal. With a zero prior this is plain GP regression.

A mission's model grows in place, one observation at a time, through its one
`CandidatePosterior` (below); the rows of its factor `chol` are its one record of its
size t. `fit` builds a model from scratch: row i of the Cholesky factor L of K is
r = L^-1 k(X, x_i) over the earlier inputs followed by sqrt(1 + noise + jitter - r.r).
The noise alone sets the jitter: JITTER for a noise variance below it and 0 otherwise,
so a repeated input factors even without noise. A pivot that is not positive raises
GpFitError. Solves use dtrtrs from `scipy.linalg._flapack` alone.

`CandidatePosterior` serves one model at a fixed query set such as a mission's
candidates. It evaluates the prior P there once and keeps, one row per observation,
k(X, points) and h = L^-1 k(X, points). With z = L^-1 (Y - P(X)) the means are
P + sum_i z_i h_i and the variance 1 - sum_i h_i^2. A new input leaves z's earlier entries
as they were, and its own entry is the last of the forward solve of the prior correction,
so each learned row adds one rank-1 term to both sums, and a score multiplies nothing
over the t rows. `learn` grows the model and those rows in one pass, writing past t into
buffers that double together when full, so read-only views taken before stay valid; the
model equals a fit from scratch bit for bit, and the score equals that of a posterior built
on one. With a noise variance of 1e-3 or more the means lie within a few 1e-12 of
`predict_batch`'s product; `mean_at` gives `predict`'s mean at one of the points bit for
bit. Models are bounded at `MAX_GP_OBSERVATIONS` inputs by the config check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

import numpy as np

_FLAPACK = "scipy.linalg._flapack"   # loaded alone: all of scipy.linalg costs a process ~0.3 s and 28 MB
if _FLAPACK not in sys.modules:
    _dirs = [f"{root}/linalg" for root in getattr(find_spec("scipy"), "submodule_search_locations", None) or ()]
    if (_spec := PathFinder.find_spec(_FLAPACK, _dirs)) is None:
        raise ImportError(f"{_FLAPACK} not found in {_dirs}", name=_FLAPACK)
    _spec.loader.exec_module(sys.modules.setdefault(_FLAPACK, module_from_spec(_spec)))
dtrtrs = sys.modules[_FLAPACK].dtrtrs

TWO_PI = 2.0 * np.pi

# On K's diagonal, from the first row on, of every model whose noise variance is below it.
JITTER = 1e-10

# Largest model a config may grow: at 1,000 inputs a learning step takes about 1.5 ms, a fit from
# scratch 0.12 s (2-vCPU x86-64, one OpenBLAS thread); no buffer doubles past it: the factor is 8 MB.
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
    chol: np.ndarray = field(init=False)              # (t, t) lower Cholesky factor of K, read-only
    prior_correction: np.ndarray = field(init=False)  # (t, outcome_dim), equals K^-1 (Y - P(X))
    prior_at_inputs: np.ndarray = field(init=False)   # (t, outcome_dim) P(X), read-only
    buffers: tuple = field(init=False, repr=False)    # (factor, prior values), viewed above

    def __post_init__(self):   # the empty model, which `fit` fills
        factor, values = np.zeros((0, 0)), np.zeros((0, self.observations.outputs.shape[1]))
        self.chol, self.prior_correction, self.prior_at_inputs = factor, values, values
        self.buffers = (factor, values)


def _pivot(model: GpModel, r: np.ndarray, t: int) -> float:
    """The factor's diagonal entry in the row r of the t-th input, sqrt(1 + noise + jitter - r.r)."""
    noise = model.observations.noise_variance
    pivot = 1.0 + noise + (JITTER if noise < JITTER else 0.0) - r @ r
    if not pivot > 0.0:
        raise GpFitError(f"kernel matrix not positive definite (t={t}, noise_variance={noise}, kernel={model.kernel})")
    return math.sqrt(pivot)


def fit(observations: ObservationSet, kernel: Kernel, prior: PriorMean) -> GpModel:
    """Build the model of every observation in the set from scratch: the Cholesky factor, one
    row per input, the prior values at the inputs and the prior correction.

    Legal with zero observations: predictions then revert to the prior with
    unit variance. Non-finite inputs or outputs are rejected up front: they
    would spread NaN through the posterior. A pivot that is not positive
    raises GpFitError.
    """
    inputs, outputs, t = observations.inputs, observations.outputs, len(observations)
    if not all(map(math.isfinite, observations.rows[:t].ravel().tolist())):   # as floats, cheaper than numpy
        raise GpFitError("observation inputs and outputs must be finite")
    model = GpModel(kernel, observations, prior)
    if t:   # the empty model calls no prior and solves nothing
        # a row per input x_i from k(x_i, X[:i]); dtrtrs takes the F-ordered upper factor, no copy
        factor = np.zeros((t, t))
        for i, row in enumerate(kernel_matrix(kernel, inputs, inputs)):
            r = dtrtrs(factor.T[:, :i], row[:i], lower=0, trans=1)[0] if i else row[:0]
            factor[i, :i], factor[i, i] = r, _pivot(model, r, t)
        values = prior_values(prior, inputs)
        correction = dtrtrs(factor.T, outputs - values, lower=0, trans=1)[0]   # dpotrs's two solves
        model.prior_correction = dtrtrs(factor.T, correction, lower=0, overwrite_b=1)[0]
        # read-only views of the buffers, which `learn` writes past t
        model.chol, model.prior_at_inputs, model.buffers = factor[:], values[:], (factor, values)
        model.chol.flags.writeable = model.prior_at_inputs.flags.writeable = False
    return model


def _solve(model: GpModel, cross: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Fill `half` with L^-1 `cross` one row at a time, as `CandidatePosterior.learn` does, and
    return the column sums of squares of its rows."""
    sums = np.zeros(cross.shape[1])
    for i in range(len(cross)):
        row = half[i] = (cross[i] - model.chol[i, :i] @ half[:i]) / model.chol[i, i]
        sums += row * row
    return sums


def predict_batch(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, outcome_dim) and the per-point variance (n,).

    The variance is shared across output dimensions since they use the same
    inputs and kernel.
    """
    pts = _as_points(points)
    # kernel_matrix also rejects a query of another behavior dimension
    cross = kernel_matrix(model.kernel, model.observations.inputs, pts)   # (t, n)
    sums = _solve(model, cross, np.empty(cross.shape))
    means = prior_values(model.prior, pts) + np.asfortranarray(cross.T @ model.prior_correction)
    return means, np.maximum(1.0 - sums, 0.0)


class CandidatePosterior:
    """The posterior of one model at a fixed point set, and the one way that model grows: the
    prior there, k(X, points) and L^-1 k(X, points) with one row per observation, the two
    sums that each row adds a term to, and the score and the answers of `mean_at`, which
    `score` and `mean_at` form only once the model has grown."""

    def __init__(self, points, model: GpModel):
        self.points = _as_points(points)
        self.model = model
        self.prior_means = np.asfortranarray(prior_values(model.prior, self.points))   # (n, outcome_dim), by column
        inputs = model.observations.inputs
        self.buffer = np.empty((2, len(inputs), len(self)))   # [0] cross, [1] L^-1 cross; doubles when full
        self.cross = self.buffer[0]   # k(inputs, points) (t, n), a view of buffer[0]
        self.cross[:] = kernel_matrix(model.kernel, inputs, self.points)
        self.sums = _solve(model, *self.buffer)   # the column sums of squares of L^-1 cross
        # (outcome_dim, n), the means less the prior: each row i of L^-1 cross times z_i, the last entry
        # of the forward solve over rows <= i, as `learn` takes it (t solves; a mission's model is empty)
        residuals = model.observations.outputs - model.prior_at_inputs
        self.shift = np.zeros((residuals.shape[1], len(self)))
        for i, row in enumerate(self.buffer[1]):
            self.shift += dtrtrs(model.chol.T[:, :i + 1], residuals[:i + 1], lower=0, trans=1)[0][i, :, None] * row
        self.seen = {x.tobytes(): i for i, x in enumerate(inputs)}   # each input's bytes -> a row of cross at it
        # the means (n, outcome_dim), sigma (n,) and mean_at's answers by index; means None until scored
        self.means, self.sigma, self.answers = None, None, {}

    def __len__(self) -> int:
        return len(self.points)

    def learn(self, behavior, observed, index=None) -> None:
        """Grow the model by one observation in place, and this posterior's rows with it: at
        candidate `index` from its column of k(X, points) and its prior value, else from the
        kernel and the prior at `behavior`. The model equals a fit from scratch bit for bit; a
        non-finite row or a pivot that is not positive raises GpFitError and leaves both as
        they were."""
        model, t = self.model, len(self.cross)
        observations, (factor, values) = model.observations, model.buffers
        rows, b = observations.rows, observations.inputs.shape[1]
        if t == len(values):   # the set's, the model's and this posterior's buffers are full together;
            # the set and the model take theirs doubled once the row passes its checks
            rows, factor, values = _doubled(rows), _doubled(factor, axes=(0, 1), zeroed=True), _doubled(values)
        rows[t, :b], rows[t, b:] = behavior, observed
        if not all(map(math.isfinite, rows[t].tolist())):
            raise GpFitError("observation inputs and outputs must be finite")
        x = rows[t, :b]
        if index is None:
            column, value = kernel_matrix(model.kernel, x[None], observations.inputs)[0], None
        else:
            column, value = self.cross[:, index], self.prior_means[index]
        r = dtrtrs(factor.T[:, :t], column, lower=0, trans=1)[0] if t else column
        pivot = _pivot(model, r, t + 1)
        factor[t, :t], factor[t, t] = r, pivot
        values[t] = prior_values(model.prior, x[None]) if value is None else value
        upper, outputs = factor.T[:, :t + 1], rows[:t + 1, b:]
        # dpotrs's two solves; dpotrs itself would copy the factor, whose lda is its capacity
        correction = dtrtrs(upper, outputs - values[:t + 1], lower=0, trans=1)[0]
        model.prior_correction = dtrtrs(upper, correction, lower=0)[0]   # a copy: correction[t] weighs the new term
        model.chol, model.prior_at_inputs, model.buffers = factor[:t + 1, :t + 1], values[:t + 1], (factor, values)
        observations.rows, observations.inputs, observations.outputs = rows, rows[:t + 1, :b], outputs
        model.chol.flags.writeable = model.prior_at_inputs.flags.writeable = False
        observations.inputs.flags.writeable = outputs.flags.writeable = False
        # the posterior's rows: k(x, points), copied for an input seen before, and L^-1 of it; the
        # buffer doubles with the model's, but only once their old copies are gone (peak memory)
        if t == self.buffer.shape[1]:
            self.buffer = _doubled(self.buffer, axes=(1,))
        cross, half = self.buffer
        seen = self.seen.setdefault(x.tobytes(), t)
        cross[t] = cross[seen] if seen < t else kernel_matrix(model.kernel, x[None], self.points)
        row = half[t] = (cross[t] - factor[t, :t] @ half[:t]) / pivot
        self.sums += row * row
        self.shift += correction[t, :, None] * row
        self.cross, self.means, self.sigma, self.answers = cross[:t + 1], None, None, {}

    def score(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means (n, outcome_dim) and the aggregated uncertainty
        sqrt(sum_d var_d) = sqrt(outcome_dim * var) (n,), both read-only, from the two sums."""
        if self.means is None:
            self.means = (self.prior_means.T + self.shift).T   # by column, as the prior means are
            self.sigma = np.sqrt(self.means.shape[1] * np.maximum(1.0 - self.sums, 0.0))
            self.means.flags.writeable = self.sigma.flags.writeable = False
        return self.means, self.sigma

    def mean_at(self, index: int) -> np.ndarray:
        """Mean at points[index] at the t scored last, equal to
        predict(model, points[index])[0] bit for bit, as a new array; computed once per index
        and t. A row of `means` sums the rank-1 terms instead and may differ in the last bits."""
        if self.means is None or len(self.model.chol) != len(self.cross):
            raise ValueError("mean_at needs the model as it was scored last")
        if index not in self.answers:   # from a contiguous (t, 1) column, laid out as predict's own
            column = np.ascontiguousarray(self.cross[:, index:index + 1])
            self.answers[index] = (self.prior_means[index:index + 1] + column.T @ self.model.prior_correction)[0]
        return self.answers[index].copy()


def predict(model: GpModel, x) -> tuple[np.ndarray, float]:
    """Posterior mean vector and variance at a single behavior point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    means, variances = predict_batch(model, x[None, :])
    return means[0], float(variances[0])

