"""Gaussian-process regression over behavior space with an injectable prior mean.

One fitted model serves every output dimension of the observed outcome
vectors: the inputs and kernel are shared, so a single factorization of the
kernel matrix is reused and only the residual targets differ per dimension.
Predictions follow the prior-correction form

    mean(x) = P(x) + k(x, X) K^-1 (Y - P(X))
    var(x)  = k(x, x) - k(x, X) K^-1 k(X, x)

where P is the prior mean and K carries the modeled sampling noise on its
diagonal. With a zero prior this is plain GP regression.

The Cholesky factor L of K grows by one row per observation: for input x_i,
r = L^-1 k(X, x_i) over the earlier inputs, and the new row is
[r, sqrt(1 + noise + jitter - r.r)]. The noise alone sets the jitter: JITTER
for a noise variance below it and 0 otherwise, so a repeated input factors
even without noise. A pivot that is not positive raises GpFitError. Rows are
written in place into a buffer that doubles when full, as are the prior
values and the observations that `with_observation` appends; a model's and
a set's arrays are read-only views. A fit from scratch runs the same steps
from the empty model, so a refit after one more observation
(`fit(..., previous=model)`) costs O(t^2), runs the kernel and the prior at
most at the new input, and equals a fit from scratch bit for bit. Solves
use dtrtrs from `scipy.linalg._flapack` alone.

`CandidatePosterior` serves a fixed query set such as a mission's candidates:
it evaluates the prior there once, writes k(X, points) and L^-1 k(X, points)
one row per observation into a buffer that doubles when full, copying the
kernel row of an input seen before (the variance is 1 - the column sums of
squares of the latter), and scores each fitted model once; the models share
its kernel, prior and noise, so the solved rows serve them all. Its `mean_at`
gives the mean at one of those points with `predict`'s one-row arithmetic,
equal to `predict`'s mean bit for bit. Models are bounded at
`MAX_GP_OBSERVATIONS` inputs by the config check.
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


def _with_room(buffer: np.ndarray, rows: int, axes=(0,), zeroed=False) -> np.ndarray:
    """`buffer` if it holds `rows` rows along `axes`, else a copy, zeroed past it or not, with room
    for `rows` if it is a view, else for twice its rows (capped at MAX_GP_OBSERVATIONS, not `rows`)."""
    capacity = buffer.shape[axes[0]]
    if rows <= capacity:
        return buffer
    room = rows if buffer.base is not None else max(rows, min(2 * capacity, MAX_GP_OBSERVATIONS))
    shape = [room if axis in axes else n for axis, n in enumerate(buffer.shape)]
    grown = (np.zeros if zeroed else np.empty)(shape)
    grown[tuple(map(slice, buffer.shape))] = buffer
    return grown


@dataclass(frozen=True)
class ObservationSet:
    """Paired behavior inputs and outcome vectors plus the modeled noise level.

    noise_variance is the sampling noise the model assumes, not necessarily
    what the world actually injects.
    """

    inputs: np.ndarray    # (t, behavior_dim)
    outputs: np.ndarray   # (t, outcome_dim)
    noise_variance: float = 0.001
    # [rows written, buffer of [input, outcome] rows] that with_observation's chain of sets views
    rows: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if len(inputs) != len(outputs):
            raise ValueError(f"{len(inputs)} inputs vs {len(outputs)} outputs")
        if not self.noise_variance >= 0:
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
        """New set with one more (input, outcome) pair, written past this set's rows in
        place if it is the newest set on its buffer, else into a copy; read-only views."""
        t, b, rows = len(self), self.inputs.shape[1], self.rows
        if rows is None or rows[0] != t:
            rows = [t, np.concatenate([self.inputs, self.outputs], axis=1)]
        buffer = rows[1] = _with_room(rows[1], t + 1)
        buffer[t, :b], buffer[t, b:] = np.reshape(x, b), np.reshape(y, buffer.shape[1] - b)
        rows[0], inputs, outputs = t + 1, buffer[:t + 1, :b], buffer[:t + 1, b:]
        inputs.flags.writeable = outputs.flags.writeable = False
        grown = ObservationSet(inputs, outputs, self.noise_variance)
        object.__setattr__(grown, "rows", rows)
        return grown

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
    """Fitted posterior state. Treat as immutable; call fit again to update.
    K's diagonal follows from the noise variance alone (see JITTER)."""

    kernel: Kernel
    observations: ObservationSet
    prior: PriorMean
    chol: np.ndarray                # (t, t) lower Cholesky factor of K, read-only
    prior_correction: np.ndarray    # (t, outcome_dim), equals K^-1 (Y - P(X))
    prior_at_inputs: np.ndarray     # (t, outcome_dim) P(X), read-only
    buffers: tuple = field(repr=False, compare=False)   # (factor, prior values), viewed above


def fit(
    observations: ObservationSet,
    kernel: Kernel,
    prior: PriorMean,
    previous: GpModel | None = None,
    evaluated: tuple | None = None,
) -> GpModel:
    """Grow the Cholesky factor by one row per new observation and
    precompute the prior correction.

    Legal with zero observations: predictions then revert to the prior with
    unit variance. Non-finite inputs or outputs are rejected up front: they
    would spread NaN through the posterior. A pivot that is not positive
    raises GpFitError.

    `previous` is a model fitted with the same kernel, prior and noise on a
    strict prefix of these observations; None stands for the empty prefix.
    Its factor and prior values are extended, in place unless a newer model
    wrote past them, so the kernel and the prior run only at the new inputs,
    and not at all given `evaluated` = (k(X, x), P(x)) for the one new input x.
    It equals a fit from scratch bitwise.
    Observations that share `previous`'s buffer are checked only in the new rows.
    """
    inputs, outputs, noise = observations.inputs, observations.outputs, observations.noise_variance
    t, k = len(observations), len(previous.observations) if previous else 0
    shared = previous is not None and observations.rows is previous.observations.rows is not None
    if not (np.isfinite(observations.rows[1][k:t]).all() if shared
            else np.isfinite(inputs).all() and np.isfinite(outputs).all()):
        raise GpFitError("observation inputs and outputs must be finite")
    if previous is None:
        factor, values = np.zeros((0, 0)), outputs[:0]
    elif not (
        k < t
        and previous.kernel == kernel
        and previous.prior is prior
        and previous.observations.noise_variance == noise
        and (shared or np.array_equal(previous.observations.inputs, inputs[:k]))
    ):
        raise ValueError(
            "previous model must be fitted with the same kernel, prior and "
            "noise on a strict prefix of the observations"
        )
    else:
        factor, values = previous.buffers
        if k < len(factor) and factor[k, k]:   # a newer model wrote row k: copy the views
            factor, values = previous.chol, previous.prior_at_inputs
    one = evaluated is not None and t == k + 1 == len(evaluated[0]) + 1
    rows = [evaluated[0]] if one else kernel_matrix(kernel, inputs[k:], inputs)
    # a row per new input x_i from k(x_i, X[:i]); dtrtrs takes the F-ordered upper factor, no copy
    factor = _with_room(factor, t, axes=(0, 1), zeroed=True)
    for i, row in enumerate(rows, start=k):
        r = dtrtrs(factor.T[:, :i], row[:i], lower=0, trans=1)[0] if i else row[:0]
        pivot = 1.0 + noise + (JITTER if noise < JITTER else 0.0) - r @ r
        if not pivot > 0.0:
            raise GpFitError(
                f"kernel matrix not positive definite (t={t}, "
                f"noise_variance={noise}, kernel={kernel})"
            )
        factor[i, :i], factor[i, i] = r, math.sqrt(pivot)
    values, correction = _with_room(values, t), outputs[:0]
    if t:   # the empty model calls no prior and solves nothing
        values[k:t] = evaluated[1] if one else prior_values(prior, inputs[k:])
        # dpotrs's two solves; dpotrs itself would copy the factor, whose lda is its capacity
        correction = dtrtrs(factor.T[:, :t], outputs - values[:t], lower=0, trans=1)[0]
        correction = dtrtrs(factor.T[:, :t], correction, lower=0, overwrite_b=1)[0]
    chol, prior_at_inputs = factor[:t, :t], values[:t]
    chol.flags.writeable = prior_at_inputs.flags.writeable = False
    return GpModel(
        kernel=kernel,
        observations=observations,
        prior=prior,
        chol=chol,
        prior_correction=correction,
        prior_at_inputs=prior_at_inputs,
        buffers=(factor, values),
    )


def _posterior(model: GpModel, prior_means: np.ndarray, cross: np.ndarray, half, solved=None):
    """(means, variances, solved) at the query points from the prior and k(X, points) there.
    Fills rows of `half` with L^-1 k(X, points) past solved = (rows done, their sums of squares)."""
    done, sums = solved or (0, np.zeros(len(prior_means)))
    means = prior_means + cross.T @ model.prior_correction
    for i in range(done, len(cross)):
        row = half[i] = (cross[i] - model.chol[i, :i] @ half[:i]) / model.chol[i, i]
        sums = sums + row * row
    return means, np.maximum(1.0 - sums, 0.0), (len(cross), sums)


def predict_batch(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, outcome_dim) and the per-point variance (n,).

    The variance is shared across output dimensions since they use the same
    inputs and kernel.
    """
    pts = _as_points(points)
    # kernel_matrix also rejects a query of another behavior dimension
    cross = kernel_matrix(model.kernel, model.observations.inputs, pts)   # (t, n)
    return _posterior(model, prior_values(model.prior, pts), cross, np.empty(cross.shape))[:2]


class CandidatePosterior:
    """The posterior at a fixed point set: the prior there, the cross kernel
    k(X, points) and L^-1 k(X, points) with one row per observation, and the
    means and aggregated sigma of the latest model scored. `score` recomputes
    them only for another model object; models are immutable, so the kept
    ones are exact. Every model scored must use this kernel, prior and noise
    (the first model's) and extend the inputs scored before."""

    def __init__(self, points, prior: PriorMean, kernel: Kernel):
        self.points = _as_points(points)
        self.prior, self.kernel = prior, kernel
        self.prior_means = prior_values(prior, self.points)     # (n, outcome_dim)
        # the inputs (t, behavior_dim) and k(inputs, points) (t, n), a view of buffer[0]
        self.inputs, self.cross = np.zeros((0, self.points.shape[1])), np.zeros((0, len(self)))
        self.rows = None   # the rows list the inputs view, if any (see ObservationSet)
        self.first = {}    # each input's bytes -> its first row: a repeat copies that row of cross
        self.buffer = np.empty((2, 0, len(self)))   # [0] cross, [1] L^-1 cross; doubles when full
        # (rows of L^-1 cross solved, their column sums of squares) and the noise of the models scored
        self.solved = self.noise = None
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
        inputs, rows, k = model.observations.inputs, model.observations.rows, len(self.inputs)
        noise = model.observations.noise_variance
        # inputs on the chain of sets the kept ones view extend them if there are as many
        shared = rows is self.rows is not None and k <= len(inputs)
        if not (model.prior is self.prior and model.kernel == self.kernel and self.noise in (None, noise)
                and (shared or np.array_equal(self.inputs, inputs[:k]))):
            raise ValueError("model must use this kernel, prior and noise, extending the inputs seen")
        if k < len(inputs):   # write the new rows, doubling the capacity (at least to t) if full
            self.buffer = _with_room(self.buffer, len(inputs), axes=(1,))
            cross = self.buffer[0]
            for i, x in enumerate(inputs[k:], start=k):   # a repeated input copies its first row
                j = self.first.setdefault(x.tobytes(), i)
                cross[i] = cross[j] if j < i else kernel_matrix(self.kernel, x[None], self.points)
            self.inputs, self.rows, self.cross = inputs, rows, cross[:len(inputs)]
        means, variances, self.solved = _posterior(
            model, self.prior_means, self.cross, self.buffer[1], self.solved
        )
        sigma = np.sqrt(means.shape[1] * variances)
        means.flags.writeable = sigma.flags.writeable = False
        self.model, self.means, self.sigma, self.noise = model, means, sigma, noise
        return means, sigma

    def mean_at(self, model: GpModel, index: int) -> np.ndarray:
        """Mean at points[index] under the model scored last, equal to
        predict(model, points[index])[0] bit for bit. A row of `means` comes
        from the batch product and may differ from it in the last bits."""
        if model is not self.model:
            raise ValueError("mean_at needs the model scored last")
        # a contiguous (t, 1) column, laid out as predict's own kernel column
        column = np.ascontiguousarray(self.cross[:, index:index + 1])
        return (self.prior_means[index:index + 1] + column.T @ model.prior_correction)[0]


def predict(model: GpModel, x) -> tuple[np.ndarray, float]:
    """Posterior mean vector and variance at a single behavior point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    means, variances = predict_batch(model, x[None, :])
    return means[0], float(variances[0])

