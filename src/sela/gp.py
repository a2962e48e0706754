"""Gaussian-process regression over behavior space with an injectable prior mean.

One fitted model serves every output dimension of the observed outcome
vectors: the inputs and kernel are shared, so a single factorization of the
kernel matrix is reused and only the residual targets differ per dimension.
Predictions follow the prior-correction form

    mean(x) = P(x) + k(x, X) K^-1 (Y - P(X))
    var(x)  = k(x, x) - k(x, X) K^-1 k(X, x)

where P is the prior mean and K carries the modeled sampling noise on its
diagonal. With a zero prior this is plain GP regression.

A mission's model grows in place; the rows of its factor `chol` are its one record
of its size t. `append` writes an observation into its set's buffer;
`fit(..., previous=model)` on that same set then writes one row of the Cholesky
factor L of K, r = L^-1 k(X, x_i) over the earlier inputs followed by
sqrt(1 + noise + jitter - r.r), and the prior value P(x_i) into the model's buffers
in O(t^2), running the kernel and the prior at most at the new input, and returns
that model. The noise alone sets the jitter: JITTER for a noise variance below it
and 0 otherwise, so a repeated input factors even without noise. A pivot that is
not positive raises GpFitError and leaves the model as it was. Buffers double when
full; rows once written never change, so the read-only views `inputs`, `outputs`,
`chol` and `prior_at_inputs` stay valid. A fit from scratch grows a new empty model
and equals it bit for bit. Solves use dtrtrs from `scipy.linalg._flapack` alone.

`CandidatePosterior` serves one model at a fixed query set such as a
mission's candidates: it evaluates the model's prior there once, writes
k(X, points) and L^-1 k(X, points) one row per observation into a buffer that
doubles when full, copying the kernel row of an input seen before (the
variance is 1 - the column sums of squares of the latter), and scores the
model again only once it has grown. Its `mean_at` gives the mean at one of
those points with `predict`'s one-row arithmetic, equal to `predict`'s mean
bit for bit, and keeps each answer until the model grows. Models are bounded
at `MAX_GP_OBSERVATIONS` inputs by the config check.
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
    for twice its rows (capped at MAX_GP_OBSERVATIONS), or for `rows` if that is more."""
    capacity = buffer.shape[axes[0]]
    if rows <= capacity:
        return buffer
    room = max(rows, min(2 * capacity, MAX_GP_OBSERVATIONS))
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
    rows: np.ndarray = field(init=False, repr=False)   # [input, outcome] per row; doubles when full

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

    def append(self, x, y) -> None:
        """Write one more (input, outcome) pair past the t rows, in place: views taken before keep theirs."""
        t, b = len(self), self.inputs.shape[1]
        rows = self.rows = _with_room(self.rows, t + 1)
        rows[t, :b], rows[t, b:] = np.asarray(x).reshape(b), np.asarray(y).reshape(rows.shape[1] - b)
        self.inputs, self.outputs = rows[:t + 1, :b], rows[:t + 1, b:]
        self.inputs.flags.writeable = self.outputs.flags.writeable = False

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
    """Fitted posterior state of the first t = len(chol) observations; `fit` grows it in
    place. K's diagonal follows from the noise variance alone (see JITTER)."""

    kernel: Kernel
    observations: ObservationSet
    prior: PriorMean
    chol: np.ndarray = field(init=False)              # (t, t) lower Cholesky factor of K, read-only
    prior_correction: np.ndarray = field(init=False)  # (t, outcome_dim), equals K^-1 (Y - P(X))
    prior_at_inputs: np.ndarray = field(init=False)   # (t, outcome_dim) P(X), read-only
    buffers: tuple = field(init=False, repr=False)    # (factor, prior values), viewed above

    def __post_init__(self):   # the empty model, which `fit` grows
        factor, values = np.zeros((0, 0)), np.zeros((0, self.observations.outputs.shape[1]))
        self.chol, self.prior_correction, self.prior_at_inputs = factor, values, values
        self.buffers = (factor, values)


def fit(
    observations: ObservationSet,
    kernel: Kernel,
    prior: PriorMean,
    previous: GpModel | None = None,
    evaluated: tuple | None = None,
) -> GpModel:
    """Grow `previous` by one row of the Cholesky factor per new observation, in place,
    precompute the prior correction and return it; without `previous`, grow a new empty model.

    Legal with zero observations: predictions then revert to the prior with
    unit variance. Non-finite inputs or outputs are rejected up front: they
    would spread NaN through the posterior. A pivot that is not positive
    raises GpFitError and leaves the model as it was.

    `previous` must be fitted with the same kernel and prior on fewer rows of this
    very set, grown by `append`; only the new rows are checked. The kernel and the
    prior run only at the new inputs, and not at all given `evaluated` =
    (k(X, x), P(x)) for the one new input x. It equals a fit from scratch bitwise.
    """
    inputs, outputs, noise = observations.inputs, observations.outputs, observations.noise_variance
    model = GpModel(kernel, observations, prior) if previous is None else previous
    t, k = len(observations), len(model.chol)
    if previous is not None and not (
        k < t
        and previous.observations is observations
        and previous.kernel == kernel
        and previous.prior is prior
    ):
        raise ValueError(
            "previous model must be fitted with the same kernel and prior "
            "on a strict prefix of these observations"
        )
    # the first k rows were checked; the rest as floats, cheaper than numpy for one row
    if not all(map(math.isfinite, observations.rows[k:t].ravel().tolist())):
        raise GpFitError("observation inputs and outputs must be finite")
    one = evaluated is not None and t == k + 1 == len(evaluated[0]) + 1
    rows = [evaluated[0]] if one else kernel_matrix(kernel, inputs[k:], inputs)
    # a row per new input x_i from k(x_i, X[:i]) past the model's rows; dtrtrs takes the
    # F-ordered upper factor, no copy
    factor = _with_room(model.buffers[0], t, axes=(0, 1), zeroed=True)
    for i, row in enumerate(rows, start=k):
        r = dtrtrs(factor.T[:, :i], row[:i], lower=0, trans=1)[0] if i else row[:0]
        pivot = 1.0 + noise + (JITTER if noise < JITTER else 0.0) - r @ r
        if not pivot > 0.0:
            raise GpFitError(
                f"kernel matrix not positive definite (t={t}, "
                f"noise_variance={noise}, kernel={kernel})"
            )
        factor[i, :i], factor[i, i] = r, math.sqrt(pivot)
    values, correction = _with_room(model.buffers[1], t), outputs[:0]
    if t:   # the empty model calls no prior and solves nothing
        values[k:t] = evaluated[1] if one else prior_values(prior, inputs[k:])
        # dpotrs's two solves; dpotrs itself would copy the factor, whose lda is its capacity
        correction = dtrtrs(factor.T[:, :t], outputs - values[:t], lower=0, trans=1)[0]
        correction = dtrtrs(factor.T[:, :t], correction, lower=0, overwrite_b=1)[0]
    model.chol, model.prior_at_inputs = factor[:t, :t], values[:t]
    model.chol.flags.writeable = model.prior_at_inputs.flags.writeable = False
    model.buffers = (factor, values)
    model.prior_correction = correction
    return model


def _posterior(model: GpModel, prior_means: np.ndarray, cross: np.ndarray, half, done, sums):
    """(means, variances) at the query points from the prior and k(X, points) there. Fills the
    rows of `half` past `done` with L^-1 k(X, points) and adds their squares to the column `sums`."""
    means = prior_means + np.asfortranarray(cross.T @ model.prior_correction)   # each dimension contiguous
    for i in range(done, len(cross)):
        row = half[i] = (cross[i] - model.chol[i, :i] @ half[:i]) / model.chol[i, i]
        sums += row * row
    return means, np.maximum(1.0 - sums, 0.0)


def predict_batch(model: GpModel, points) -> tuple[np.ndarray, np.ndarray]:
    """Posterior means (n, outcome_dim) and the per-point variance (n,).

    The variance is shared across output dimensions since they use the same
    inputs and kernel.
    """
    pts = _as_points(points)
    # kernel_matrix also rejects a query of another behavior dimension
    cross = kernel_matrix(model.kernel, model.observations.inputs[:len(model.chol)], pts)   # (t, n)
    prior_means = prior_values(model.prior, pts)
    return _posterior(model, prior_means, cross, np.empty(cross.shape), 0, np.zeros(len(pts)))


class CandidatePosterior:
    """The posterior of one model at a fixed point set: the prior there, the
    cross kernel k(X, points) and L^-1 k(X, points) with one row per
    observation scored, the means and aggregated sigma at those rows and the
    answers of `mean_at`; `score` recomputes them only once the model has grown."""

    def __init__(self, points, model: GpModel):
        self.points = _as_points(points)
        self.model = model
        self.prior_means = np.asfortranarray(prior_values(model.prior, self.points))   # (n, outcome_dim), by column
        # k(inputs, points) (t, n) at the t scored last, a view of buffer[0]
        self.cross = np.zeros((0, len(self)))
        self.first = {}    # each input's bytes -> its first row: a repeat copies that row of cross
        self.buffer = np.empty((2, 0, len(self)))   # [0] cross, [1] L^-1 cross; doubles when full
        self.sums = np.zeros(len(self))   # the column sums of squares of L^-1 cross
        # the means (n, outcome_dim), sigma (n,) and mean_at's answers by index at the t scored last
        self.means, self.sigma, self.answers = None, None, {}   # means None before the first score

    def __len__(self) -> int:
        return len(self.points)

    def score(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means (n, outcome_dim) and the aggregated uncertainty
        sqrt(sum_d var_d) = sqrt(outcome_dim * var) (n,), both read-only."""
        model, t, k = self.model, len(self.model.chol), len(self.cross)
        if t == k and self.means is not None:
            return self.means, self.sigma
        self.means, self.sigma, self.answers = None, None, {}   # drop the last score before computing the new one
        # write the new rows, doubling the capacity (at least to t) if full
        self.buffer = _with_room(self.buffer, t, axes=(1,))
        cross, inputs = self.buffer[0], model.observations.inputs[:t]
        for i, x in enumerate(inputs[k:], start=k):   # a repeated input copies its first row
            j = self.first.setdefault(x.tobytes(), i)
            cross[i] = cross[j] if j < i else kernel_matrix(model.kernel, x[None], self.points)
        self.cross = cross[:t]
        means, variances = _posterior(model, self.prior_means, self.cross, self.buffer[1], k, self.sums)
        sigma = np.sqrt(means.shape[1] * variances)
        means.flags.writeable = sigma.flags.writeable = False
        self.means, self.sigma = means, sigma
        return means, sigma

    def mean_at(self, index: int) -> np.ndarray:
        """Mean at points[index] at the t scored last, equal to
        predict(model, points[index])[0] bit for bit, as a new array; computed once per index
        and t. A row of `means` comes from the batch product and may differ in the last bits."""
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

