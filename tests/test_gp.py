"""GP regression tests: frozen closed-form values, a brute-force
explicit-inverse oracle, and structural properties of the posterior."""

import math
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from sela import gp
from sela.gp import (
    CandidatePosterior,
    DistanceKind,
    JITTER,
    MAX_GP_OBSERVATIONS,
    MIN_KERNEL_SIGMA,
    GpFitError,
    Kernel,
    KernelFamily,
    ObservationSet,
    fit,
    kernel_matrix,
    predict,
    predict_batch,
    prior_values,
    zero_prior,
)
from sela.map_elites import Archive, ArchivePrior, Elite
from sela.reward import make_distance_reward

SQEXP = Kernel(KernelFamily.SQUARED_EXPONENTIAL, sigma=0.1)
WRAPPED = Kernel(KernelFamily.SQUARED_EXPONENTIAL, sigma=0.1, distance=DistanceKind.WRAPPED_ANGULAR)


def brute_force_predict(kernel, observations, prior, x):
    """Independent oracle: explicit matrix inverse, no factorization reuse."""
    X = observations.inputs
    Y = observations.outputs
    K = kernel_matrix(kernel, X, X) + observations.noise_variance * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    k_vec = kernel_matrix(kernel, X, np.atleast_2d(x))[:, 0]
    residuals = Y - np.array([prior(row) for row in X])
    mean = np.asarray(prior(np.atleast_1d(x)), dtype=float) + k_vec @ K_inv @ residuals
    var = 1.0 - k_vec @ K_inv @ k_vec
    return mean, var


def random_prior(rng, behavior_dim, outcome_dim):
    weights = rng.normal(size=(outcome_dim, behavior_dim))
    bias = rng.normal(size=outcome_dim)
    return lambda x: weights @ np.atleast_1d(x) + bias


class TestKernel:
    def test_self_similarity_is_one(self):
        for family in KernelFamily:
            kernel = Kernel(family, sigma=0.37)
            assert kernel_matrix(kernel, [[0.4, -1.2]], [[0.4, -1.2]])[0, 0] == 1.0

    def test_squared_exponential_known_value(self):
        # r = 0.1 with sigma = 0.1 gives exp(-1/2)
        value = kernel_matrix(SQEXP, [0.0], [0.1])[0, 0]
        assert value == pytest.approx(0.6065306597126334, rel=1e-12)

    def test_exponential_known_value(self):
        kernel = Kernel(KernelFamily.EXPONENTIAL, sigma=0.1)
        value = kernel_matrix(kernel, [0.0], [0.1])[0, 0]
        assert value == pytest.approx(0.36787944117144233, rel=1e-12)

    def test_wrapped_angular_folds_the_circle(self):
        # 0.1 and 2*pi - 0.1 are 0.2 apart on the circle: exp(-2) under sq-exp
        value = kernel_matrix(WRAPPED, [0.1], [2.0 * math.pi - 0.1])[0, 0]
        assert value == pytest.approx(0.1353352832366127, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_matrix(SQEXP, [[0.1]], [[0.1, 0.2]])

    def test_sigma_must_be_positive(self):
        # at 1e-300, 2 sigma^2 underflows and the squared-exponential k(x, x) is 0/0
        for sigma in (0.0, 1e-300, 0.5 * MIN_KERNEL_SIGMA, math.nan):
            with pytest.raises(ValueError, match="sigma must be at least 1e-100"):
                Kernel(KernelFamily.SQUARED_EXPONENTIAL, sigma=sigma)

    def test_floor_sigma_is_clean(self):
        # warnings are errors here: no 0/0, no overflow, and k(x, x) = 1
        points = np.array([[0.0], [1e-3], [3.1], [1e4]])
        for family in KernelFamily:
            for distance in DistanceKind:
                kernel = Kernel(family, sigma=MIN_KERNEL_SIGMA, distance=distance)
                np.testing.assert_array_equal(kernel_matrix(kernel, points, points), np.eye(4))

    def test_equals_the_plain_numpy_formula_bit_for_bit(self):
        # kernel_matrix works in place, folds with np.fmod at |diff|, skips
        # the reduce over a single coordinate and puts the sign in the divisor
        def plain(kernel, a, b):
            diff = a[:, None, :] - b[None, :, :]
            if kernel.distance is DistanceKind.WRAPPED_ANGULAR:
                diff = np.abs(diff) % (2.0 * np.pi)
                diff = np.minimum(diff, 2.0 * np.pi - diff)
            r = np.sqrt(np.sum(diff * diff, axis=2))
            if kernel.family is KernelFamily.SQUARED_EXPONENTIAL:
                return np.exp(-(r * r) / (2.0 * kernel.sigma * kernel.sigma))
            return np.exp(-r / kernel.sigma)

        rng = np.random.default_rng(31)
        for family in KernelFamily:
            for distance in DistanceKind:
                for dim in (1, 2, 4):
                    for sigma in (MIN_KERNEL_SIGMA, 0.1, 0.45, 3.0):
                        kernel = Kernel(family, sigma, distance)
                        for n, scale in ((1, 1.0), (7, 4.0), (30, 20.0), (5, 1e6)):
                            a, b = rng.normal(size=(2, n + 40, dim)) * scale
                            a = np.vstack([a[:n], b[:3]])   # some distances are 0
                            assert bits(kernel_matrix(kernel, a, b)) == bits(plain(kernel, a, b))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(7)
        for family in KernelFamily:
            for distance in DistanceKind:
                kernel = Kernel(family, sigma=0.3, distance=distance)
                a, b = rng.normal(size=(2, 25))
                values = kernel_matrix(kernel, a, b)
                assert np.array_equal(values, kernel_matrix(kernel, b, a).T)
                assert np.all((0.0 < values) & (values <= 1.0))


class TestEmptyModel:
    def test_prediction_reverts_to_prior_with_unit_variance(self):
        prior = lambda x: np.array([float(x[0]) * 2.0, -1.0])
        model = fit(ObservationSet.empty(1, 2, 0.001), SQEXP, prior)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal()
            mean, var = predict(model, x)
            assert np.array_equal(mean, prior(np.atleast_1d(x)))
            assert var == 1.0


class TestSingleObservation:
    def test_known_posterior_values(self):
        # one observation y=1 at x=0, zero prior, noise 0.001: K = [1.001]
        obs = ObservationSet(np.array([[0.0]]), np.array([[1.0]]), noise_variance=0.001)
        model = fit(obs, SQEXP, zero_prior(1))
        mean, var = predict(model, 0.0)
        assert mean[0] == pytest.approx(0.9990009990009991, rel=1e-9)
        assert var == pytest.approx(0.0009990009990008542, rel=1e-6)

    def test_far_query_reverts_to_prior(self):
        obs = ObservationSet(np.array([[0.0]]), np.array([[1.0]]), noise_variance=0.001)
        model = fit(obs, SQEXP, zero_prior(1))
        mean, var = predict(model, 1e6)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(1.0, abs=1e-12)


class TestOracleEquivalence:
    def test_matches_explicit_inverse_for_small_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            t = int(rng.integers(1, 6))
            behavior_dim = int(rng.integers(1, 4))
            outcome_dim = int(rng.integers(1, 4))
            family = KernelFamily.EXPONENTIAL if trial % 2 else KernelFamily.SQUARED_EXPONENTIAL
            kernel = Kernel(family, sigma=float(rng.uniform(0.05, 0.5)))
            prior = random_prior(rng, behavior_dim, outcome_dim)
            obs = ObservationSet(
                rng.normal(size=(t, behavior_dim)),
                rng.normal(size=(t, outcome_dim)),
                noise_variance=0.001,
            )
            model = fit(obs, kernel, prior)
            for _ in range(5):
                x = rng.normal(size=behavior_dim)
                mean, var = predict(model, x)
                oracle_mean, oracle_var = brute_force_predict(kernel, obs, prior, x)
                np.testing.assert_allclose(mean, oracle_mean, rtol=1e-9, atol=1e-12)
                assert var == pytest.approx(oracle_var, rel=1e-9, abs=1e-12)

    def test_prior_decomposition(self):
        # model with prior P equals P plus a zero-prior model of the residuals
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = int(rng.integers(1, 8))
            prior = random_prior(rng, 2, 2)
            X = rng.normal(size=(t, 2))
            Y = rng.normal(size=(t, 2))
            obs = ObservationSet(X, Y, noise_variance=0.001)
            residual_obs = ObservationSet(
                X, Y - np.array([prior(row) for row in X]), noise_variance=0.001
            )
            with_prior = fit(obs, SQEXP, prior)
            residual_only = fit(residual_obs, SQEXP, zero_prior(2))
            x = rng.normal(size=2)
            mean, var = predict(with_prior, x)
            res_mean, res_var = predict(residual_only, x)
            np.testing.assert_allclose(mean, prior(x) + res_mean, rtol=1e-9, atol=1e-12)
            assert var == pytest.approx(res_var, rel=1e-9, abs=1e-12)


class TestPosteriorProperties:
    def test_variance_bounds(self):
        rng = np.random.default_rng(5)
        obs = ObservationSet(rng.normal(size=(12, 2)), rng.normal(size=(12, 2)), 0.001)
        model = fit(obs, Kernel(sigma=0.4), zero_prior(2))
        _, variances = predict_batch(model, rng.normal(size=(200, 2)))
        assert np.all(variances >= 0.0)
        assert np.all(variances <= 1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 1))
        Y = rng.normal(size=(6, 2))
        order = rng.permutation(6)
        a = fit(ObservationSet(X, Y, 0.001), SQEXP, zero_prior(2))
        b = fit(ObservationSet(X[order], Y[order], 0.001), SQEXP, zero_prior(2))
        for x in rng.normal(size=5):
            mean_a, var_a = predict(a, x)
            mean_b, var_b = predict(b, x)
            np.testing.assert_allclose(mean_a, mean_b, rtol=1e-9, atol=1e-12)
            assert var_a == pytest.approx(var_b, rel=1e-9, abs=1e-12)

    def test_observing_a_point_shrinks_its_variance(self):
        rng = np.random.default_rng(13)
        obs = ObservationSet(rng.normal(size=(4, 1)), rng.normal(size=(4, 1)), 0.001)
        prior = zero_prior(1)
        model = fit(obs, SQEXP, prior)
        x = np.array([0.42])
        _, before = predict(model, x)
        CandidatePosterior(x, model).learn(x, [0.3], 0)
        _, after = predict(model, x)
        assert after < before

    def test_interpolates_observations_tightly_without_noise(self):
        X = np.array([[0.0], [1.0], [2.5]])
        Y = np.array([[1.0], [-2.0], [0.5]])
        model = fit(ObservationSet(X, Y, noise_variance=0.0), Kernel(sigma=0.5), zero_prior(1))
        for x, y in zip(X, Y):
            mean, var = predict(model, x)
            assert mean[0] == pytest.approx(y[0], abs=1e-6)
            assert var == pytest.approx(0.0, abs=1e-6)


class TestCachedPrior:
    @pytest.mark.parametrize("t", [0, 1, 7])
    def test_passing_the_prior_at_the_points_changes_nothing(self, t):
        # a CandidatePosterior evaluates the prior at its points once; its
        # posterior is predict_batch's (`assert_scores_as_a_posterior_of`), and its arrays
        # are read-only, so a caller cannot spoil the kept prior or score
        rng = np.random.default_rng(t)
        prior = lambda x: np.array([np.sin(x[0]), np.cos(x[0])])
        observations = ObservationSet(rng.uniform(-3, 3, size=(t, 1)), rng.normal(size=(t, 2)), 0.001)
        model = fit(observations, WRAPPED, prior)
        points = rng.uniform(-3, 3, size=(50, 1))
        posterior = CandidatePosterior(points, model)
        means, sigma = posterior.score()
        assert_scores_as_a_posterior_of(posterior, model)
        for scored in (means, sigma):
            with pytest.raises(ValueError, match="read-only"):
                scored[:] = 0.0
        assert np.array_equal(posterior.prior_means, prior_values(prior, points))


class TestCandidatePosterior:
    def test_a_model_is_scored_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        observations = ObservationSet(rng.normal(size=(4, 1)), rng.normal(size=(4, 2)), 0.001)
        prior = zero_prior(2)
        model = fit(observations, SQEXP, prior)
        posterior = CandidatePosterior(rng.normal(size=(30, 1)), model)
        scored = counting_scores(monkeypatch)
        first = posterior.score()
        for _ in range(3):
            again = posterior.score()
            assert again[0] is first[0] and again[1] is first[1]
        assert scored == [((model, 4), 30)]

    def test_a_posterior_serves_its_own_model_alone(self):
        # built for one model, it takes the kernel and prior from it and scores
        # no other: score takes no model, and another model's
        # growth, even an equal copy's through its own posterior, leaves its score as it was
        rng = np.random.default_rng(6)
        kernel = Kernel(sigma=0.3, distance=DistanceKind.WRAPPED_ANGULAR)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(4, 1)), rng.normal(size=(4, 2))
        model = fit(ObservationSet(inputs[:3], outputs[:3], 0.0), kernel, sine_prior)
        copy = ObservationSet(inputs[:3], outputs[:3], 0.0)
        other = fit(copy, kernel, sine_prior)
        points = rng.uniform(-np.pi, np.pi, size=(30, 1))
        posterior = CandidatePosterior(points, model)
        assert posterior.model is model
        np.testing.assert_array_equal(posterior.prior_means, prior_values(sine_prior, points))
        with pytest.raises(TypeError):
            posterior.score(other)
        means, sigma = posterior.score()
        CandidatePosterior(points, other).learn(inputs[3], outputs[3])
        assert len(other.chol) == 4 and len(model.chol) == 3
        assert posterior.score()[0] is means and posterior.score()[1] is sigma
        assert_scores_as_a_posterior_of(posterior, model)

    def test_score_reads_no_row_of_the_cross_kernel(self):
        # each learn adds its row's term to the means, so a score reads neither k(X, points)
        # nor L^-1 of it: a posterior whose rows are poisoned after a learn scores the bits
        # of its twin, which learned the same rows
        rng = np.random.default_rng(8)
        points = rng.uniform(-np.pi, np.pi, size=(12, 1))
        mine, twin = (CandidatePosterior(points, fit(ObservationSet.empty(1, 2, 0.001), WRAPPED, sine_prior))
                      for _ in range(2))
        for index, y in zip((3, 7, 3, 0, None), rng.normal(size=(5, 2))):
            behavior = points[index] if index is not None else [0.25]
            for posterior in (mine, twin):
                posterior.learn(behavior, y, index)
            rows = mine.buffer.copy()
            mine.buffer[:] = np.nan
            assert [bits(array) for array in mine.score()] == [bits(array) for array in twin.score()]
            mine.buffer[:] = rows   # the next learn reads them
        assert_consistent(mine)

    def test_the_empty_models_first_score_is_the_prior(self):
        # a posterior holds no score before its first; the empty model scores to the
        # prior with unit variance per dimension (sigma sqrt(2)), and a second score
        # with no growth returns the same objects
        rng = np.random.default_rng(11)
        points = rng.uniform(-np.pi, np.pi, size=(30, 1))
        model = fit(ObservationSet.empty(1, 2, 0.001), WRAPPED, sine_prior)
        posterior = CandidatePosterior(points, model)
        assert posterior.means is None and posterior.sigma is None
        means, sigma = posterior.score()
        np.testing.assert_array_equal(means, prior_values(sine_prior, points))
        np.testing.assert_array_equal(sigma, np.full(len(points), math.sqrt(2.0)))
        again = posterior.score()
        assert again[0] is means and again[1] is sigma
        assert bits(means[3]) == bits(predict(model, points[3])[0])

    def test_a_grown_model_is_scored_again(self, monkeypatch):
        # the score is kept per t: a model that grew by a learning step is
        # scored anew, and holds no score until then
        rng = np.random.default_rng(10)
        prior = zero_prior(2)
        observations = ObservationSet(rng.normal(size=(3, 1)), rng.normal(size=(3, 2)), 0.001)
        model = fit(observations, SQEXP, prior)
        points = rng.normal(size=(30, 1))
        posterior = CandidatePosterior(points, model)
        scored = counting_scores(monkeypatch)
        first = posterior.score()
        assert posterior.score()[0] is first[0] and scored == [((model, 3), 30)]
        posterior.learn([0.3], [0.1, -0.2])
        assert posterior.means is None and posterior.sigma is None
        means, sigma = posterior.score()
        assert scored == [((model, 3), 30), ((model, 4), 30)] and means is not first[0]
        monkeypatch.undo()
        assert_consistent(posterior)


def archive_prior(rng, behaviors):
    """ArchivePrior with an elite at each of `behaviors`: the prior is a lookup
    at the elites alone, so these must hold every point it is queried at."""
    archive = Archive((len(behaviors),), behaviors.shape[1], 2)
    for i, behavior in enumerate(behaviors):
        archive.cells[(i,)] = Elite(behavior, [(i + 0.5) / len(behaviors)], 1.0, rng.normal(size=2))
    return ArchivePrior(archive)


def assert_diagonal(model, jitter):
    """K's diagonal, read off the factor's first pivot: 1 + noise + jitter, bit for bit."""
    assert model.chol[0, 0] == math.sqrt(1.0 + model.observations.noise_variance + jitter)


def bits(array):
    return np.asarray(array).tobytes()


# The most a mean of a one-point posterior (`predict`'s, or the one a step off the candidates
# learns from) may differ from the same point's row of a wider posterior, where the modeled noise
# variance is at least 1e-3: numpy's products round by the row width, so their rows of
# L^-1 k(X, points) round apart (at most 4.7e-13 measured at TestLongAdaptationSizes' configs,
# up to 250 inputs; the product `prior + half.T @ z` of the wider posterior's own rows lay within
# 6.7e-16). Without noise the rows are ill-conditioned, so no bound holds.
MEAN_BOUND = 1e-10


# The most a model's factor and z may differ from a textbook fit of its rows where the noise
# variance is at least 1e-3: np.linalg.cholesky of K, and a triangular solve of Y - P(X) with
# that factor. `learn` and `fit` round in their own order: at most 6e-14 and 2.7e-11 measured
# at 250 inputs and 360 candidates. Without noise both are ill-conditioned, so no bound holds.
FACTOR_BOUND, Z_BOUND = 1e-12, 1e-9


def assert_near_textbook(model):
    """Where the noise variance is at least 1e-3, the model's chol and z lie within FACTOR_BOUND
    and Z_BOUND of the textbook's: np.linalg.cholesky of K and scipy's triangular solve."""
    observations = model.observations
    if observations.noise_variance < 1e-3 or not len(observations):
        return
    inputs, noise = observations.inputs, observations.noise_variance
    factor = np.linalg.cholesky(kernel_matrix(model.kernel, inputs, inputs) + noise * np.eye(len(inputs)))
    z = solve_triangular(factor, observations.outputs - prior_values(model.prior, inputs), lower=True)
    np.testing.assert_allclose(model.chol, factor, rtol=0, atol=FACTOR_BOUND, err_msg="chol")
    np.testing.assert_allclose(model.z, z, rtol=0, atol=Z_BOUND, err_msg="z")


def assert_scores_as_a_posterior_of(posterior, model):
    """The posterior's score equals, bit for bit and at every noise level, predict_batch of
    `model` at its points, the score of a new posterior there: its means, and its sigma from
    predict_batch's variance."""
    means, sigma = posterior.score()
    want_means, want_variances = predict_batch(model, posterior.points)
    assert bits(means) == bits(want_means)
    assert bits(sigma) == bits(np.sqrt(means.shape[1] * want_variances))


def counting_scores(monkeypatch):
    """Patches CandidatePosterior.score; returns ((model, its t), number of points) per score
    that computes new means, not the kept ones."""
    scored, score = [], CandidatePosterior.score

    def counting(posterior):
        kept = posterior.means
        result = score(posterior)
        if result[0] is not kept:
            scored.append(((posterior.model, len(posterior.model.chol)), len(posterior.points)))
        return result

    monkeypatch.setattr(CandidatePosterior, "score", counting)
    return scored


class TestOneRowMean:
    """SELA predicts from one row of the score, `means[index]`: with a noise variance of 1e-3
    or more it lies within MEAN_BOUND of `predict`'s mean at that candidate."""

    @settings(max_examples=80, deadline=None)
    @given(
        behavior_dim=st.sampled_from([1, 4]),
        family=st.sampled_from(list(KernelFamily)),
        distance=st.sampled_from(list(DistanceKind)),
        sigma=st.sampled_from([0.1, 0.45]),
        prior_kind=st.sampled_from(["zero", "function", "archive"]),
        noise=st.sampled_from([0.001, 0.05]),
        t=st.integers(0, 14),
        score_every=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_mean_lies_near_predict(
        self, behavior_dim, family, distance, sigma, prior_kind, noise, t, score_every, seed
    ):
        # the inputs are partly candidate points, learned at their index as in a mission, partly
        # other points; the posterior scores every model or every third, so
        # the model also grows by several rows between two scores
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, sigma, distance)
        points = rng.uniform(-np.pi, np.pi, size=(20, behavior_dim))
        picks = [*rng.permutation(20)[: t // 2], *[None] * (t - t // 2)]
        inputs = np.vstack([points[picks[: t // 2]],
                            rng.uniform(-np.pi, np.pi, size=(t - t // 2, behavior_dim))])
        prior = {
            "zero": zero_prior(2), "function": sine_prior,
            "archive": archive_prior(rng, np.vstack([points, inputs[t // 2:]])),
        }[prior_kind]
        outputs = rng.normal(size=(t, 2))
        observations = ObservationSet.empty(behavior_dim, 2, noise)
        model = fit(observations, kernel, prior)
        posterior = CandidatePosterior(points, model)
        for end in range(t + 1):
            if end > 0:
                posterior.learn(inputs[end - 1], outputs[end - 1], picks[end - 1])
            if end % score_every:
                continue
            means, _ = posterior.score()
            for index in range(len(points)):
                want = predict(model, points[index])[0]
                np.testing.assert_allclose(means[index], want, rtol=0, atol=MEAN_BOUND)


class TestPredictBatchIsTheScore:
    """predict_batch at a posterior's points gives the bits of that posterior's score, however
    its model grew: the two form L^-1 k(X, points) and the means by one recurrence."""

    @settings(max_examples=60, deadline=None)
    @given(
        behavior_dim=st.sampled_from([1, 3]),
        family=st.sampled_from(list(KernelFamily)),
        distance=st.sampled_from(list(DistanceKind)),
        noise=st.sampled_from([0.0, 1e-3, 0.05]),
        start=st.integers(0, 5),
        t=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predict_batch_at_the_points_is_the_score(self, behavior_dim, family, distance, noise, start, t, seed):
        # the model starts as a fit of `start` rows, so its buffers double as the posterior learns
        # t more: about a fifth off the candidates, the rest at a candidate's index, repeats included
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, 0.45, distance)
        points = rng.uniform(-np.pi, np.pi, size=(24, behavior_dim))
        inputs = rng.uniform(-np.pi, np.pi, size=(start, behavior_dim))
        posterior = CandidatePosterior(points, fit(ObservationSet(inputs, rng.normal(size=(start, 2)), noise), kernel, sine_prior))
        for _ in range(t):
            index = int(rng.integers(len(points))) if rng.random() < 0.8 else None
            behavior = points[index] if index is not None else rng.uniform(-np.pi, np.pi, size=behavior_dim)
            try:
                posterior.learn(behavior, rng.normal(size=2), index)
            except GpFitError:   # a noiseless model may meet a pivot that is not positive; it keeps its rows
                assert noise == 0.0
            assert_scores_as_a_posterior_of(posterior, posterior.model)


class TestLongAdaptationSizes:
    """At long-adaptation's model sizes, t up to 250, with 360 candidates: the
    posterior's means, an (n, outcome_dim) array with each outcome dimension
    contiguous, lie within MEAN_BOUND of the row-ordered `prior + half.T @ z` and of
    `predict`'s mean, and hold the bits of a new posterior of the model; the model lies
    near a textbook fit, as does a fit from scratch of its rows; and the rewards score
    the means as they score a row-ordered copy. Where the rewards sum in another order,
    the golden digests would move; this says where."""

    @pytest.mark.parametrize("behavior_dim, distance, prior_kind", [
        (1, DistanceKind.WRAPPED_ANGULAR, "function"), (4, DistanceKind.EUCLIDEAN, "archive")])
    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("sigma", [0.1, 0.45])   # long-adaptation's, and a denser cross kernel
    def test_means_near_the_product_and_rewards_bit_for_bit(self, behavior_dim, distance, prior_kind, family, sigma):
        rng = np.random.default_rng(250 + behavior_dim)
        kernel = Kernel(family, sigma, distance)
        points = rng.uniform(-np.pi, np.pi, size=(360, behavior_dim))
        # as in a mission, most inputs are candidates, learned at their index, some repeated, and a few are not
        picks = [*rng.integers(0, 360, 200), *[None] * 50]
        inputs = np.vstack([points[picks[:200]], rng.uniform(-np.pi, np.pi, (50, behavior_dim))])
        order = rng.permutation(250)
        inputs, picks = inputs[order], [picks[i] for i in order]
        prior = sine_prior if prior_kind == "function" else archive_prior(rng, np.vstack([points, inputs]))
        observations = ObservationSet.empty(behavior_dim, 2, 0.001)
        model = fit(observations, kernel, prior)
        posterior = CandidatePosterior(points, model)
        row_ordered_prior = prior_values(prior, points)
        for t, (x, y, pick) in enumerate(zip(inputs, rng.normal(scale=0.1, size=(250, 2)), picks), start=1):
            posterior.learn(x, y, pick)
            means, _ = posterior.score()
            assert means.flags.f_contiguous
            product = row_ordered_prior + posterior.buffer[1, :t].T @ model.z
            np.testing.assert_allclose(means, product, rtol=0, atol=MEAN_BOUND)
            rows = np.ascontiguousarray(means)
            pose, waypoint, direction = rng.normal(size=(3, 2))
            distance_reward = make_distance_reward(waypoint, pose)
            assert bits(distance_reward(means)) == bits(distance_reward(rows))
            assert bits(np.vecdot(means, direction)) == bits(np.vecdot(rows, direction))   # the projection reward
            if t % 25 == 0 or t in (1, 2, 3):
                for index in rng.choice(360, 12, replace=False):
                    np.testing.assert_allclose(means[index], predict(model, points[index])[0], rtol=0, atol=MEAN_BOUND)
            if t in (1, 2, 3, 250):
                assert_scores_as_a_posterior_of(posterior, model)
                caller = ObservationSet(inputs[:t], np.array(model.observations.outputs), 0.001)
                assert_near_textbook(model)
                assert_near_textbook(fit(caller, kernel, prior))


def near_twin_inputs(rng, t, behavior_dim, twin):
    """t random inputs; with `twin`, input 5 differs from input 2 by 1e-300 in
    a zero coordinate: k = 1 exactly under either family, so a noiseless
    matrix factors only with the jitter."""
    inputs = rng.uniform(-np.pi, np.pi, size=(t, behavior_dim))
    if twin:
        inputs[2, 0] = 0.0
        inputs[5] = inputs[2]
        inputs[5, 0] = 1e-300
    return inputs


# The most z may differ from scipy's triangular solve of Y - P(X) with the model's own factor,
# relative to the largest |z|: both substitute forward, in their own order (at most 1.2e-15
# measured up to MAX_GP_OBSERVATIONS inputs, with the near twin and without it).
SOLVE_BOUND = 1e-12


class TestSolve:
    """`learn` grows z = L^-1 (Y - P(X)) by one entry per row, with no triangular solve; it
    stays the forward solve of the residuals with the model's own factor, through every
    doubling of the buffers up to MAX_GP_OBSERVATIONS rows, as a fit from scratch's does."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("twin", [False, True])
    def test_z_is_the_forward_solve_of_the_residuals(self, family, twin):
        rng = np.random.default_rng(17)
        t, noise, kernel = MAX_GP_OBSERVATIONS, 0.0 if twin else 0.001, Kernel(family, 0.45)
        inputs = near_twin_inputs(rng, t, 4, twin)
        outputs = rng.normal(size=(t, 2))
        observations = ObservationSet.empty(4, 2, noise)
        posterior = CandidatePosterior(inputs[:3], fit(observations, kernel, sine_prior))
        model, ends, capacities = posterior.model, (1, 2, 3, 5, 6, 7, 8, 9, 60, 61, 400, 401, t), []
        for end in ends:   # learned one row at a time, checked at each end
            for x, y in zip(inputs[len(observations):end], outputs[len(observations):end]):
                posterior.learn(x, y)
            for grown in (model, fit(ObservationSet(inputs[:end], outputs[:end], noise), kernel, sine_prior)):
                assert_diagonal(grown, JITTER if twin else 0.0)
                residuals = grown.observations.outputs - prior_values(sine_prior, grown.observations.inputs)
                want = solve_triangular(grown.chol, residuals, lower=True)
                assert np.abs(grown.z - want).max() <= SOLVE_BOUND * np.abs(want).max()
                assert_near_textbook(grown)
            capacities.append(len(model.buffers[0]))
        # spare rows before a doubling (at 6 and 7) and just after one (at 61 and 401),
        # with the near twin as without it
        assert capacities == [1, 2, 4, 8, 8, 8, 8, 16, 64, 64, 512, 512, MAX_GP_OBSERVATIONS]


SOURCE = str(Path(gp.__file__).resolve().parents[1])

# A fresh sela process: the CLI's imports and one replicate of every method on the damaged point robot.
SELA_ALONE = """
import sys
import sela.cli
from sela.config import parse_config
from sela.experiment import run_experiment

run_experiment(parse_config(
    "world = point_robot\\ndamage = angle_offset\\nmethods = sela, babbling, episodic_ite, uncertainty\\nstep_cap = 20\\n"
))
assert not [name for name in sys.modules if name.startswith("scipy")], sorted(sys.modules)
"""


def run_fresh(code, *path):
    """`code` in a fresh interpreter with `path` and the sources ahead of site-packages."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), SOURCE]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


class TestNoScipy:
    """sela needs numpy alone: scipy is a test-only dependency, an oracle for the solves."""

    def test_a_fresh_process_runs_an_experiment_without_scipy(self):
        result = run_fresh(SELA_ALONE)
        assert result.returncode == 0, result.stderr

    def test_scipy_is_declared_for_the_tests_alone(self):
        with open(Path(SOURCE).parent / "pyproject.toml", "rb") as file:
            project = tomllib.load(file)["project"]
        assert not [need for need in project["dependencies"] if need.startswith("scipy")]
        assert [need for need in project["optional-dependencies"]["test"] if need.startswith("scipy")]


class TestPosteriorBuffers:
    """`CandidatePosterior` keeps k(X, points) and L^-1 k(X, points) in the
    first t rows of a buffer whose capacity doubles when it fills."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_scoring_through_doublings_without_noise(self, family, monkeypatch):
        # fresh capacity is NaN, so a read past row t would spoil the scores: they stay finite
        # and equal those of a new posterior of the model, whose buffers have no spare rows
        empty = np.empty

        def nan_empty(shape, *args, **kwargs):
            array = empty(shape, *args, **kwargs)
            array.fill(np.nan)
            return array

        monkeypatch.setattr(np, "empty", nan_empty)
        rng = np.random.default_rng(23)
        kernel = Kernel(family, 0.45)
        inputs = near_twin_inputs(rng, 40, 4, twin=True)
        outputs = rng.normal(size=(40, 2))
        points = rng.uniform(-np.pi, np.pi, size=(25, 4))
        observations = ObservationSet.empty(4, 2, 0.0)
        model = fit(observations, kernel, sine_prior)
        posterior = CandidatePosterior(points, model)
        scored, capacities = [], [0]   # (returned array, its copy); capacities seen
        for end in (0, 1, 2, 3, 5, 6, 9, 10, 11, 17, 18, 30, 33, 40):
            for step in range(len(observations), end):   # learned one observation at a time, scored only at some
                posterior.learn(inputs[step], outputs[step])
            means, sigma = posterior.score()
            assert np.isfinite(means).all() and np.isfinite(sigma).all()
            assert_scores_as_a_posterior_of(posterior, model)
            assert bits(sigma) == bits(np.sqrt(2 * predict_batch(model, points)[1]))
            assert bits(posterior.cross) == bits(kernel_matrix(kernel, inputs[:end], points))
            assert np.isnan(posterior.buffer[:, end:]).all()   # never written
            capacity = posterior.buffer.shape[1]
            if capacity != capacities[-1]:
                assert capacity == max(end, 2 * capacities[-1])
                capacities.append(capacity)
            scored += [(array, array.copy()) for array in (means, sigma, posterior.cross)]
            for array, copy in scored:
                assert bits(array) == bits(copy)
        assert_diagonal(model, JITTER)
        assert capacities == [0, 1, 2, 4, 8, 16, 32, 64]


def views(model):
    """The arrays of a model and of its observations, as they are now."""
    return [model.chol, model.z, model.observations.inputs, model.observations.outputs]


def state(posterior):
    """What a failed learning step must leave as it was: the model's t, the bits of its
    arrays, of the posterior's rows and sums and of a prediction, and the inputs seen."""
    model = posterior.model
    t, (mean, variance) = len(model.chol), predict(model, [0.7])
    arrays = (*views(model), posterior.cross, posterior.buffer[:, :t], posterior.sums, mean, variance)
    return t, dict(posterior.seen), [bits(array) for array in arrays]


class TestGrowInPlace:
    """`learn` writes its rows past the set's, the model's and the posterior's in
    place, into buffers that double when full; rows once written never change,
    so no view taken earlier changes."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(list(KernelFamily)),
        noise=st.sampled_from([0.0, 0.001]),
        steps=st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_views_taken_before_growth_and_doublings_stay_intact(self, family, noise, steps, seed):
        # each step grows the one model by 1-3 new rows, learned one at a time;
        # `twin` makes the first a near copy of the last input, which factors by
        # the jitter without noise
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, 0.45)
        observations = ObservationSet.empty(2, 2, noise)
        posterior = CandidatePosterior(rng.uniform(-np.pi, np.pi, size=(9, 2)), fit(observations, kernel, sine_prior))
        model = posterior.model
        taken = []   # (view, its copy) of every step
        for count, twin in steps:
            inputs = rng.uniform(-np.pi, np.pi, size=(count, 2))
            if twin and len(model.chol):
                inputs[0] = observations.inputs[-1] + 1e-12
            for x, y in zip(inputs, rng.normal(size=(count, 2))):
                posterior.learn(x, y)
            assert_consistent(posterior)
            taken += [(view, np.array(view)) for view in views(model) + [posterior.cross]]
            for view, copy in taken:
                assert bits(view) == bits(copy)

    def test_a_near_twin_without_noise_extends_in_place(self):
        # the twin's row goes into the set's, the model's and the posterior's
        # buffers like any other, in the room that the doubling at t = 5 left; the
        # model keeps the bits of a fit of the first five rows, which learns them at
        # the same indices of the same points into buffers of five rows, grown by it
        rng = np.random.default_rng(6)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(5, 1)), rng.normal(size=(6, 2))
        observations = ObservationSet.empty(1, 2, 0.0)
        posterior = CandidatePosterior(inputs, fit(observations, SQEXP, sine_prior))
        model = posterior.model
        for index, (x, y) in enumerate(zip(inputs, outputs)):
            posterior.learn(x, y, index)
        buffers, rows, rooms = model.buffers, observations.rows, posterior.buffer
        posterior.learn(inputs[-1] + 1e-12, outputs[5])
        assert_diagonal(model, JITTER)
        assert all(mine is theirs for mine, theirs in zip(model.buffers, buffers)) and observations.rows is rows
        assert posterior.buffer is rooms and len(rooms[0]) == 8
        twin = CandidatePosterior(inputs, fit(ObservationSet(inputs, outputs[:5], 0.0), SQEXP, sine_prior))
        assert len(twin.model.buffers[0]) == 5
        twin.learn(inputs[-1] + 1e-12, outputs[5])
        assert_same_posterior(posterior, twin)

    def test_views_of_the_buffers_are_read_only(self):
        rng = np.random.default_rng(3)
        inputs, outputs = rng.normal(size=(3, 1)), rng.normal(size=(3, 2))
        observations = ObservationSet(inputs, outputs, 0.001)
        model = fit(observations, SQEXP, sine_prior)
        before = views(model)
        CandidatePosterior(inputs, model).learn([0.5], [1.0, 2.0])
        for array in before + views(model):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        # the set copies the caller's arrays and leaves their flags alone
        assert not np.shares_memory(observations.rows, inputs) and not np.shares_memory(observations.rows, outputs)
        assert inputs.flags.writeable and outputs.flags.writeable

    def test_learn_checks_only_the_new_row(self, monkeypatch):
        rng = np.random.default_rng(4)
        observations = ObservationSet(rng.normal(size=(5, 1)), rng.normal(size=(5, 2)), 0.001)
        posterior = CandidatePosterior([[0.0]], fit(observations, SQEXP, sine_prior))
        posterior.learn([0.1], [0.0, 0.0])
        checked, real = [], math.isfinite   # the values checked
        monkeypatch.setattr(math, "isfinite", lambda value: checked.append(value) or real(value))
        posterior.learn([0.2], [0.0, 0.0])
        assert checked == [0.2, 0.0, 0.0]   # the new row: input and outcome
        checked.clear()
        fit(ObservationSet(observations.inputs, observations.outputs), SQEXP, sine_prior)
        # a fit from scratch checks every row before it learns any
        assert checked[:21] == observations.rows[:7].ravel().tolist()
        for bad in ([[np.nan], [0.0, 0.0]], [[0.3], [0.0, np.inf]]):
            with pytest.raises(GpFitError, match="finite"):
                posterior.learn(*bad)
            assert len(posterior.model.chol) == len(observations) == len(posterior.cross) == 7
        # the rejected row stays in the set's buffer past t, where a fit from scratch does not look
        assert not np.isfinite(observations.rows[7]).all()
        caller = ObservationSet(np.array(observations.inputs), np.array(observations.outputs), 0.001)
        assert_same_model(fit(observations, SQEXP, sine_prior), fit(caller, SQEXP, sine_prior))
        # the buffer is the set's own: a caller cannot hand one in past the checks
        with pytest.raises(TypeError):
            ObservationSet(observations.inputs, observations.outputs, 0.001, np.zeros((7, 3)))

    def test_a_fit_from_scratch_has_exactly_t_rows_and_growth_doubles(self):
        # a set, a fit from the caller's arrays and a posterior of it hold t rows;
        # growth doubles them, but never past MAX_GP_OBSERVATIONS rows
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-np.pi, np.pi, size=(MAX_GP_OBSERVATIONS, 1))
        outputs = rng.normal(size=(MAX_GP_OBSERVATIONS, 2))

        def capacities(posterior):
            factor, z = posterior.model.buffers
            assert factor.shape == (len(z), len(z)) and posterior.buffer.shape[1] == len(z)
            return len(posterior.model.observations.rows), len(z)

        posterior = CandidatePosterior([[0.0]], fit(ObservationSet(inputs[:5], outputs[:5], 0.001), SQEXP, sine_prior))
        assert capacities(posterior) == (5, 5)
        for t in (6, 7, 8):
            posterior.learn(inputs[t - 1], outputs[t - 1])
            assert capacities(posterior) == (10, 10)
        model = fit(ObservationSet(inputs[:-1], outputs[:-1], 0.001), SQEXP, sine_prior)
        posterior = CandidatePosterior([[0.0]], model)
        assert capacities(posterior) == (MAX_GP_OBSERVATIONS - 1,) * 2
        posterior.learn(inputs[-1], outputs[-1])
        assert capacities(posterior) == (MAX_GP_OBSERVATIONS,) * 2

    def test_a_fit_from_scratch_builds_one_posterior_at_its_inputs(self, monkeypatch):
        # `fit` learns each input at its index of a posterior at the inputs: it builds that one
        # posterior, of the empty model, and no step after it builds another
        built = recording_posteriors(monkeypatch)
        rng = np.random.default_rng(9)
        observations = ObservationSet(rng.normal(size=(7, 2)), rng.normal(size=(7, 3)), 0.001)
        model = fit(observations, SQEXP, zero_prior(3))
        assert built == [(bits(observations.inputs), 0)] and len(model.chol) == len(model.z) == 7
        monkeypatch.undo()
        assert_near_textbook(model)


class TestFitErrors:
    # -0.0 is the same input as 0.0 to the kernel
    @pytest.mark.parametrize("inputs", [[[0.5], [0.5]], [[0.0], [-0.0]], [[-0.0, 0.3], [0.0, 0.3]]])
    def test_duplicate_inputs_without_noise_factor_with_the_jitter(self, inputs):
        obs = ObservationSet(np.array(inputs), np.array([[1.0], [2.0]]), 0.0)
        model = fit(obs, SQEXP, zero_prior(1))
        assert_diagonal(model, JITTER)
        # the two observations average out
        assert predict(model, obs.inputs[0])[0][0] == pytest.approx(1.5, rel=1e-9)

    @pytest.mark.parametrize("at", ["candidate", "behavior"])
    def test_a_pivot_that_is_not_positive_raises_and_leaves_model_and_posterior_intact(self, monkeypatch, at):
        # a factor row no kernel gives, r.r > 1 + noise: candidate 0's column of L^-1 k(X, points)
        # in the posterior's rows, or the column of a one-point posterior at a behavior whose
        # kernel k(X, x) = 2 > k(x, x). The buffers have room for the new row, so a written row would
        # land there. The model's and the posterior's t, arrays, score and predictions keep
        # their bits, and the row learned next gives the bits of a posterior that never met it.
        rng = np.random.default_rng(15)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(4, 1)), rng.normal(size=(4, 2))
        points = np.vstack([inputs[3:], rng.uniform(-np.pi, np.pi, size=(5, 1))])
        *_, posterior = grow(ObservationSet(inputs[:3], outputs[:3], 0.001), SQEXP, sine_prior, points)
        model = posterior.model
        assert len(model.buffers[0]) == len(posterior.buffer[0]) == len(model.observations.rows) == 4
        means, sigma = posterior.score()
        column = posterior.buffer[1, :3, 0].copy()
        posterior.buffer[1, :3, 0] = 2.0 if at == "candidate" else column
        before = state(posterior)
        with monkeypatch.context() as patch:
            if at == "behavior":
                patch.setattr(gp, "kernel_matrix", lambda kernel, a, b: np.full((len(a), len(b)), 2.0))
            with pytest.raises(GpFitError) as raised:
                posterior.learn(inputs[3], outputs[3], 0 if at == "candidate" else None)
        assert str(raised.value) == f"kernel matrix not positive definite (t=4, noise_variance=0.001, kernel={SQEXP})"
        assert state(posterior) == before
        assert posterior.score()[0] is means and posterior.score()[1] is sigma
        posterior.buffer[1, :3, 0] = column
        posterior.learn(inputs[3], outputs[3], 0 if at == "candidate" else None)
        *_, twin = grow(ObservationSet(inputs[:3], outputs[:3], 0.001), SQEXP, sine_prior, points)
        twin.learn(inputs[3], outputs[3], 0 if at == "candidate" else None)
        assert_same_posterior(posterior, twin)
        assert_consistent(posterior)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["behavior", "observed"])
    def test_a_non_finite_row_learned_raises_and_leaves_model_and_posterior_intact(self, where, bad):
        # the buffers are full at t = 4, so the step reaches its check past a doubling;
        # the model's and the posterior's t, arrays, score and predictions keep their
        # bits, and the next finite row is learned as if the rejected one never came:
        # with the bits of a posterior that learned the same rows alone
        rng = np.random.default_rng(16)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(5, 1)), rng.normal(size=(5, 2))
        points = rng.uniform(-np.pi, np.pi, size=(6, 1))
        *_, posterior = grow(ObservationSet(inputs[:4], outputs[:4], 0.001), SQEXP, sine_prior, points)
        model = posterior.model
        assert len(model.chol) == len(model.buffers[0]) == len(posterior.buffer[0]) == 4
        means, sigma = posterior.score()
        before = state(posterior)
        behavior, observed = inputs[4].copy(), outputs[4].copy()
        {"behavior": behavior, "observed": observed}[where][0] = bad
        with pytest.raises(GpFitError, match="must be finite"):
            posterior.learn(behavior, observed)
        assert state(posterior) == before
        assert posterior.score()[0] is means and posterior.score()[1] is sigma
        posterior.learn(inputs[4], outputs[4])
        *_, twin = grow(ObservationSet(inputs, outputs, 0.001), SQEXP, sine_prior, points)
        assert_same_posterior(posterior, twin)
        assert_consistent(posterior)

    def test_rows_rejected_at_full_buffers_leave_one_capacity(self, monkeypatch):
        # at t = 4 the set's, the model's and the posterior's buffers are full; rows rejected
        # there, for a non-finite value or a pivot that is not positive, leave all three at 4
        # rows, and the next row learned doubles them together
        rng = np.random.default_rng(18)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(5, 1)), rng.normal(size=(5, 2))
        points = rng.uniform(-np.pi, np.pi, size=(6, 1))
        *_, posterior = grow(ObservationSet(inputs[:4], outputs[:4], 0.001), SQEXP, sine_prior, points)
        model = posterior.model

        def capacities():
            factor, z = model.buffers
            return len(model.observations.rows), *factor.shape, len(z), posterior.buffer.shape[1]

        assert capacities() == (4,) * 5
        for bad in (math.nan, math.inf, math.nan):
            with pytest.raises(GpFitError, match="must be finite"):
                posterior.learn([bad], outputs[4])
            assert capacities() == (4,) * 5
        with monkeypatch.context() as patch:
            patch.setattr(gp, "kernel_matrix", lambda kernel, a, b: np.full((len(a), len(b)), 2.0))
            for _ in range(2):
                with pytest.raises(GpFitError, match="not positive definite"):
                    posterior.learn(inputs[4], outputs[4])
                assert capacities() == (4,) * 5
        posterior.learn(inputs[4], outputs[4])
        assert capacities() == (8,) * 5
        *_, twin = grow(ObservationSet(inputs, outputs, 0.001), SQEXP, sine_prior, points)
        assert_same_posterior(posterior, twin)
        assert_consistent(posterior)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["inputs", "outputs"])
    def test_non_finite_observations_rejected(self, where, bad):
        inputs = np.array([[0.1], [0.5], [0.9]])
        outputs = np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        {"inputs": inputs, "outputs": outputs}[where][1, 0] = bad
        with pytest.raises(GpFitError, match="finite"):
            fit(ObservationSet(inputs, outputs, 0.001), Kernel(sigma=0.5), zero_prior(2))

    def test_a_failed_fit_leaves_the_set_as_it_was(self, monkeypatch):
        # the second pivot fails after one row is learned; the set keeps all three rows,
        # and a retry fits them to the bits of a fit of a fresh set
        inputs = np.array([[0.1], [0.5], [0.9]])
        outputs = np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        observations = ObservationSet(inputs, outputs, 0.001)
        views = observations.inputs, observations.outputs
        with monkeypatch.context() as patch:
            patch.setattr(gp, "kernel_matrix", lambda kernel, a, b: np.full((len(a), len(b)), 2.0))
            with pytest.raises(GpFitError, match=r"not positive definite \(t=2,"):
                fit(observations, SQEXP, zero_prior(2))
        assert len(observations) == 3
        assert observations.inputs is views[0] and observations.outputs is views[1]
        assert bits(observations.inputs) == bits(inputs) and bits(observations.outputs) == bits(outputs)
        assert_same_model(fit(observations, SQEXP, zero_prior(2)), fit(ObservationSet(inputs, outputs, 0.001), SQEXP, zero_prior(2)))

    def test_duplicates_fine_with_noise(self):
        obs = ObservationSet(np.array([[0.5], [0.5]]), np.array([[1.0], [2.0]]), 0.001)
        model = fit(obs, SQEXP, zero_prior(1))
        mean, _ = predict(model, 0.5)
        # the two noisy observations average out
        assert mean[0] == pytest.approx(1.5, rel=1e-3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="inputs"):
            ObservationSet(np.zeros((3, 1)), np.zeros((2, 2)))

    def test_query_dimension_mismatch_rejected(self):
        obs = ObservationSet(np.zeros((2, 2)), np.zeros((2, 2)), 0.001)
        model = fit(obs, Kernel(sigma=0.3), zero_prior(2))
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.zeros(3))


def sine_prior(x):
    return np.array([np.sin(x).sum(), np.cos(2.0 * x).sum()])


def grow(observations, kernel, prior, points=None):
    """The posterior at `points` (by default the first input) of one model, grown from its
    empty set by learning the observations one at a time at no candidate index; yields
    the posterior after each learning step."""
    grown = ObservationSet.empty(observations.inputs.shape[1], 2, observations.noise_variance)
    posterior = CandidatePosterior(observations.inputs[:1] if points is None else points, fit(grown, kernel, prior))
    for x, y in zip(observations.inputs, observations.outputs):
        posterior.learn(x, y)
        yield posterior


def assert_same_model(grown, scratch):
    for name in ("chol", "z"):
        assert bits(getattr(grown, name)) == bits(getattr(scratch, name)), name
    if len(grown.chol):   # the noise alone sets K's diagonal
        assert_diagonal(grown, JITTER if grown.observations.noise_variance < JITTER else 0.0)


def assert_same_posterior(posterior, twin):
    """Two posteriors that learned the same rows at the same indices of the same points: their
    models, their rows, their sums and their scores have the same bits, whatever their buffers'
    capacities."""
    mine, theirs = ([*views(p.model), p.cross, p.buffer[1, :len(p.cross)], p.sums, *p.score()] for p in (posterior, twin))
    assert [bits(array) for array in mine] == [bits(array) for array in theirs]


def assert_consistent(posterior):
    """The posterior's score equals, bit for bit, predict_batch of its model at its points
    (`assert_scores_as_a_posterior_of`), and its kernel rows the kernel's; the model and a fit
    from scratch of copies of its rows lie near a textbook fit (`assert_near_textbook`).
    Returns the score."""
    model, points = posterior.model, posterior.points
    observations = model.observations
    caller = ObservationSet(np.array(observations.inputs), np.array(observations.outputs), observations.noise_variance)
    assert_scores_as_a_posterior_of(posterior, model)
    assert bits(posterior.cross) == bits(kernel_matrix(model.kernel, caller.inputs, points))
    assert_near_textbook(model)
    assert_near_textbook(fit(caller, model.kernel, model.prior))
    return posterior.score()


# Twins of a candidate that has a zero coordinate: an exact repeat, its sign-flipped zero, and a
# near twin 1e-12 away. Each gives k = 1 exactly, so without noise each factors by the jitter alone.
TWINS = {"repeat": lambda x: x.copy(), "signed_zero": lambda x: np.where(x == 0.0, -x, x), "near": lambda x: x + 1e-12}


class TestLearn:
    """`CandidatePosterior.learn` grows its model and its own rows by one
    observation, at a candidate index or at any other behavior. The same rows learned
    at the same indices of the same points give the same bits; with a noise variance
    of 1e-3 or more, the model lies near a textbook fit of its rows."""

    @settings(max_examples=150, deadline=None)
    @given(
        behavior_dim=st.sampled_from([1, 4]),
        family=st.sampled_from(list(KernelFamily)),
        distance=st.sampled_from(list(DistanceKind)),
        sigma=st.sampled_from([0.1, 0.45]),
        prior_kind=st.sampled_from(["zero", "function", "archive"]),
        noise=st.sampled_from([0.0, 0.001, 0.05]),
        twin=st.sampled_from([None, *TWINS]),
        picks=st.lists(st.integers(0, 15), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_twin_learns_the_same_bits_near_the_textbook(
        self, behavior_dim, family, distance, sigma, prior_kind, noise, twin, picks, seed
    ):
        # a pick below 8 learns that candidate at its index, as UCB's steps do; 8-15 learn one
        # of 8 other behaviors at no index, as babbling does. Picks may repeat, and `twin` makes
        # candidate 1 a twin of candidate 0. Up to 20 rows pass the doublings at 1, 2, 4, 8 and 16.
        # A second posterior learns the same rows, scored only at the end.
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, sigma, distance)
        points, others = rng.uniform(-np.pi, np.pi, size=(2, 8, behavior_dim))
        points[0, 0] = 0.0
        if twin is not None:
            points[1] = TWINS[twin](points[0])
        prior = {
            "zero": zero_prior(2), "function": sine_prior, "archive": archive_prior(rng, np.vstack([points, others])),
        }[prior_kind]
        posterior, unscored = (
            CandidatePosterior(points, fit(ObservationSet.empty(behavior_dim, 2, noise), kernel, prior)) for _ in range(2)
        )
        taken = []
        for pick in picks:
            y = rng.normal(size=2)
            for learning in (posterior, unscored):
                if pick < 8:
                    learning.learn(points[pick], y, pick)
                else:
                    learning.learn(others[pick - 8], y)
            means, sigma = assert_consistent(posterior)
            taken += [(view, np.array(view)) for view in views(posterior.model) + [posterior.cross, means, sigma]]
            assert all(bits(view) == bits(copy) for view, copy in taken)
        assert_same_posterior(unscored, posterior)

    @pytest.mark.parametrize("t", [0, 1, 5, 8])
    def test_a_posterior_of_a_fitted_model_learns_like_one_of_a_grown_model(self, t):
        # a fit from scratch learns its t rows at their indices of a posterior at its inputs,
        # into buffers of t rows: a model grown that way, through the doublings, has its bits.
        # A posterior of each solves the t rows at once, then learns a row per step, at a
        # candidate or at another behavior, through the doubling of the buffers that the fit
        # sized to t; the second behavior is the fitted model's first input, whose kernel row
        # the posterior copies
        rng = np.random.default_rng(20 + t)
        kernel = Kernel(KernelFamily.EXPONENTIAL, 0.45, DistanceKind.WRAPPED_ANGULAR)
        points, others = rng.uniform(-np.pi, np.pi, size=(2, 6, 2))
        observations = ObservationSet(rng.uniform(-np.pi, np.pi, size=(t, 2)), rng.normal(size=(t, 2)), 0.001)
        if t:
            others[5] = observations.inputs[0]
        grown = CandidatePosterior(observations.inputs, fit(ObservationSet.empty(2, 2, 0.001), kernel, sine_prior))
        for index, (x, y) in enumerate(zip(observations.inputs, observations.outputs)):
            grown.learn(x, y, index)
        posterior, twin = CandidatePosterior(points, fit(observations, kernel, sine_prior)), CandidatePosterior(points, grown.model)
        assert len(posterior.model.buffers[0]) == t and len(twin.model.buffers[0]) == (8 if t == 5 else t)
        assert_same_posterior(posterior, twin)
        assert_consistent(posterior)
        for step, index in enumerate((0, 3, None, 0, 5, None, 3, None, 1, 2)):
            y = rng.normal(size=2)
            for learning in (posterior, twin):
                if index is None:
                    learning.learn(others[step % 6], y)
                else:
                    learning.learn(points[index], y, index)
            assert len(posterior.model.chol) == t + step + 1
            assert_same_posterior(posterior, twin)
            assert_consistent(posterior)

    @pytest.mark.parametrize("behavior_dim", [1, 4])
    def test_jitter_path_matches_scratch(self, behavior_dim):
        # two inputs 1e-12 apart: k = 1 exactly, so only the jitter makes
        # the noiseless matrix factorizable
        rng = np.random.default_rng(behavior_dim)
        inputs = rng.uniform(-1, 1, size=(4, behavior_dim))
        inputs = np.vstack([inputs, inputs[1] + 1e-12])
        observations = ObservationSet(inputs, rng.normal(size=(5, 2)), 0.0)
        grown = CandidatePosterior(inputs, fit(ObservationSet.empty(behavior_dim, 2, 0.0), SQEXP, sine_prior))
        for index, (x, y) in enumerate(zip(inputs, observations.outputs)):
            grown.learn(x, y, index)
        gram = kernel_matrix(SQEXP, inputs, inputs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        np.linalg.cholesky(gram + JITTER * np.eye(5))
        assert_diagonal(grown.model, JITTER)
        assert_same_model(grown.model, fit(observations, SQEXP, sine_prior))

    def test_the_jitter_rides_on_every_row_without_noise(self):
        # the near twin at row 3 extends the factor like any other input: the
        # rows before it keep their bits at every t, and the model carries the
        # jitter. The posterior, scored first at t = 3, goes on from the rows it
        # learned, and scores as a new posterior of its model.
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1, 1, size=(7, 1))
        inputs = np.vstack([inputs[:3], inputs[1] + 1e-12, inputs[3:]])
        observations = ObservationSet(inputs, rng.normal(size=(8, 2)), 0.0)
        points = rng.uniform(-1, 1, size=(40, 1))
        factors = []
        for t, posterior in enumerate(grow(observations, SQEXP, sine_prior, points), start=1):
            model = posterior.model
            factors.append(model.chol)
            assert_diagonal(model, JITTER)
            if t > 1:
                assert bits(model.chol[:t - 1, :t - 1]) == bits(factors[-2])
            if t < 3:
                continue
            assert_scores_as_a_posterior_of(posterior, model)

    def test_learning_a_behavior_evaluates_the_kernel_only_at_it(self, monkeypatch):
        # one posterior at it, of the model before its row, whose kernel column runs over the
        # earlier inputs; then its row over the points
        rng = np.random.default_rng(12)
        inputs, outputs, points = rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), rng.normal(size=(9, 1))
        posterior = CandidatePosterior(points, fit(ObservationSet(inputs[:5], outputs[:5], 0.001), SQEXP, sine_prior))
        evaluated, real = [], gp.kernel_matrix

        def recording_kernel_matrix(kernel, a, b):
            evaluated.append({bits(a), bits(b)})
            return real(kernel, a, b)

        monkeypatch.setattr(gp, "kernel_matrix", recording_kernel_matrix)
        built = recording_posteriors(monkeypatch)
        posterior.learn(inputs[5], outputs[5])
        assert built == [(bits(inputs[5:]), 5)]
        assert evaluated == [{bits(inputs[5:]), bits(inputs[:5])}, {bits(inputs[5:]), bits(points)}]
        monkeypatch.undo()
        assert_consistent(posterior)

    def test_prior_evaluated_only_at_the_new_input(self):
        seen = []

        def counting_prior(x):
            seen.append(x.copy())
            return sine_prior(x)

        rng = np.random.default_rng(4)
        observations = ObservationSet(rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), 0.001)
        list(grow(observations, SQEXP, counting_prior))
        # once at the posterior's one point, the first input, then at each input learned
        np.testing.assert_array_equal(np.array(seen), np.vstack([observations.inputs[:1], observations.inputs]))


def recording_posteriors(monkeypatch):
    """Patches CandidatePosterior.__init__; returns (its points' bits, its model's t) per posterior built."""
    built, init = [], CandidatePosterior.__init__

    def recording(posterior, points, model):
        init(posterior, points, model)
        built.append((bits(posterior.points), len(model.chol)))

    monkeypatch.setattr(CandidatePosterior, "__init__", recording)
    return built


def recording_kernel_matrix(monkeypatch):
    """Patches gp.kernel_matrix; returns the list of (rows of a, rows of b) per call."""
    calls, real = [], gp.kernel_matrix

    def recording(kernel, a, b):
        calls.append((len(a), len(b)))
        return real(kernel, a, b)

    monkeypatch.setattr(gp, "kernel_matrix", recording)
    return calls


class TestZeroNoise:
    """A model whose noise variance is below JITTER carries JITTER on K's
    diagonal from its first row, so a repeated input factors; any other
    model carries none."""

    @pytest.mark.parametrize("noise, jitter", [(0.0, JITTER), (1e-11, JITTER), (JITTER, 0.0), (0.001, 0.0)])
    def test_the_noise_alone_sets_the_jitter(self, noise, jitter):
        rng = np.random.default_rng(13)
        observations = ObservationSet(rng.normal(size=(3, 1)), rng.normal(size=(3, 2)), noise)
        for posterior in grow(observations, SQEXP, sine_prior):
            assert_diagonal(posterior.model, jitter)

    @pytest.mark.parametrize("twin", list(TWINS.values()), ids=list(TWINS))
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_a_chain_with_a_twin_factors_with_the_jitter(self, family, twin, monkeypatch):
        # a mission's chain: each step learns a candidate at its index, taking
        # the factor's row from the posterior's rows; the kernel runs only
        # for the posterior's row of an input not learned before, so neither
        # for the exact repeat of candidate 2 nor for any candidate learned again.
        # The score is predict_batch's at the points, bit for bit.
        rng = np.random.default_rng(14)
        kernel = Kernel(family, 0.45)
        points = rng.uniform(-np.pi, np.pi, size=(7, 2))
        points[2, 1] = 0.0
        points[6] = twin(points[2])
        observations = ObservationSet.empty(2, 2, 0.0)
        posterior = CandidatePosterior(points, fit(observations, kernel, sine_prior))
        model, learned = posterior.model, set()
        calls = recording_kernel_matrix(monkeypatch)
        for index in (2, 0, 2, 6, 5, 6, 2, 2, 6, 1):
            calls.clear()
            posterior.learn(points[index], rng.normal(size=2), index)
            assert calls == ([] if points[index].tobytes() in learned else [(1, 7)])
            learned.add(points[index].tobytes())
            assert_diagonal(model, JITTER)
            assert_scores_as_a_posterior_of(posterior, model)


class TestLearnAtACandidate:
    """A learning step at a candidate takes its factor row L^-1 k(X, x) and P(x) from the
    posterior's rows, and copies the kernel row of an input it has seen."""

    def test_learning_a_candidate_evaluates_no_prior_and_the_kernel_once(self, monkeypatch):
        # the kernel runs once per candidate, for its row over the points when it is
        # first learned; a repeat and the scoring run neither it nor the prior
        calls = recording_kernel_matrix(monkeypatch)
        priors = []
        rng = np.random.default_rng(2)
        points = rng.uniform(-np.pi, np.pi, size=(9, 1))
        prior = lambda x: priors.append(1) or sine_prior(x)
        observations, learned = ObservationSet.empty(1, 2, 0.001), set()
        posterior = CandidatePosterior(points, fit(observations, WRAPPED, prior))
        assert len(priors) == 9
        for index in (3, 5, 3, 3, 8, 5):
            calls.clear()
            posterior.learn(points[index], rng.normal(size=2), index)
            assert calls == ([] if index in learned else [(1, 9)]) and len(priors) == 9
            posterior.score()
            assert calls == ([] if index in learned else [(1, 9)])
            learned.add(index)
        assert_consistent(posterior)

    def test_a_near_twin_without_noise_takes_the_posteriors_column(self, monkeypatch):
        # the near twin's factor row takes the posterior's column like any other;
        # the kernel runs only for each new input's row over the points
        calls = recording_kernel_matrix(monkeypatch)
        points = np.array([[0.3], [1.2], [0.3 + 1e-12]])
        observations = ObservationSet.empty(1, 2, 0.0)
        posterior = CandidatePosterior(points, fit(observations, SQEXP, sine_prior))
        for index in range(3):
            calls.clear()
            posterior.learn(points[index], [0.1 * index, 0.2], index)
            assert calls == [(1, 3)]
        assert_diagonal(posterior.model, JITTER)
        scratch = fit(ObservationSet(points, [[0.0, 0.2], [0.1, 0.2], [0.2, 0.2]], 0.0), SQEXP, sine_prior)
        assert_same_model(posterior.model, scratch)

    def test_a_step_at_a_candidate_builds_no_posterior_and_one_elsewhere_builds_one_at_it(self, monkeypatch):
        # at a candidate the factor row is the posterior's column and z_t one dot; only a
        # behavior off the candidates builds a posterior, at it, of the model before its row,
        # and a score builds none
        built = recording_posteriors(monkeypatch)
        rng = np.random.default_rng(4)
        points = rng.uniform(-np.pi, np.pi, size=(9, 1))
        posterior = CandidatePosterior(points, fit(ObservationSet.empty(1, 2, 0.001), WRAPPED, sine_prior))
        assert built == [(bits(points), 0)]
        for t, index in enumerate((3, None, 5, 3, None, 8)):
            built.clear()
            behavior = points[index] if index is not None else rng.uniform(-np.pi, np.pi, size=1)
            posterior.learn(behavior, rng.normal(size=2), index)
            posterior.score()
            assert built == ([] if index is not None else [(bits(behavior), t)])
        monkeypatch.undo()
        assert_consistent(posterior)

    @pytest.mark.parametrize("noise", [0.0, 0.001])
    @pytest.mark.parametrize("twin", list(TWINS.values()), ids=list(TWINS))
    def test_learning_at_the_index_lies_near_learning_at_the_behavior(self, twin, noise):
        # two posteriors learn the same steps, one at the candidates' indices and one at their
        # behaviors alone; candidate 1 is a twin of candidate 0, and picks repeat. The set and
        # the kernel rows keep the same bits; the factor row comes from the posterior's column
        # in one and from a one-point posterior's in the other, so with noise the models and
        # scores lie within the bounds of each other, and without it both carry the jitter
        rng = np.random.default_rng(17)
        kernel = Kernel(KernelFamily.SQUARED_EXPONENTIAL, 0.45)
        points = rng.uniform(-np.pi, np.pi, size=(5, 2))
        points[0, 1] = 0.0
        points[1] = twin(points[0])
        by_index, by_behavior = (
            CandidatePosterior(points, fit(ObservationSet.empty(2, 2, noise), kernel, sine_prior)) for _ in range(2)
        )
        for index in (0, 1, 3, 0, 4, 1, 2, 2):
            y = rng.normal(size=2)
            by_index.learn(points[index], y, index)
            by_behavior.learn(points[index], y)
            mine, theirs = ([p.model.observations.inputs, p.model.observations.outputs, p.cross] for p in (by_index, by_behavior))
            assert [bits(array) for array in mine] == [bits(array) for array in theirs]
            if noise >= 1e-3:
                np.testing.assert_allclose(by_index.model.chol, by_behavior.model.chol, rtol=0, atol=FACTOR_BOUND)
                np.testing.assert_allclose(by_index.model.z, by_behavior.model.z, rtol=0, atol=Z_BOUND)
                np.testing.assert_allclose(by_index.score()[0], by_behavior.score()[0], rtol=0, atol=MEAN_BOUND)
        for posterior in (by_index, by_behavior):
            assert_diagonal(posterior.model, JITTER if noise < JITTER else 0.0)
            assert_consistent(posterior)
