"""GP regression tests: frozen closed-form values, a brute-force
explicit-inverse oracle, and structural properties of the posterior."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

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
        obs.append(x, [0.3])
        _, after = predict(fit(obs, SQEXP, prior, previous=model), x)
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
        # posterior equals predict_batch's, and its arrays are read-only, so
        # a caller cannot spoil the kept prior or score
        rng = np.random.default_rng(t)
        prior = lambda x: np.array([np.sin(x[0]), np.cos(x[0])])
        observations = ObservationSet(rng.uniform(-3, 3, size=(t, 1)), rng.normal(size=(t, 2)), 0.001)
        model = fit(observations, WRAPPED, prior)
        points = rng.uniform(-3, 3, size=(50, 1))
        posterior = CandidatePosterior(points, model)
        means, sigma = posterior.score()
        fresh = predict_batch(model, points)
        np.testing.assert_array_equal(means, fresh[0])
        np.testing.assert_array_equal(sigma, np.sqrt(2 * fresh[1]))
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
        scored = []
        real = gp._posterior
        monkeypatch.setattr(gp, "_posterior", lambda *args: scored.append(1) or real(*args))
        first = posterior.score()
        for _ in range(3):
            again = posterior.score()
            assert again[0] is first[0] and again[1] is first[1]
        assert len(scored) == 1

    @pytest.mark.parametrize("change", ["kernel", "prior", "noise", "inputs", "fewer_inputs"])
    def test_model_must_extend_what_was_scored(self, change):
        # the posterior's model grows only by a refit of its own set with its own
        # kernel and prior: any other refit raises and leaves the model and the
        # kept score as they were, and the posterior then scores the model grown
        rng = np.random.default_rng(6)
        prior = zero_prior(2)
        inputs, outputs = rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
        observations = ObservationSet(inputs[:3], outputs[:3], 0.001)
        model = fit(observations, SQEXP, prior)
        points = rng.normal(size=(30, 1))
        posterior = CandidatePosterior(points, model)
        means, sigma = posterior.score()
        observations.append(inputs[3], outputs[3])
        refit, kernel, refit_prior = {
            "kernel": (observations, Kernel(sigma=0.3), prior),
            "prior": (observations, SQEXP, sine_prior),
            "noise": (ObservationSet(inputs, outputs, 0.0), SQEXP, prior),
            "inputs": (ObservationSet(inputs + 1.0, outputs, 0.001), SQEXP, prior),
            "fewer_inputs": (ObservationSet(inputs[:2], outputs[:2], 0.001), SQEXP, prior),
        }[change]
        with pytest.raises(ValueError, match="prefix"):
            fit(refit, kernel, refit_prior, previous=model)
        assert len(model.chol) == 3 and model.observations is observations
        assert posterior.score()[0] is means and posterior.score()[1] is sigma
        assert fit(observations, SQEXP, prior, previous=model) is model
        means, sigma = posterior.score()
        want = predict_batch(model, points)
        assert bits(means) == bits(want[0]) and bits(sigma) == bits(np.sqrt(2 * want[1]))

    def test_the_model_scored_last_skips_the_prefix_compare_as_it_grows(self, monkeypatch):
        # neither fit nor score compares a prefix of the model's own set as it
        # grows, and a refit onto a shorter set raises without one
        rng = np.random.default_rng(9)
        prior = zero_prior(2)
        observations = ObservationSet.empty(1, 2, 0.001)
        model = fit(observations, SQEXP, prior)
        points = rng.normal(size=(30, 1))
        posterior = CandidatePosterior(points, model)
        posterior.score()
        compared, real = [], np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda *args: compared.append(1) or real(*args))
        for x, y in zip(rng.normal(size=(5, 1)), rng.normal(size=(5, 2))):
            observations.append(x, y)
            assert fit(observations, SQEXP, prior, previous=model) is model
            means, sigma = posterior.score()
        shorter = ObservationSet(observations.inputs[:4], observations.outputs[:4], 0.001)
        with pytest.raises(ValueError, match="prefix"):
            fit(shorter, SQEXP, prior, previous=model)
        assert compared == []
        monkeypatch.undo()
        want = predict_batch(model, points)
        assert bits(means) == bits(want[0]) and bits(sigma) == bits(np.sqrt(2 * want[1]))

    def test_a_posterior_serves_its_own_model_alone(self):
        # built for one model, it takes the kernel and prior from it and scores
        # no other: score and mean_at take no model, and another model's
        # growth, even an equal copy's, leaves its score as it was
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
        with pytest.raises(TypeError):
            posterior.mean_at(other, 0)
        means, sigma = posterior.score()
        copy.append(inputs[3], outputs[3])
        fit(copy, kernel, sine_prior, previous=other)
        assert posterior.score()[0] is means and posterior.score()[1] is sigma
        want = predict_batch(model, points)
        assert bits(means) == bits(want[0]) and bits(sigma) == bits(np.sqrt(2 * want[1]))
        assert bits(posterior.mean_at(3)) == bits(predict(model, points[3])[0])

    def test_the_empty_models_first_score_is_the_prior(self):
        # a posterior holds no score before its first, so mean_at refuses; the empty
        # model scores to the prior with unit variance per dimension (sigma sqrt(2)),
        # and a second score with no growth returns the same objects
        rng = np.random.default_rng(11)
        points = rng.uniform(-np.pi, np.pi, size=(30, 1))
        model = fit(ObservationSet.empty(1, 2, 0.001), WRAPPED, sine_prior)
        posterior = CandidatePosterior(points, model)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(0)
        means, sigma = posterior.score()
        np.testing.assert_array_equal(means, prior_values(sine_prior, points))
        np.testing.assert_array_equal(sigma, np.full(len(points), math.sqrt(2.0)))
        again = posterior.score()
        assert again[0] is means and again[1] is sigma
        assert bits(posterior.mean_at(3)) == bits(predict(model, points[3])[0])

    def test_a_grown_model_is_scored_again(self, monkeypatch):
        # the score is kept per t: a model that grew is scored anew, and
        # mean_at rejects it until then
        rng = np.random.default_rng(10)
        prior = zero_prior(2)
        observations = ObservationSet(rng.normal(size=(3, 1)), rng.normal(size=(3, 2)), 0.001)
        model = fit(observations, SQEXP, prior)
        points = rng.normal(size=(30, 1))
        posterior = CandidatePosterior(points, model)
        scored, real = [], gp._posterior
        monkeypatch.setattr(gp, "_posterior", lambda *args: scored.append(1) or real(*args))
        first = posterior.score()
        assert posterior.score()[0] is first[0] and len(scored) == 1
        observations.append([0.3], [0.1, -0.2])
        fit(observations, SQEXP, prior, previous=model)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(0)
        means, sigma = posterior.score()
        assert len(scored) == 2 and means is not first[0]
        monkeypatch.undo()
        want = predict_batch(model, points)
        assert bits(means) == bits(want[0]) and bits(sigma) == bits(np.sqrt(2 * want[1]))
        assert bits(posterior.mean_at(7)) == bits(predict(model, points[7])[0])


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


class TestOneRowMean:
    """`CandidatePosterior.mean_at` gives `predict`'s mean bit for bit,
    without its variance solve."""

    @settings(max_examples=80, deadline=None)
    @given(
        behavior_dim=st.sampled_from([1, 4]),
        family=st.sampled_from(list(KernelFamily)),
        distance=st.sampled_from(list(DistanceKind)),
        sigma=st.sampled_from([0.1, 0.45]),
        prior_kind=st.sampled_from(["zero", "function", "archive"]),
        noise=st.sampled_from([0.0, 0.001, 0.05]),
        t=st.integers(0, 14),
        score_every=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_to_predict_bit_for_bit(
        self, behavior_dim, family, distance, sigma, prior_kind, noise, t, score_every, seed
    ):
        # the inputs are partly candidate points, as in a mission, partly
        # other points; the posterior scores every model or every third, so
        # its cross kernel also grows by several rows at once
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, sigma, distance)
        points = rng.uniform(-np.pi, np.pi, size=(20, behavior_dim))
        inputs = np.vstack([points[rng.permutation(20)[: t // 2]],
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
                observations.append(inputs[end - 1], outputs[end - 1])
                fit(observations, kernel, prior, previous=model)
            if end % score_every:
                continue
            posterior.score()
            for index in range(len(points)):
                want = predict(model, points[index])[0]
                assert bits(posterior.mean_at(index)) == bits(want)

    def test_mean_at_needs_the_model_scored_last(self):
        rng = np.random.default_rng(7)
        inputs, outputs = rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
        observations = ObservationSet(inputs[:3], outputs[:3], 0.001)
        prior = zero_prior(2)
        model = fit(observations, SQEXP, prior)
        posterior = CandidatePosterior(rng.normal(size=(10, 1)), model)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(0)   # nothing scored yet
        posterior.score()
        posterior.mean_at(0)
        observations.append(inputs[3], outputs[3])
        posterior.mean_at(0)   # appended, not yet fitted: the model is as it was scored
        fit(observations, SQEXP, prior, previous=model)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(0)   # grown since it was scored
        posterior.score()
        posterior.mean_at(9)


class TestKeptAnswers:
    """`mean_at` computes each index's answer once per model size and hands out a
    new copy of it on every call; scoring a grown model drops the answers."""

    @staticmethod
    def scored(t=5, seed=11):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-np.pi, np.pi, size=(12, 1))
        observations = ObservationSet(points[:t] + 0.01, rng.normal(size=(t, 2)), 0.001)
        model = fit(observations, WRAPPED, sine_prior)
        posterior = CandidatePosterior(points, model)
        posterior.score()
        return posterior, model

    def test_a_repeated_mean_at_gives_predicts_bits_as_a_new_array_each_call(self):
        posterior, model = self.scored()
        want = bits(predict(model, posterior.points[4])[0])
        first, second = posterior.mean_at(4), posterior.mean_at(4)
        assert bits(first) == bits(second) == want
        assert first is not second and not np.shares_memory(first, second)
        first[:] = np.nan   # the caller's copy: the next answer is unchanged
        assert bits(posterior.mean_at(4)) == want

    def test_after_a_learn_mean_at_raises_until_scored_then_answers_for_the_grown_model(self):
        posterior, model = self.scored()
        before = posterior.mean_at(2)
        model.observations.append(posterior.points[2], before + 1.0)
        fit(model.observations, model.kernel, model.prior, previous=model)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(2)
        posterior.score()
        after = posterior.mean_at(2)
        assert bits(after) == bits(predict(model, posterior.points[2])[0])
        assert bits(after) != bits(before)   # no stale answer from the smaller model

    def test_one_size_computes_each_index_once(self, monkeypatch):
        posterior, model = self.scored()
        columns, contiguous = [], np.ascontiguousarray

        def counting(array, *args, **kwargs):
            columns.append(array.shape)
            return contiguous(array, *args, **kwargs)

        monkeypatch.setattr(gp.np, "ascontiguousarray", counting)
        for index in (3, 3, 7, 3, 7, 0):
            posterior.mean_at(index)
        assert columns == [(5, 1)] * 3   # indices 3, 7 and 0
        posterior.score()   # the model has not grown: the answers stay
        posterior.mean_at(3)
        assert len(columns) == 3
        model.observations.append(posterior.points[3], np.zeros(2))
        fit(model.observations, model.kernel, model.prior, previous=model)
        posterior.score()
        posterior.mean_at(3)
        posterior.mean_at(3)
        assert columns == [(5, 1)] * 3 + [(6, 1)]


class TestLongAdaptationSizes:
    """At long-adaptation's model sizes, t up to 250, with 360 candidates: the
    posterior's means, an (n, outcome_dim) array with each outcome dimension
    contiguous, hold the bits of the row-ordered `prior + cross.T @ correction`;
    `mean_at` equals `predict`'s mean; and the rewards score them as they score
    a row-ordered copy. Where BLAS sums these products in another order, the
    golden digests would move; this says where."""

    @pytest.mark.parametrize("behavior_dim, distance, prior_kind", [
        (1, DistanceKind.WRAPPED_ANGULAR, "function"), (4, DistanceKind.EUCLIDEAN, "archive")])
    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("sigma", [0.1, 0.45])   # long-adaptation's, and a denser cross kernel
    def test_means_mean_at_and_rewards_bit_for_bit(self, behavior_dim, distance, prior_kind, family, sigma):
        rng = np.random.default_rng(250 + behavior_dim)
        kernel = Kernel(family, sigma, distance)
        points = rng.uniform(-np.pi, np.pi, size=(360, behavior_dim))
        # as in a mission, most inputs are candidates, some repeated, and a few are not
        inputs = np.vstack([points[rng.integers(0, 360, 200)], rng.uniform(-np.pi, np.pi, (50, behavior_dim))])
        inputs = inputs[rng.permutation(250)]
        prior = sine_prior if prior_kind == "function" else archive_prior(rng, np.vstack([points, inputs]))
        observations = ObservationSet.empty(behavior_dim, 2, 0.001)
        model = fit(observations, kernel, prior)
        posterior = CandidatePosterior(points, model)
        row_ordered_prior = prior_values(prior, points)
        for t, (x, y) in enumerate(zip(inputs, rng.normal(scale=0.1, size=(250, 2))), start=1):
            observations.append(x, y)
            model = fit(observations, kernel, prior, previous=model)
            means, _ = posterior.score()
            assert means.flags.f_contiguous
            assert bits(means) == bits(np.asfortranarray(row_ordered_prior + posterior.cross.T @ model.prior_correction))
            rows = np.ascontiguousarray(means)
            pose, waypoint, direction = rng.normal(size=(3, 2))
            distance_reward = make_distance_reward(waypoint, pose)
            assert bits(distance_reward(means)) == bits(distance_reward(rows))
            assert bits(np.vecdot(means, direction)) == bits(np.vecdot(rows, direction))   # the projection reward
            if t % 25 == 0 or t in (1, 2, 3):
                for index in rng.choice(360, 12, replace=False):
                    assert bits(posterior.mean_at(index)) == bits(predict(model, points[index])[0])


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


class TestSolve:
    """`fit` hands LAPACK the F-ordered upper factor chol.T, which f2py takes
    without a copy; the prior correction equals the old call, cho_solve on
    the lower factor, bit for bit."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("twin", [False, True])
    def test_prior_correction_equals_cho_solve_bit_for_bit(self, family, twin):
        rng = np.random.default_rng(17)
        t, noise, kernel = MAX_GP_OBSERVATIONS, 0.0 if twin else 0.001, Kernel(family, 0.45)
        inputs = near_twin_inputs(rng, t, 4, twin)
        outputs = rng.normal(size=(t, 2))
        observations = ObservationSet.empty(4, 2, noise)
        model = fit(observations, kernel, sine_prior)
        ends, capacities = (1, 2, 3, 5, 6, 7, 8, 9, 60, 61, 400, 401, t), []
        for end in ends:   # the rows since the last end are appended, then fitted at once
            for x, y in zip(inputs[len(observations):end], outputs[len(observations):end]):
                observations.append(x, y)
            fit(observations, kernel, sine_prior, previous=model)
            assert_diagonal(model, JITTER if twin else 0.0)
            residuals = model.observations.outputs - model.prior_at_inputs
            assert bits(model.prior_correction) == bits(cho_solve((model.chol, True), residuals))
            capacities.append(model.chol.strides[0] // model.chol.itemsize)   # LAPACK's lda
        # spare rows (lda > t) before a doubling (at 6 and 7) and just after one (at 61 and 401),
        # with the near twin as without it
        assert capacities == [1, 2, 4, 8, 8, 8, 8, 16, 60, 120, 400, 800, MAX_GP_OBSERVATIONS]


SOURCE = str(Path(gp.__file__).resolve().parents[1])

# A fresh sela process: the CLI's imports and one replicate of every method on the point robot.
SELA_FIRST = """
import sys
import sela.cli
from sela.config import parse_config
from sela.experiment import run_experiment

run_experiment(parse_config(
    "world = point_robot\\nmethods = sela, babbling, episodic_ite, uncertainty\\nstep_cap = 20\\n"
))
assert "scipy.linalg" not in sys.modules, sorted(name for name in sys.modules if name.startswith("scipy"))
import scipy.linalg.lapack
assert sela.gp.dtrtrs is scipy.linalg.lapack.dtrtrs
"""

SCIPY_FIRST = """
import scipy.linalg.lapack
import sela.gp
assert sela.gp.dtrtrs is scipy.linalg.lapack.dtrtrs
"""


def run_fresh(code, *path):
    """`code` in a fresh interpreter with `path` and the sources ahead of site-packages."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), SOURCE]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)


class TestLapackLoader:
    """`sela.gp` loads scipy's LAPACK extension by itself: no sela code path
    imports `scipy.linalg`, and its dtrtrs is the very object that
    `scipy.linalg.lapack` exports, whichever of the two is imported first."""

    @pytest.mark.parametrize("code", [SELA_FIRST, SCIPY_FIRST], ids=["sela_first", "scipy_first"])
    def test_fresh_process(self, code):
        result = run_fresh(code)
        assert result.returncode == 0, result.stderr

    def test_same_dtrtrs_in_this_process(self):
        assert gp.dtrtrs is scipy.linalg.lapack.dtrtrs

    @pytest.mark.parametrize("fake, searched", [
        ("scipy/__init__.py", ["scipy/linalg"]),   # a scipy package without the extension
        ("scipy.py", []),                          # a scipy that is no package
    ])
    def test_missing_extension_is_an_import_error(self, tmp_path, fake, searched):
        (tmp_path / fake).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / fake).write_text("")
        result = run_fresh("import sela.gp", tmp_path)
        dirs = [f"{tmp_path}/{name}" for name in searched]
        assert result.returncode == 1
        assert result.stderr.splitlines()[-1] == f"ImportError: scipy.linalg._flapack not found in {dirs}"


class TestPosteriorBuffers:
    """`CandidatePosterior` keeps k(X, points) and L^-1 k(X, points) in the
    first t rows of a buffer whose capacity doubles when it fills."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_scoring_through_doublings_without_noise(self, family, monkeypatch):
        # fresh capacity is NaN, so a read past row t would spoil the scores
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
            for step in range(len(observations), end):   # fitted one observation at a time, scored only at some
                observations.append(inputs[step], outputs[step])
                fit(observations, kernel, sine_prior, previous=model)
            means, sigma = posterior.score()
            want_means, want_variances = predict_batch(model, points)
            assert bits(means) == bits(want_means)
            assert bits(sigma) == bits(np.sqrt(2 * want_variances))
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
    return [model.chol, model.prior_correction, model.prior_at_inputs,
            model.observations.inputs, model.observations.outputs]


class TestGrowInPlace:
    """`append` and `fit(..., previous=model)` write their rows past the
    set's and the model's in place, into buffers that double when full; rows
    once written never change, so no view taken earlier changes."""

    @settings(max_examples=80, deadline=None)
    @given(
        family=st.sampled_from(list(KernelFamily)),
        noise=st.sampled_from([0.0, 0.001]),
        steps=st.lists(st.tuples(st.integers(1, 3), st.booleans(), st.booleans()), min_size=1, max_size=14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_views_taken_before_growth_and_doublings_stay_intact(self, family, noise, steps, seed):
        # each step grows the one model by 1-3 new rows, appended to its set
        # one at a time and fitted after each or once after the last; `twin`
        # makes the first a near copy of the last input, which factors by the
        # jitter without noise
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, 0.45)
        observations = ObservationSet.empty(2, 2, noise)
        model = fit(observations, kernel, sine_prior)
        taken = []   # (view, its copy) of every step
        for count, twin, one_by_one in steps:
            inputs = rng.uniform(-np.pi, np.pi, size=(count, 2))
            if twin and len(model.chol):
                inputs[0] = observations.inputs[-1] + 1e-12
            outputs = rng.normal(size=(count, 2))
            for row, (x, y) in enumerate(zip(inputs, outputs), start=1):
                observations.append(x, y)
                if one_by_one or row == count:
                    assert fit(observations, kernel, sine_prior, previous=model) is model
            caller = (np.array(observations.inputs), np.array(observations.outputs))
            scratch = fit(ObservationSet(*caller, noise), kernel, sine_prior)
            assert_same_model(model, scratch)
            assert bits(model.prior_correction) == bits(scratch.prior_correction)
            taken += [(view, np.array(view)) for view in views(model)]
            for view, copy in taken:
                assert bits(view) == bits(copy)

    def test_a_near_twin_without_noise_extends_in_place(self):
        # the twin's row goes into the model's buffers like any other, in
        # the room that the doubling at t = 3 left
        rng = np.random.default_rng(6)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(5, 1)), rng.normal(size=(6, 2))
        observations = ObservationSet.empty(1, 2, 0.0)
        model = fit(observations, SQEXP, sine_prior)
        for x, y in zip(inputs, outputs):
            observations.append(x, y)
            fit(observations, SQEXP, sine_prior, previous=model)
        buffers, rows = model.buffers, observations.rows
        observations.append(inputs[-1] + 1e-12, outputs[5])
        assert fit(observations, SQEXP, sine_prior, previous=model) is model
        assert_diagonal(model, JITTER)
        assert all(mine is theirs for mine, theirs in zip(model.buffers, buffers)) and observations.rows is rows
        twin = ObservationSet(np.vstack([inputs, inputs[-1:] + 1e-12]), outputs, 0.0)
        assert_same_model(model, fit(twin, SQEXP, sine_prior))

    def test_views_of_the_buffers_are_read_only(self):
        rng = np.random.default_rng(3)
        inputs, outputs = rng.normal(size=(3, 1)), rng.normal(size=(3, 2))
        observations = ObservationSet(inputs, outputs, 0.001)
        model = fit(observations, SQEXP, sine_prior)
        before = [model.chol, model.prior_at_inputs, observations.inputs, observations.outputs]
        observations.append([0.5], [1.0, 2.0])
        fit(observations, SQEXP, sine_prior, previous=model)
        for array in before + [model.chol, model.prior_at_inputs, observations.inputs, observations.outputs]:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        # the set copies the caller's arrays and leaves their flags alone
        assert not np.shares_memory(observations.rows, inputs) and not np.shares_memory(observations.rows, outputs)
        assert inputs.flags.writeable and outputs.flags.writeable

    def test_a_refit_of_the_models_own_set_checks_only_the_new_rows(self, monkeypatch):
        rng = np.random.default_rng(4)
        observations = ObservationSet(rng.normal(size=(5, 1)), rng.normal(size=(5, 2)), 0.001)
        model = fit(observations, SQEXP, sine_prior)
        observations.append([0.1], [0.0, 0.0])
        fit(observations, SQEXP, sine_prior, previous=model)
        checked, real = [], math.isfinite   # the values checked
        monkeypatch.setattr(math, "isfinite", lambda value: checked.append(value) or real(value))
        observations.append([0.2], [0.0, 0.0])
        fit(observations, SQEXP, sine_prior, previous=model)
        assert checked == [0.2, 0.0, 0.0]   # the new row: input and outcome
        checked.clear()
        fit(ObservationSet(observations.inputs, observations.outputs), SQEXP, sine_prior)
        assert checked == observations.rows[:7].ravel().tolist()   # a fit from scratch checks every row
        observations.append([np.nan], [0.0, 0.0])
        with pytest.raises(GpFitError, match="finite"):
            fit(observations, SQEXP, sine_prior, previous=model)
        assert len(model.chol) == 7
        # the buffer is the set's own: a caller cannot hand one in past the checks
        with pytest.raises(TypeError):
            ObservationSet(observations.inputs, observations.outputs, 0.001, np.zeros((7, 3)))

    def test_a_fit_from_scratch_has_exactly_t_rows_and_growth_doubles(self):
        # a set and a fit from the caller's arrays hold t rows; growth doubles
        # them, but never past MAX_GP_OBSERVATIONS rows
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-np.pi, np.pi, size=(MAX_GP_OBSERVATIONS, 1))
        outputs = rng.normal(size=(MAX_GP_OBSERVATIONS, 2))

        def capacities(observations, model):
            factor, values = model.buffers
            assert factor.shape == (len(values), len(values))
            return len(observations.rows), len(values)

        observations = ObservationSet(inputs[:5], outputs[:5], 0.001)
        model = fit(observations, SQEXP, sine_prior)
        assert capacities(observations, model) == (5, 5)
        for t in (6, 7, 8):
            observations.append(inputs[t - 1], outputs[t - 1])
            fit(observations, SQEXP, sine_prior, previous=model)
            assert capacities(observations, model) == (10, 10)
        observations = ObservationSet(inputs[:-1], outputs[:-1], 0.001)
        model = fit(observations, SQEXP, sine_prior)
        assert capacities(observations, model) == (MAX_GP_OBSERVATIONS - 1,) * 2
        observations.append(inputs[-1], outputs[-1])
        fit(observations, SQEXP, sine_prior, previous=model)
        assert capacities(observations, model) == (MAX_GP_OBSERVATIONS,) * 2


class TestFitErrors:
    # -0.0 is the same input as 0.0 to the kernel
    @pytest.mark.parametrize("inputs", [[[0.5], [0.5]], [[0.0], [-0.0]], [[-0.0, 0.3], [0.0, 0.3]]])
    def test_duplicate_inputs_without_noise_factor_with_the_jitter(self, inputs):
        obs = ObservationSet(np.array(inputs), np.array([[1.0], [2.0]]), 0.0)
        model = fit(obs, SQEXP, zero_prior(1))
        assert_diagonal(model, JITTER)
        # the two observations average out
        assert predict(model, obs.inputs[0])[0][0] == pytest.approx(1.5, rel=1e-9)

    def test_a_pivot_that_is_not_positive_raises_and_leaves_previous_intact(self):
        # a kernel column no kernel gives, k(x, X) = 2 > k(x, x); `previous` has
        # room for the new row in its buffers, so a written row would land there.
        # Its t, arrays and predictions keep their bits.
        rng = np.random.default_rng(15)
        observations = ObservationSet(rng.uniform(-np.pi, np.pi, size=(4, 1)), rng.normal(size=(4, 2)), 0.001)
        head = ObservationSet(observations.inputs[:3], observations.outputs[:3], 0.001)
        *_, previous = grow(head, SQEXP, sine_prior)
        assert len(previous.buffers[0]) == 4
        grown = previous.observations

        def state(model):
            mean, variance = predict(model, [0.7])
            return len(model.chol), [bits(array) for array in (*views(model)[:3], mean, variance)]

        before = state(previous)
        grown.append(observations.inputs[3], observations.outputs[3])
        with pytest.raises(GpFitError) as raised:
            fit(grown, SQEXP, sine_prior, previous, evaluated=(np.full(3, 2.0), np.zeros(2)))
        assert str(raised.value) == f"kernel matrix not positive definite (t=4, noise_variance=0.001, kernel={SQEXP})"
        assert state(previous) == before
        model, scratch = fit(grown, SQEXP, sine_prior, previous), fit(observations, SQEXP, sine_prior)
        assert_same_model(model, scratch)
        assert bits(model.prior_correction) == bits(scratch.prior_correction)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["inputs", "outputs"])
    def test_non_finite_observations_rejected(self, where, bad):
        inputs = np.array([[0.1], [0.5], [0.9]])
        outputs = np.array([[0.1, 0.0], [0.0, 0.1], [0.1, 0.1]])
        {"inputs": inputs, "outputs": outputs}[where][1, 0] = bad
        with pytest.raises(GpFitError, match="finite"):
            fit(ObservationSet(inputs, outputs, 0.001), Kernel(sigma=0.5), zero_prior(2))

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


def grow(observations, kernel, prior):
    """Fits one model one observation at a time, each appended to the model's
    own set, which starts empty; yields the model after each fit."""
    grown = ObservationSet.empty(observations.inputs.shape[1], 2, observations.noise_variance)
    model = fit(grown, kernel, prior)
    for x, y in zip(observations.inputs, observations.outputs):
        grown.append(x, y)
        yield fit(grown, kernel, prior, previous=model)


def assert_same_model(grown, scratch):
    for name in ("chol", "prior_correction", "prior_at_inputs"):
        np.testing.assert_array_equal(getattr(grown, name), getattr(scratch, name), err_msg=name)
    if len(grown.chol):   # the noise alone sets K's diagonal
        assert_diagonal(grown, JITTER if grown.observations.noise_variance < JITTER else 0.0)


class TestIncrementalFit:
    """`fit(..., previous=model)` extends the previous factor and prior
    values; every array must equal a fit from scratch bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        behavior_dim=st.sampled_from([1, 4]),
        family=st.sampled_from(list(KernelFamily)),
        distance=st.sampled_from(list(DistanceKind)),
        sigma=st.sampled_from([0.1, 0.45]),
        with_prior=st.booleans(),
        noise=st.sampled_from([0.001, 0.05, 0.0]),
        t=st.integers(1, 14),
        twin=st.sampled_from([None, 0.0, 1e-12]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_growing_one_observation_at_a_time_matches_scratch(
        self, behavior_dim, family, distance, sigma, with_prior, noise, t, twin, seed
    ):
        # `twin` appends a copy or a near copy of the first input, which
        # factors by the jitter without noise
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, sigma, distance)
        prior = sine_prior if with_prior else zero_prior(2)
        inputs = rng.uniform(-np.pi, np.pi, size=(t, behavior_dim))
        if twin is not None:
            inputs = np.vstack([inputs, inputs[0] + twin])
        observations = ObservationSet(inputs, rng.normal(size=(len(inputs), 2)), noise)
        points = rng.uniform(-np.pi, np.pi, size=(30, behavior_dim))
        grown = ObservationSet.empty(behavior_dim, 2, noise)
        model = fit(grown, kernel, prior)
        # two posteriors of the model: one scores it at every t, the other at
        # every third, so its cross kernel grows by several rows at once
        every, sparse = (CandidatePosterior(points, model) for _ in range(2))
        for end in range(1, len(inputs) + 1):
            grown.append(inputs[end - 1], observations.outputs[end - 1])
            scratch = fit(ObservationSet(inputs[:end], observations.outputs[:end], noise), kernel, prior)
            assert fit(grown, kernel, prior, previous=model) is model
            assert_same_model(model, scratch)
            want = predict_batch(scratch, points)
            got = predict_batch(model, points)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            for posterior in (every, sparse) if end % 3 == 0 else (every,):
                means, sigma = posterior.score()
                np.testing.assert_array_equal(means, want[0])
                np.testing.assert_array_equal(sigma, np.sqrt(2 * want[1]))

    @pytest.mark.parametrize("behavior_dim", [1, 4])
    def test_jitter_path_matches_scratch(self, behavior_dim):
        # two inputs 1e-12 apart: k = 1 exactly, so only the jitter makes
        # the noiseless matrix factorizable
        rng = np.random.default_rng(behavior_dim)
        inputs = rng.uniform(-1, 1, size=(4, behavior_dim))
        inputs = np.vstack([inputs, inputs[1] + 1e-12])
        observations = ObservationSet(inputs, rng.normal(size=(5, 2)), 0.0)
        *_, grown = grow(observations, SQEXP, sine_prior)
        gram = kernel_matrix(SQEXP, inputs, inputs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        np.linalg.cholesky(gram + JITTER * np.eye(5))
        assert_diagonal(grown, JITTER)
        assert_same_model(grown, fit(observations, SQEXP, sine_prior))

    def test_the_jitter_rides_on_every_row_without_noise(self):
        # the near twin at row 3 extends the factor like any other input: the
        # rows before it keep their bits, and the model, equal to a fit from
        # scratch at every t, carries the jitter. A posterior that scored the
        # model before it goes on from the rows it solved.
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1, 1, size=(7, 1))
        inputs = np.vstack([inputs[:3], inputs[1] + 1e-12, inputs[3:]])
        observations = ObservationSet(inputs, rng.normal(size=(8, 2)), 0.0)
        points = rng.uniform(-1, 1, size=(40, 1))
        factors = []
        for t, model in enumerate(grow(observations, SQEXP, sine_prior), start=1):
            if t == 1:   # the posterior of the one model that grow grows
                posterior = CandidatePosterior(points, model)
            factors.append(model.chol)
            assert_diagonal(model, JITTER)
            assert_same_model(model, fit(ObservationSet(inputs[:t], observations.outputs[:t], 0.0), SQEXP, sine_prior))
            if t < 3:
                continue
            means, sigma = posterior.score()
            want_means, want_variances = predict_batch(model, points)
            assert bits(means) == bits(want_means)
            assert bits(sigma) == bits(np.sqrt(2 * want_variances))
        assert bits(factors[3][:3, :3]) == bits(factors[2])

    def test_one_row_refit_evaluates_the_kernel_only_in_the_new_row(self, monkeypatch):
        rng = np.random.default_rng(12)
        inputs, outputs = rng.normal(size=(6, 1)), rng.normal(size=(6, 2))
        observations = ObservationSet(inputs[:5], outputs[:5], 0.001)
        previous = fit(observations, SQEXP, sine_prior)
        observations.append(inputs[5], outputs[5])
        evaluated, real = [], gp.kernel_matrix

        def recording_kernel_matrix(kernel, a, b):
            evaluated.append((np.copy(a), np.copy(b)))
            return real(kernel, a, b)

        monkeypatch.setattr(gp, "kernel_matrix", recording_kernel_matrix)
        model = fit(observations, SQEXP, sine_prior, previous=previous)
        assert len(evaluated) == 1
        np.testing.assert_array_equal(evaluated[0][0], observations.inputs[5:])
        np.testing.assert_array_equal(evaluated[0][1], observations.inputs)
        monkeypatch.undo()
        assert_same_model(model, fit(observations, SQEXP, sine_prior))

    def test_prior_evaluated_only_at_the_new_input(self):
        seen = []

        def counting_prior(x):
            seen.append(x.copy())
            return sine_prior(x)

        rng = np.random.default_rng(4)
        observations = ObservationSet(rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), 0.001)
        list(grow(observations, SQEXP, counting_prior))
        np.testing.assert_array_equal(np.array(seen), observations.inputs)

    @pytest.mark.parametrize("change", ["kernel", "prior", "inputs", "equal_copy", "same_length"])
    def test_previous_must_be_a_prefix_fit(self, change):
        # `previous` must be fitted with this kernel and prior on fewer rows of
        # this very set: a refit onto another set raises, even onto an equal copy
        rng = np.random.default_rng(8)
        inputs, outputs = rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
        prior, observations = zero_prior(2), ObservationSet(inputs[:3], outputs[:3], 0.001)
        previous = fit(observations, Kernel(sigma=0.3) if change == "kernel" else SQEXP,
                       sine_prior if change == "prior" else prior)
        observations.append(inputs[3], outputs[3])
        if change == "same_length":
            fit(observations, SQEXP, prior, previous=previous)
        refit = {
            "inputs": ObservationSet(inputs + 1.0, outputs, 0.001),
            "equal_copy": ObservationSet(inputs, outputs, 0.001),
        }.get(change, observations)
        t = len(previous.chol)
        with pytest.raises(ValueError, match="prefix"):
            fit(refit, SQEXP, prior, previous=previous)
        assert len(previous.chol) == t


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
        for model in grow(observations, SQEXP, sine_prior):
            assert_diagonal(model, jitter)

    # an exact repeat of candidate 2, its sign-flipped zero coordinate, and a near twin 1e-12 away
    @pytest.mark.parametrize("twin", [
        lambda x: x.copy(), lambda x: np.where(x == 0.0, -x, x), lambda x: x + 1e-12,
    ], ids=["repeat", "signed_zero", "near"])
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_a_chain_with_a_twin_equals_a_fit_from_scratch(self, family, twin, monkeypatch):
        # a mission's chain: each step learns a candidate from the posterior
        # that scored the model before; the twin and the repeats learned
        # after it evaluate no kernel
        rng = np.random.default_rng(14)
        kernel = Kernel(family, 0.45)
        points = rng.uniform(-np.pi, np.pi, size=(7, 2))
        points[2, 1] = 0.0
        points[6] = twin(points[2])
        observations = ObservationSet.empty(2, 2, 0.0)
        model = fit(observations, kernel, sine_prior)
        posterior = CandidatePosterior(points, model)
        calls = recording_kernel_matrix(monkeypatch)
        for index in (2, 0, 2, 6, 5, 6, 2, 2, 6, 1):
            posterior.score()
            calls.clear()
            evaluated = (posterior.cross[:, index], posterior.prior_means[index])
            observations.append(points[index], rng.normal(size=2))
            assert fit(observations, kernel, sine_prior, previous=model, evaluated=evaluated) is model
            assert calls == []
            assert_diagonal(model, JITTER)
            caller = ObservationSet(np.array(observations.inputs), np.array(observations.outputs), 0.0)
            assert_same_model(model, fit(caller, kernel, sine_prior))
            means, sigma = posterior.score()
            want_means, want_variances = predict_batch(model, points)
            assert bits(means) == bits(want_means)
            assert bits(sigma) == bits(np.sqrt(2 * want_variances))


class TestRefitFromThePosterior:
    """A refit that learns a candidate takes k(X, x) and P(x) from a posterior
    that scored `previous` (`fit(..., evaluated=...)`), and `score` copies the
    kernel row of an input it has seen. Both give the evaluations' bits."""

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(list(KernelFamily)),
        space=st.sampled_from([(1, DistanceKind.WRAPPED_ANGULAR), (4, DistanceKind.EUCLIDEAN)]),
        noise=st.sampled_from([0.0, 0.001]),
        twin=st.booleans(),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_chain_fed_by_the_posterior_equals_a_fit_from_scratch(self, family, space, noise, twin, picks, seed):
        # `picks` may repeat a candidate; `twin` makes candidate 1 a near copy
        # of candidate 0. Without noise both factor by the jitter.
        rng = np.random.default_rng(seed)
        behavior_dim, distance = space
        kernel = Kernel(family, 0.45, distance)
        points = rng.uniform(-np.pi, np.pi, size=(8, behavior_dim))
        if twin:
            points[1] = points[0] + 1e-12
        observations = ObservationSet.empty(behavior_dim, 2, noise)
        model = fit(observations, kernel, sine_prior)
        posterior = CandidatePosterior(points, model)
        for index in picks:
            posterior.score()
            evaluated = (posterior.cross[:, index], posterior.prior_means[index])
            observations.append(points[index], rng.normal(size=2))
            caller = ObservationSet(np.array(observations.inputs), np.array(observations.outputs), noise)
            scratch = fit(caller, kernel, sine_prior)
            assert fit(observations, kernel, sine_prior, previous=model, evaluated=evaluated) is model
            assert_same_model(model, scratch)
            assert bits(model.prior_correction) == bits(scratch.prior_correction)
            means, sigma = posterior.score()   # a repeated pick copies its kernel row
            want_means, want_variances = predict_batch(model, points)
            assert bits(means) == bits(want_means)
            assert bits(sigma) == bits(np.sqrt(2 * want_variances))
            assert bits(posterior.cross) == bits(kernel_matrix(kernel, caller.inputs, points))

    def test_learning_a_candidate_evaluates_neither_kernel_nor_prior(self, monkeypatch):
        # the kernel runs once per candidate, in the scoring after its first
        # learning step; a repeat and every refit run neither it nor the prior
        calls = recording_kernel_matrix(monkeypatch)
        priors = []
        rng = np.random.default_rng(2)
        points = rng.uniform(-np.pi, np.pi, size=(9, 1))
        prior = lambda x: priors.append(1) or sine_prior(x)
        observations, learned = ObservationSet.empty(1, 2, 0.001), set()
        model = fit(observations, WRAPPED, prior)
        posterior = CandidatePosterior(points, model)
        assert len(priors) == 9
        for index in (3, 5, 3, 3, 8, 5):
            posterior.score()
            calls.clear()
            evaluated = (posterior.cross[:, index], posterior.prior_means[index])
            observations.append(points[index], rng.normal(size=2))
            fit(observations, WRAPPED, prior, previous=model, evaluated=evaluated)
            assert calls == [] and len(priors) == 9
            posterior.score()
            assert calls == ([] if index in learned else [(1, 9)])
            learned.add(index)
        caller = ObservationSet(np.array(model.observations.inputs), np.array(model.observations.outputs), 0.001)
        assert_same_model(model, fit(caller, WRAPPED, prior))

    def test_a_near_twin_without_noise_evaluates_no_kernel(self, monkeypatch):
        # the near twin's row takes the posterior's column like any other
        calls = recording_kernel_matrix(monkeypatch)
        points = np.array([[0.3], [1.2], [0.3 + 1e-12]])
        observations = ObservationSet.empty(1, 2, 0.0)
        model = fit(observations, SQEXP, sine_prior)
        posterior = CandidatePosterior(points, model)
        for index in range(3):
            posterior.score()
            calls.clear()
            evaluated = (posterior.cross[:, index], posterior.prior_means[index])
            observations.append(points[index], [0.1 * index, 0.2])
            fit(observations, SQEXP, sine_prior, previous=model, evaluated=evaluated)
            assert calls == []
        assert_diagonal(model, JITTER)
        assert_same_model(model, fit(ObservationSet(points, [[0.0, 0.2], [0.1, 0.2], [0.2, 0.2]], 0.0), SQEXP, sine_prior))

    @pytest.mark.parametrize("case", ["two_new_inputs", "short_column", "long_column", "no_previous"])
    def test_evaluated_is_used_only_for_one_new_input_past_previous(self, monkeypatch, case):
        # otherwise fit evaluates the kernel and the prior itself, and the
        # result is a fit from scratch whatever `evaluated` holds
        rng = np.random.default_rng(3)
        inputs, outputs = rng.uniform(-np.pi, np.pi, size=(5, 1)), rng.normal(size=(5, 2))
        observations = ObservationSet(inputs[:3], outputs[:3], 0.001)
        previous = fit(observations, SQEXP, sine_prior)
        column = kernel_matrix(SQEXP, inputs[:3], inputs[3:4])[:, 0]
        end, previous, column = {
            "two_new_inputs": (5, previous, column),
            "short_column": (4, previous, column[:2]),
            "long_column": (4, previous, np.append(column, 0.5)),
            "no_previous": (4, None, column),
        }[case]
        for x, y in zip(inputs[3:end], outputs[3:end]):   # a fit from scratch, too, reads the grown set
            observations.append(x, y)
        calls = recording_kernel_matrix(monkeypatch)
        model = fit(observations, SQEXP, sine_prior, previous, evaluated=(column, np.array([9.0, 9.0])))
        assert len(calls) == 1
        monkeypatch.undo()
        assert_same_model(model, fit(observations, SQEXP, sine_prior))
