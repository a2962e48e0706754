"""GP regression tests: frozen closed-form values, a brute-force
explicit-inverse oracle, and structural properties of the posterior."""

import math

import numpy as np
import pytest
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
        model = fit(obs, SQEXP, zero_prior(1))
        x = np.array([0.42])
        _, before = predict(model, x)
        grown = fit(obs.with_observation(x, [0.3]), SQEXP, zero_prior(1))
        _, after = predict(grown, x)
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
        posterior = CandidatePosterior(points, prior, WRAPPED)
        means, sigma = posterior.score(model)
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
        posterior = CandidatePosterior(rng.normal(size=(30, 1)), prior, SQEXP)
        scored = []
        real = gp._posterior
        monkeypatch.setattr(gp, "_posterior", lambda *args: scored.append(1) or real(*args))
        first = posterior.score(model)
        for _ in range(3):
            again = posterior.score(model)
            assert again[0] is first[0] and again[1] is first[1]
        assert len(scored) == 1
        posterior.score(fit(observations, SQEXP, prior))   # equal, but another object
        assert len(scored) == 2

    @pytest.mark.parametrize("change", ["kernel", "prior", "inputs", "fewer_inputs"])
    def test_model_must_extend_what_was_scored(self, change):
        rng = np.random.default_rng(6)
        prior = zero_prior(2)
        observations = ObservationSet(rng.normal(size=(4, 1)), rng.normal(size=(4, 2)), 0.001)
        head = ObservationSet(observations.inputs[:3], observations.outputs[:3], 0.001)
        posterior = CandidatePosterior(rng.normal(size=(30, 1)), prior, SQEXP)
        posterior.score(fit(head, SQEXP, prior))
        model = {
            "kernel": fit(observations, Kernel(sigma=0.3), prior),
            "prior": fit(observations, SQEXP, sine_prior),
            "inputs": fit(ObservationSet(observations.inputs + 1.0, observations.outputs), SQEXP, prior),
            "fewer_inputs": fit(ObservationSet(head.inputs[:2], head.outputs[:2]), SQEXP, prior),
        }[change]
        with pytest.raises(ValueError, match="extending"):
            posterior.score(model)
        posterior.score(fit(observations, SQEXP, prior))


def archive_prior(rng, behaviors):
    """ArchivePrior whose elites sit at some of `behaviors`, so queries hit
    an elite exactly or fall back to the nearest one."""
    archive = Archive((len(behaviors),), behaviors.shape[1], 2)
    for i in range(0, len(behaviors), 2):
        archive.cells[(i,)] = Elite(behaviors[i], [(i + 0.5) / len(behaviors)], 1.0, rng.normal(size=2))
    return ArchivePrior(archive)


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
        prior = {
            "zero": zero_prior(2), "function": sine_prior, "archive": archive_prior(rng, points),
        }[prior_kind]
        inputs = np.vstack([points[rng.permutation(20)[: t // 2]],
                            rng.uniform(-np.pi, np.pi, size=(t - t // 2, behavior_dim))])
        outputs = rng.normal(size=(t, 2))
        posterior = CandidatePosterior(points, prior, kernel)
        model = fit(ObservationSet.empty(behavior_dim, 2, noise), kernel, prior)
        for end in range(t + 1):
            if end > 0:
                prefix = ObservationSet(inputs[:end], outputs[:end], noise)
                try:
                    model = fit(prefix, kernel, prior, previous=model)
                except GpFitError:
                    return
            if end % score_every:
                continue
            posterior.score(model)
            for index in range(len(points)):
                want = predict(model, points[index])[0]
                assert bits(posterior.mean_at(model, index)) == bits(want)

    def test_mean_at_needs_the_model_scored_last(self):
        rng = np.random.default_rng(7)
        observations = ObservationSet(rng.normal(size=(4, 1)), rng.normal(size=(4, 2)), 0.001)
        prior = zero_prior(2)
        head = fit(ObservationSet(observations.inputs[:3], observations.outputs[:3]), SQEXP, prior)
        model = fit(observations, SQEXP, prior, previous=head)
        posterior = CandidatePosterior(rng.normal(size=(10, 1)), prior, SQEXP)
        with pytest.raises(ValueError, match="scored last"):
            posterior.mean_at(model, 0)   # nothing scored yet
        posterior.score(head)
        posterior.mean_at(head, 0)
        posterior.score(model)
        for other in (head, fit(observations, SQEXP, prior)):   # older, or equal but another object
            with pytest.raises(ValueError, match="scored last"):
                posterior.mean_at(other, 0)
        posterior.mean_at(model, 9)


def near_twin_inputs(rng, t, behavior_dim, twin):
    """t random inputs; with `twin`, input 5 differs from input 2 by 1e-300 in
    a zero coordinate: k = 1 exactly under either family, so a noiseless
    matrix needs the jitter from row 5 on."""
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
        model = fit(ObservationSet.empty(4, 2, noise), kernel, sine_prior)
        for end in (1, 2, 3, 5, 6, 7, 8, 60, 400, t):
            model = fit(ObservationSet(inputs[:end], outputs[:end], noise), kernel, sine_prior, previous=model)
            assert model.jitter == (JITTER if twin and end > 5 else 0.0)
            residuals = model.observations.outputs - model.prior_at_inputs
            assert bits(model.prior_correction) == bits(cho_solve((model.chol, True), residuals))


class TestPosteriorBuffers:
    """`CandidatePosterior` keeps k(X, points) and L^-1 k(X, points) in the
    first t rows of a buffer whose capacity doubles when it fills."""

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_scoring_through_doublings_and_a_jitter_change(self, family, monkeypatch):
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
        posterior = CandidatePosterior(points, sine_prior, kernel)
        model = fit(ObservationSet.empty(4, 2, 0.0), kernel, sine_prior)
        scored, capacities = [], [0]   # (returned array, its copy); capacities seen
        for end in (0, 1, 2, 3, 5, 6, 9, 10, 11, 17, 18, 30, 33, 40):
            if end:   # fitted one observation at a time, scored only at some
                for step in range(len(model.observations) + 1, end + 1):
                    prefix = ObservationSet(inputs[:step], outputs[:step], 0.0)
                    model = fit(prefix, kernel, sine_prior, previous=model)
            means, sigma = posterior.score(model)
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
        assert model.jitter == JITTER
        assert capacities == [0, 1, 2, 4, 8, 16, 32, 64]


class TestFitErrors:
    def test_duplicate_inputs_without_noise_rejected(self):
        obs = ObservationSet(np.array([[0.5], [0.5]]), np.array([[1.0], [2.0]]), 0.0)
        with pytest.raises(GpFitError, match="duplicate"):
            fit(obs, SQEXP, zero_prior(1))

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
    """Models fitted one observation at a time, each from the previous one."""
    inputs = observations.inputs
    empty = ObservationSet.empty(inputs.shape[1], 2, observations.noise_variance)
    model = fit(empty, kernel, prior)
    models = []
    for t in range(1, len(observations) + 1):
        prefix = ObservationSet(inputs[:t], observations.outputs[:t], observations.noise_variance)
        model = fit(prefix, kernel, prior, previous=model)
        models.append(model)
    return models


def assert_same_model(grown, scratch):
    for name in ("chol", "prior_correction", "prior_at_inputs"):
        np.testing.assert_array_equal(getattr(grown, name), getattr(scratch, name), err_msg=name)
    assert grown.jitter == scratch.jitter


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
        # `twin` appends a copy of the first input (rejected without noise)
        # or a near copy (needs the jitter without noise)
        rng = np.random.default_rng(seed)
        kernel = Kernel(family, sigma, distance)
        prior = sine_prior if with_prior else zero_prior(2)
        inputs = rng.uniform(-np.pi, np.pi, size=(t, behavior_dim))
        if twin is not None:
            inputs = np.vstack([inputs, inputs[0] + twin])
        observations = ObservationSet(inputs, rng.normal(size=(len(inputs), 2)), noise)
        points = rng.uniform(-np.pi, np.pi, size=(30, behavior_dim))
        # one posterior scores every model, the other every third, so its
        # cross kernel grows by several rows at once
        every, sparse = (CandidatePosterior(points, prior, kernel) for _ in range(2))
        model = fit(ObservationSet.empty(behavior_dim, 2, noise), kernel, prior)
        for end in range(1, len(inputs) + 1):
            prefix = ObservationSet(inputs[:end], observations.outputs[:end], noise)
            try:
                scratch = fit(prefix, kernel, prior)
            except GpFitError:
                with pytest.raises(GpFitError):
                    fit(prefix, kernel, prior, previous=model)
                return
            model = fit(prefix, kernel, prior, previous=model)
            assert_same_model(model, scratch)
            want = predict_batch(scratch, points)
            got = predict_batch(model, points)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            for posterior in (every, sparse) if end % 3 == 0 else (every,):
                means, sigma = posterior.score(model)
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
        grown = grow(observations, SQEXP, sine_prior)[-1]
        gram = kernel_matrix(SQEXP, inputs, inputs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        np.linalg.cholesky(gram + JITTER * np.eye(5))
        assert grown.jitter == JITTER
        assert_same_model(grown, fit(observations, SQEXP, sine_prior))

    def test_jitter_rides_on_every_extension(self):
        # the near twin at row 3 needs the jitter: that fit regrows the whole
        # factor with it, and the extensions after it keep it, each equal to a
        # fit from scratch. A posterior that last scored the jitter-free
        # model solves its rows again from row 0.
        rng = np.random.default_rng(11)
        inputs = rng.uniform(-1, 1, size=(7, 1))
        inputs = np.vstack([inputs[:3], inputs[1] + 1e-12, inputs[3:]])
        observations = ObservationSet(inputs, rng.normal(size=(8, 2)), 0.0)
        models = grow(observations, SQEXP, sine_prior)
        assert [model.jitter for model in models] == [0.0] * 3 + [JITTER] * 5
        assert bits(models[3].chol[:3, :3]) != bits(models[2].chol)
        for model in models:
            assert_same_model(model, fit(model.observations, SQEXP, sine_prior))
        points = rng.uniform(-1, 1, size=(40, 1))
        posterior = CandidatePosterior(points, sine_prior, SQEXP)
        posterior.score(models[2])
        for model in models[3:]:
            means, sigma = posterior.score(model)
            want_means, want_variances = predict_batch(model, points)
            assert bits(means) == bits(want_means)
            assert bits(sigma) == bits(np.sqrt(2 * want_variances))

    def test_one_row_refit_evaluates_the_kernel_only_in_the_new_row(self, monkeypatch):
        rng = np.random.default_rng(12)
        observations = ObservationSet(rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), 0.001)
        head = ObservationSet(observations.inputs[:5], observations.outputs[:5], 0.001)
        previous = fit(head, SQEXP, sine_prior)
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

    def test_duplicate_without_noise_rejected_when_grown(self):
        inputs = np.array([[0.1], [0.7], [0.1]])
        observations = ObservationSet(inputs, np.zeros((3, 2)), 0.0)
        with pytest.raises(GpFitError, match="duplicate"):
            grow(observations, SQEXP, zero_prior(2))

    def test_prior_evaluated_only_at_the_new_input(self):
        seen = []

        def counting_prior(x):
            seen.append(x.copy())
            return sine_prior(x)

        rng = np.random.default_rng(4)
        observations = ObservationSet(rng.normal(size=(6, 1)), rng.normal(size=(6, 2)), 0.001)
        grow(observations, SQEXP, counting_prior)
        np.testing.assert_array_equal(np.array(seen), observations.inputs)

    @pytest.mark.parametrize(
        "change",
        ["kernel", "prior", "inputs", "same_length"],
    )
    def test_previous_must_be_a_prefix_fit(self, change):
        rng = np.random.default_rng(8)
        observations = ObservationSet(rng.normal(size=(4, 1)), rng.normal(size=(4, 2)), 0.001)
        head = ObservationSet(observations.inputs[:3], observations.outputs[:3], 0.001)
        previous = {
            "kernel": fit(head, Kernel(sigma=0.3), zero_prior(2)),
            "prior": fit(head, SQEXP, sine_prior),
            "inputs": fit(ObservationSet(head.inputs + 1.0, head.outputs, 0.001), SQEXP, zero_prior(2)),
            "same_length": fit(observations, SQEXP, zero_prior(2)),
        }[change]
        with pytest.raises(ValueError, match="prefix"):
            fit(observations, SQEXP, zero_prior(2), previous=previous)
