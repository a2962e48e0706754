"""UCB candidate selection: scoring arithmetic, tie-breaking, and the greedy
limit at alpha = 0."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sela.acquisition import (
    MAX_CANDIDATES,
    CandidateSet,
    select_next,
)
from sela.gp import CandidatePosterior, Kernel, ObservationSet, fit, predict_batch, zero_prior
from sela.reward import make_distance_reward
from sela.worlds import point_robot_prior


def grid_candidates(n=24):
    return CandidateSet.dense_theta_grid(n)


def at(candidates, model):
    """A fresh posterior of the model at the candidates."""
    return CandidatePosterior(candidates.points, model)


class FixedScores:
    """A posterior stand-in whose `score` hands out fixed means and sigma."""

    def __init__(self, sigma):
        self.points = np.arange(len(sigma), dtype=float)[:, None]
        self.scored = (np.zeros((len(sigma), 2)), sigma)

    def score(self):
        return self.scored


def fitted_model(rng, t, noise=0.001):
    obs = ObservationSet(
        rng.uniform(-math.pi, math.pi, size=(t, 1)), rng.normal(size=(t, 2)), noise
    )
    return fit(obs, Kernel(sigma=0.5), zero_prior(2))


class TestUcbScore:
    def test_weighted_sum(self):
        # candidate 0 sits on the only observation: higher reward, lower
        # sigma. The choice flips to candidate 1 exactly where
        # alpha * (sigma_1 - sigma_0) passes reward_0 - reward_1.
        candidates = CandidateSet(np.array([[0.0], [2.0]]))
        observations = ObservationSet([[0.0]], [[1.0, 0.0]], 0.001)
        model = fit(observations, Kernel(sigma=0.5), zero_prior(2))
        means, variances = predict_batch(model, candidates.points)
        reward_gap = means[0, 0] - means[1, 0]
        sigma_gap = math.sqrt(2.0 * variances[1]) - math.sqrt(2.0 * variances[0])
        reward = lambda means: means[:, 0]
        below = 0.99 * reward_gap / sigma_gap
        above = 1.01 * reward_gap / sigma_gap
        assert select_next(at(candidates, model), reward, below)[1] == 0
        assert select_next(at(candidates, model), reward, above)[1] == 1

    def test_alpha_zero_ignores_uncertainty(self):
        rng = np.random.default_rng(4)
        candidates = grid_candidates()
        model = fitted_model(rng, 5)
        reward = lambda means: means[:, 0]
        means, _ = predict_batch(model, candidates.points)
        _, index = select_next(at(candidates, model), reward, 0.0)
        assert index == int(np.argmax(means[:, 0]))


class TestCandidateSet:
    def test_dense_grid_covers_half_open_circle(self):
        grid = CandidateSet.dense_theta_grid(360)
        thetas = grid.points[:, 0]
        assert len(grid.points) == 360
        assert thetas.min() > -math.pi
        assert thetas.max() == pytest.approx(math.pi)
        # whole-degree grid: the diagonal and the axes are on it
        for target in (0.0, math.pi / 4, math.pi / 2, math.pi):
            assert np.min(np.abs(thetas - target)) < 1e-12

    def test_dense_grid_size_is_capped(self):
        assert len(CandidateSet.dense_theta_grid(MAX_CANDIDATES).points) == MAX_CANDIDATES
        for resolution in (0, MAX_CANDIDATES + 1):
            with pytest.raises(ValueError, match="resolution must be in"):
                CandidateSet.dense_theta_grid(resolution)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CandidateSet(np.zeros((0, 1)))

    # -0.0 is 0.0 to the duplicate check, as it was to np.unique
    @pytest.mark.parametrize("points", [[[0.1], [0.1]], [[0.0], [-0.0]], [[0.2, -0.0], [0.2, 0.0]]])
    def test_duplicates_rejected(self, points):
        with pytest.raises(ValueError, match="duplicate"):
            CandidateSet(np.array(points))

    def test_nan_rows_are_not_duplicates(self):
        # as np.unique's verdict: NaN equals nothing, so no two such rows repeat
        points = np.array([[math.nan, 0.1], [math.nan, 0.1], [0.1, math.nan]])
        assert len(CandidateSet(points).points) == 3


class TestSelectNext:
    def test_uniform_uncertainty_reduces_to_greedy_reward(self):
        # with no observations every candidate has variance 1, so the
        # uncertainty bonus is constant and the reward decides
        model = fit(ObservationSet.empty(1, 2, 0.001), Kernel(sigma=0.1), zero_prior(2))
        candidates = grid_candidates(36)
        reward = lambda g: -np.abs(g[:, 0])
        _, idx_ucb = select_next(at(candidates, model), reward, 0.05)
        _, idx_greedy = select_next(at(candidates, model), reward, 0.0)
        assert idx_ucb == idx_greedy

    def test_constant_reward_shift_does_not_change_argmax(self):
        rng = np.random.default_rng(21)
        model = fitted_model(rng, 6)
        candidates = grid_candidates(48)
        base = lambda g: g[:, 0] - 0.3 * g[:, 1]
        shifted = lambda g: (g[:, 0] - 0.3 * g[:, 1]) + 11.5
        alpha = 0.05
        _, idx_a = select_next(at(candidates, model), base, alpha)
        _, idx_b = select_next(at(candidates, model), shifted, alpha)
        assert idx_a == idx_b

    def test_ties_break_to_lowest_index(self):
        model = fit(ObservationSet.empty(1, 2, 0.001), Kernel(sigma=0.1), zero_prior(2))
        candidates = grid_candidates(12)
        flat = lambda g: np.zeros(len(g))
        behavior, index = select_next(at(candidates, model), flat, 0.05)
        assert index == 0
        assert behavior[0] == candidates.points[0, 0]

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        model = fitted_model(rng, 8)
        candidates = grid_candidates(90)
        reward = lambda g: g[:, 1]
        alpha = 0.05
        picks = {select_next(at(candidates, model), reward, alpha)[1] for _ in range(5)}
        assert len(picks) == 1

    def test_high_alpha_prefers_unexplored_regions(self):
        rng = np.random.default_rng(17)
        candidates = grid_candidates(36)
        x_seen = candidates.points[4]
        obs = ObservationSet(x_seen[None, :], np.array([[1.0, 1.0]]), 0.001)
        model = fit(obs, Kernel(sigma=0.5), zero_prior(2))
        flat = lambda g: np.zeros(len(g))
        _, index = select_next(at(candidates, model), flat, 1.0)
        _, variances = predict_batch(model, candidates.points)
        assert variances[index] == pytest.approx(variances.max())
        assert index != 4

    def test_cached_candidate_prior_gives_the_same_choice(self):
        # one posterior serves every reward and alpha: the choice equals a
        # fresh posterior's, and the model is scored once
        rng = np.random.default_rng(8)
        candidates = grid_candidates(360)
        inputs = rng.uniform(-math.pi, math.pi, size=(12, 1))
        observations = ObservationSet(inputs, rng.normal(scale=0.1, size=(12, 2)), 0.001)
        model = fit(observations, Kernel(sigma=0.1), point_robot_prior)
        cached = at(candidates, model)
        means, sigma = cached.score()
        for _ in range(20):
            reward = make_distance_reward(rng.normal(size=2), rng.normal(size=2))
            for alpha in (0.0, 0.05):
                fresh = select_next(at(candidates, model), reward, alpha)
                reused = select_next(cached, reward, alpha)
                assert reused[1] == fresh[1]
                np.testing.assert_array_equal(reused[0], fresh[0])
        assert cached.score()[0] is means and cached.score()[1] is sigma

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_alpha_zero_picks_the_argmax_of_the_reward_plus_a_zero_bonus(self, data):
        # greedy selection skips the 0.0 * sigma bonus; sigma is finite and non-negative,
        # so the pick is the same, with ties, -0.0, NaN (the first one wins) and +-inf
        n = data.draw(st.integers(1, 40), label="candidates")
        special = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf])
        rewards = np.array(data.draw(st.lists(st.one_of(special, st.floats()), min_size=n, max_size=n)))
        sigma = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
        behavior, index = select_next(FixedScores(sigma), lambda g: rewards.copy(), 0.0)
        assert index == int(np.argmax(rewards + 0.0 * sigma))
        assert behavior.tolist() == [float(index)]
