"""A textbook mission oracle: every method's loop written out plainly, checked
choice by choice against `sela.mission`.

The oracle refits its GP from scratch at every step it scores, with
`np.linalg.cholesky` and `np.linalg.solve` (Rasmussen & Williams 2006,
Algorithm 2.1), the prior mean as in IT&E (Cully et al. 2015): mean(x) =
P(x) + k(x, X) K^-1 (Y - P(X)), var(x) = 1 - k(x, X) K^-1 k(X, x), with K's
diagonal 1 + noise (+ JITTER below it). It picks by UCB over the candidates,
runs SELA's burst rule as the `sela.mission` docstring states it, and the
baselines' learning trials and drive tails as their docstrings state them. Of
`sela.gp` it uses only `kernel_matrix`, `prior_values` and `JITTER`; the worlds,
planner and rewards are the repo's.

The test records the candidate index of every `select_next` call that a method
makes, then runs the oracle on a fresh mission of the same seed. At every choice
the oracle's own UCB argmax must be the mission's pick, unless the mission's pick
scores within TIE of the oracle's best: the two GP forms round apart, so such a
step is a tie, counted and reported, and the oracle follows the mission's pick.
Each run must also end with the mission's step counts and goal test.
"""

from collections import deque

import numpy as np
import pytest

from sela import mission
from sela.config import ExperimentConfig
from sela.experiment import build_archive, build_mission_config
from sela.gp import JITTER, kernel_matrix, prior_values, zero_prior
from sela.mission import EPISODIC_DIRECTIONS, Method, run_method
from sela.reward import build_waypoint_reward
from sela.worlds import goal_reached

# Two UCB scores closer than this are a tie: a different pick there is no failure.
TIE = 1e-9


class TextbookGp:
    """The observations learned so far, and the posterior refitted from them on demand."""

    def __init__(self, config, prior):
        self.config, self.prior, self.inputs, self.outputs = config, prior, [], []

    def learn(self, behavior, observed):
        self.inputs.append(np.array(behavior, dtype=float))
        self.outputs.append(np.array(observed, dtype=float))

    def posterior(self, points):
        """Means (n, 2) and variances (n,) at `points`, refitted from scratch."""
        points = np.atleast_2d(points)
        prior_means = prior_values(self.prior, points)
        if not self.inputs:
            return prior_means, np.ones(len(points))
        kernel, noise = self.config.kernel, self.config.gp_noise
        inputs = np.array(self.inputs)
        gram = kernel_matrix(kernel, inputs, inputs)
        gram += (noise + (JITTER if noise < JITTER else 0.0)) * np.eye(len(inputs))
        factor = np.linalg.cholesky(gram)
        cross = kernel_matrix(kernel, inputs, points)
        weights = np.linalg.solve(factor.T, np.linalg.solve(factor, np.array(self.outputs) - prior_values(
            self.prior, inputs)))
        half = np.linalg.solve(factor, cross)
        return prior_means + cross.T @ weights, np.maximum(1.0 - np.sum(half * half, axis=0), 0.0)


class Oracle:
    """One mission of the oracle, replaying the mission's recorded picks where they tie."""

    def __init__(self, config, prior, picks):
        self.config, self.world, self.gp = config, config.world, TextbookGp(config, prior)
        self.picks, self.ties, self.steps = iter(picks), 0, 0
        self.goal_cell = config.grid.cell_of(config.goal)

    def choose(self, reward, alpha):
        """UCB over the candidates: the mission's pick, checked against the oracle's argmax."""
        points = self.config.candidates.points
        means, variances = self.gp.posterior(points)
        scores = reward(means) + alpha * np.sqrt(2.0 * variances)
        picked = next(self.picks, None)
        assert picked is not None, f"the mission made fewer choices than the oracle (step {self.steps + 1})"
        best = int(np.argmax(scores))
        if best != picked:
            assert scores[best] - scores[picked] <= TIE, (
                f"step {self.steps + 1}: the oracle picks {best} ({scores[best]!r}), "
                f"the mission {picked} ({scores[picked]!r})")
            self.ties += 1
        return points[picked], picked, means[picked]

    def chase(self, alpha=0.0):
        config = self.config
        reward = build_waypoint_reward(config.grid, self.world.pose, config.goal, self.goal_cell,
                                       config.lookahead_cells)
        return self.choose(reward, alpha)

    def execute(self, behavior):
        self.steps += 1
        return self.world.execute(behavior)

    def trial(self, behavior):
        """A learning trial: execute, put the robot back, learn."""
        pose = self.world.pose
        observed = self.execute(behavior)
        self.world.reset_pose(pose)
        self.gp.learn(behavior, observed)
        return observed

    def running(self):
        config = self.config
        return self.steps < config.step_cap and not goal_reached(self.world.pose, config.goal, config.epsilon_goal)

    def drive(self, choose=None):
        while self.running():
            self.execute(choose() if choose else self.chase()[0])


def window_error(recent, predicted, observed):
    recent.append(float(np.linalg.norm(observed - predicted)))
    return float(np.mean(recent))


def oracle_sela(oracle):
    config, recent, burst = oracle.config, deque(maxlen=oracle.config.drop_window), 0
    while oracle.running():
        behavior, _, predicted = oracle.chase(config.alpha if burst else 0.0)
        observed = oracle.execute(behavior)
        if burst:
            oracle.gp.learn(behavior, observed)
        error = window_error(recent, predicted, observed)
        if burst:
            burst = 0 if error < config.drop_threshold else burst - 1
        elif error > config.drop_threshold:
            burst = config.max_adapt_iterations


def oracle_babbling(oracle):
    config, recent = oracle.config, deque(maxlen=oracle.config.drop_window)
    for _ in range(min(config.babble_max, config.step_cap)):
        behavior = config.behavior_sampler(config.rng)
        predicted = oracle.gp.posterior(behavior)[0][0]
        if window_error(recent, predicted, oracle.trial(behavior)) < config.epsilon_model:
            break
    oracle.drive()


def oracle_episodic(oracle):
    config, chosen = oracle.config, []
    for direction in EPISODIC_DIRECTIONS:
        trials = []
        for _ in range(min(config.max_adapt_iterations, config.step_cap - oracle.steps)):
            behavior, _, _ = oracle.choose(lambda means: means @ direction, config.alpha)
            trials.append((float(oracle.trial(behavior) @ direction), behavior))
            if trials[-1][0] >= config.episodic_success_projection:
                break
        if trials:
            chosen.append(max(trials, key=lambda trial: trial[0])[1])
    repertoire = [(behavior, oracle.gp.posterior(behavior)[0][0]) for behavior in chosen]

    def closest_landing():
        landings = [np.linalg.norm(oracle.world.pose + outcome - config.goal) for _, outcome in repertoire]
        return repertoire[int(np.argmin(landings))][0]

    oracle.drive(closest_landing)


def oracle_uncertainty(oracle):
    config = oracle.config
    for _ in range(min(config.uncertainty_iterations, config.step_cap)):
        behavior, _, _ = oracle.choose(lambda means: np.zeros(len(means)), 1.0)
        oracle.trial(behavior)
    oracle.drive()


ORACLES = {
    Method.SELA: oracle_sela,
    Method.BABBLING: oracle_babbling,
    Method.EPISODIC_ITE: oracle_episodic,
    Method.UNCERTAINTY: oracle_uncertainty,
}


def recorded_run(method, config, monkeypatch):
    """The mission's record and the candidate index of each of its `select_next` calls."""
    picks, select_next = [], mission.select_next

    def recording(*args):
        behavior, index = select_next(*args)
        picks.append(index)
        return behavior, index

    with monkeypatch.context() as patch:
        patch.setattr(mission, "select_next", recording)
        record = run_method(method, config)
    return record, picks


def check_against_the_oracle(config, methods, seeds, monkeypatch, archive=None):
    """Runs each method on each seed and its oracle on a fresh mission of that seed; returns
    (choices compared, ties skipped)."""
    compared = ties = 0
    for method in methods:
        for seed in seeds:
            record, picks = recorded_run(method, build_mission_config(config, seed, archive), monkeypatch)
            fresh = build_mission_config(config, seed, archive)
            prior = zero_prior(2) if method is Method.BABBLING else fresh.prior
            oracle = Oracle(fresh, prior, picks)
            ORACLES[method](oracle)
            where = f"{method.value}, seed {seed}"
            assert next(oracle.picks, None) is None, f"{where}: the mission made more choices than the oracle"
            assert (oracle.steps, len(oracle.gp.inputs)) == (record.total_steps, record.learn_steps), where
            assert goal_reached(oracle.world.pose, fresh.goal, fresh.epsilon_goal) == record.reached, where
            compared, ties = compared + len(picks), ties + oracle.ties
    return compared, ties


TOY = ExperimentConfig(world="point_robot", damage="angle_offset", methods=tuple(Method), step_cap=120)
WALKER = ExperimentConfig(world="segment_walker", damage="frozen_joint", methods=tuple(Method), step_cap=120)
# perfbench's long-adaptation config: the goal is never reached, and the model grows every burst
LONG = ExperimentConfig(world="point_robot", damage="angle_offset", step_cap=250, goal_x=6.0, goal_y=6.0,
                        noise_variance=0.05, epsilon_goal=1e-9)


STREAMS = {"point_robot": (TOY, range(8)), "segment_walker": (WALKER, range(3)), "long_adaptation": (LONG, range(1))}


@pytest.mark.parametrize("name", STREAMS)
def test_every_choice_is_the_textbook_oracles(name, monkeypatch, capsys):
    config, seeds = STREAMS[name]
    archive = build_archive(config) if config.world == "segment_walker" else None
    compared, ties = check_against_the_oracle(config, config.methods, seeds, monkeypatch, archive)
    with capsys.disabled():
        print(f"\n{name}: {compared} choices compared with the oracle, {ties} skipped as ties")
    assert compared > 0 and ties <= compared // 20   # a run where many choices tie checks little
