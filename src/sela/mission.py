"""Semi-episodic mission control and the comparison baselines.

A SELA mission is one loop of task steps with one counter, `burst`, the
adaptation steps left. A nominal step (burst 0) greedily chases the waypoint
with the current model (the prior until anything is learned). When the mean
prediction error over a sliding window exceeds a threshold, a burst of
`max_adapt_iterations` steps opens, never past the step cap: each picks by
UCB, is a real task step and learns, so no learning time is lost to resets.
It closes when the window error falls back below the threshold or its budget
runs out. The goal, or the step cap, ends the mission in either phase.

The baselines keep learning and execution episodic: each learning trial
(`_episodic_trial`) resets the robot to the start pose, the origin, and counts as pure
cost, no trial runs past the step cap, and only then does the robot drive to the goal
with what it learned (`_drive`). Alpha weighs the UCB bonus of SELA's bursts and the
episodic trials, not uncertainty sampling's. A mission passes one `MissionState` around:
the posterior and the step count it mutates, and the `MissionConfig` it reads. All four
methods share its one step (`MissionState.execute`: execute a behavior, count it), its
learning step (`state.posterior.learn`), its goal test (`MissionState.at_goal`) and the
record builder (`_record`), which counts one learning step per observation in the model.

The candidate set, planner grid and goal stay fixed for a whole mission, and
the observations only grow. So a mission holds one `CandidatePosterior`, built with the
state, and reaches its one model and the model's one observation set through it (babbling's
from a copy of the config with the zero prior, sharing its world, rng and grid). `fit`
builds the empty model once, and each learning step is one `CandidatePosterior.learn`
(`sela.gp` says what it writes). Steps that learn nothing reuse the posterior's last score,
and SELA's prediction is that score's row, `means[index]`. The drop window keeps one error
norm per step; its mean adds fewer than 8 errors in Python floats in numpy's order, and
runs `np.add.reduce` beyond. It, the error norms and the goal test keep numpy's bits
without numpy's Python wrappers. The goal's planner cell is derived once
(`MissionState.goal_cell`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .acquisition import CandidateSet, select_next
from .gp import CandidatePosterior, Kernel, ObservationSet, PriorMean, fit, predict, zero_prior
from .reward import PlannerGrid, build_waypoint_reward
from .worlds import World, goal_reached, vector_length


class Method(Enum):
    SELA = "sela"
    BABBLING = "babbling"
    EPISODIC_ITE = "episodic_ite"
    UNCERTAINTY = "uncertainty"


@dataclass(frozen=True)
class RunRecord:
    """Accounting for one mission: behaviors spent learning vs executing."""

    method: Method
    learn_steps: int
    exec_steps: int
    total_steps: int
    reached: bool
    seed: int

    def __post_init__(self):
        if min(self.learn_steps, self.exec_steps, self.seed) < 0 or (
                self.total_steps != self.learn_steps + self.exec_steps):
            raise ValueError("counts and seed must be non-negative, total_steps = learn + exec")


@dataclass
class MissionConfig:
    """Fully built per-run bundle: a seeded world plus every knob a method needs."""

    world: World
    candidates: CandidateSet
    prior: PriorMean
    kernel: Kernel
    gp_noise: float
    goal: np.ndarray
    epsilon_goal: float
    grid: PlannerGrid
    lookahead_cells: int
    max_adapt_iterations: int
    step_cap: int
    seed: int
    rng: np.random.Generator
    behavior_sampler: Callable[[np.random.Generator], np.ndarray]
    alpha: float = 0.05   # select_next's UCB weight wherever a method chases by UCB
    drop_window: int = 3   # how many of the latest prediction errors the drop window averages
    drop_threshold: float = 0.15   # a window error above it opens a burst, one below it closes it
    babble_max: int = 15
    epsilon_model: float = 0.01
    uncertainty_iterations: int = 15
    episodic_success_projection: float = 0.09

    def __post_init__(self):
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.drop_window < 1:
            raise ValueError("window must be at least 1")
        if not self.drop_threshold > 0:
            raise ValueError("threshold must be positive")


@dataclass
class MissionState:
    """What a mission mutates while it runs; it reads the rest from its config."""

    config: MissionConfig
    step_count: int = field(default=0, init=False)
    # The drop detector's window: the errors of the last drop_window steps, never more than step_cap
    recent: deque = field(init=False)
    # At the candidates, the posterior of the mission's one model, fitted with the config's kernel,
    # prior and gp_noise on the mission's observations; the model and its set are reached through it.
    posterior: CandidatePosterior = field(init=False)
    goal_cell: tuple = field(init=False)   # the goal's planner cell, fixed for the mission

    def __post_init__(self):
        config = self.config
        self.recent = deque(maxlen=min(config.drop_window, config.step_cap))
        self.goal_cell = config.grid.cell_of(config.goal)
        observations = ObservationSet.empty(config.candidates.points.shape[1], 2, config.gp_noise)
        model = fit(observations, config.kernel, config.prior)
        self.posterior = CandidatePosterior(config.candidates.points, model)

    def execute(self, behavior) -> np.ndarray:
        """One step: execute a behavior, learning trial or not, in the world; returns the observed outcome."""
        self.step_count += 1
        return self.config.world.execute(behavior)

    def at_goal(self) -> bool:
        config = self.config
        return goal_reached(config.world.pose, config.goal, config.epsilon_goal)

    def record_error(self, predicted, observed) -> float:
        """Push |observed - predicted| into the drop window and return the
        window error, its mean; a drop is detected when it exceeds the threshold."""
        self.recent.append(vector_length(observed - predicted))
        # np.mean's bits without its wrapper: numpy's reduce adds fewer than 8 values in order
        total = reduce(add, self.recent) if len(self.recent) < 8 else np.add.reduce(np.array(self.recent))
        return float(total) / len(self.recent)


_GREEDY = 0.0


def _chase_waypoint(state: MissionState, alpha: float = _GREEDY) -> tuple[np.ndarray, int]:
    """The candidate that `select_next` picks at UCB weight `alpha` to approach the
    next waypoint, greedily by default, and its index."""
    config = state.config
    reward = build_waypoint_reward(
        config.grid, config.world.pose, config.goal, state.goal_cell, config.lookahead_cells
    )
    return select_next(state.posterior, reward, alpha)


def _record(method: Method, state: MissionState) -> RunRecord:
    learn_steps = len(state.posterior.model.observations)   # one observation per learning step
    return RunRecord(
        method=method,
        learn_steps=learn_steps,
        exec_steps=state.step_count - learn_steps,
        total_steps=state.step_count,
        reached=state.at_goal(),
        seed=state.config.seed,
    )


def _drive(
    method: Method,
    state: MissionState,
    choose: Callable[[MissionState], np.ndarray] = lambda state: _chase_waypoint(state)[0],
) -> RunRecord:
    """The baselines' tail: every step so far was a learning trial. Execute
    `choose(state)`, by default the greedy waypoint chase, until the goal or
    the step cap, learning nothing, and record the mission."""
    while state.step_count < state.config.step_cap and not state.at_goal():
        state.execute(choose(state))
    return _record(method, state)


def run_mission(config: MissionConfig) -> RunRecord:
    """Full semi-episodic mission, one loop: every executed behavior is a task step.
    `burst` counts the adaptation steps left (0: nominal), which chase by UCB and learn."""
    state = MissionState(config)
    burst = 0
    while state.step_count < config.step_cap and not state.at_goal():
        behavior, index = _chase_waypoint(state, config.alpha if burst else _GREEDY)
        predicted = state.posterior.means[index]
        observed = state.execute(behavior)
        if burst:
            state.posterior.learn(behavior, observed, index)
        error = state.record_error(predicted, observed)
        if burst:   # recovery closes the burst
            burst = 0 if error < config.drop_threshold else burst - 1
        elif error > config.drop_threshold:   # a drop opens one; the loop's test keeps it in the step cap
            burst = config.max_adapt_iterations
    return _record(Method.SELA, state)


def _episodic_trial(state: MissionState, behavior, index=None) -> np.ndarray:
    """Try a behavior (candidate `index`, if one), put the robot back where it stood
    (the start pose), and learn from the observed outcome: a step without task progress."""
    world = state.config.world
    start_pose = world.pose
    observed = state.execute(behavior)
    world.reset_pose(start_pose)
    state.posterior.learn(behavior, observed, index)
    return observed


def baseline_babbling(config: MissionConfig) -> RunRecord:
    """Learn by uniform random behaviors from scratch, then go.

    Each babble resets the pose, so learning is pure cost. Babbling stops
    early once the mean held-out error of the last few predictions drops
    under epsilon_model, which only happens when the model really fits.
    """
    state = MissionState(replace(config, prior=zero_prior(2)))
    for _ in range(min(config.babble_max, config.step_cap)):
        behavior = config.behavior_sampler(config.rng)
        predicted, _ = predict(state.posterior.model, behavior)
        if state.record_error(predicted, _episodic_trial(state, behavior)) < config.epsilon_model:
            break
    return _drive(Method.BABBLING, state)


# Cardinal task directions learned by the episodic baseline: up, down,
# right, left.
EPISODIC_DIRECTIONS = (
    np.array([0.0, 1.0]),
    np.array([0.0, -1.0]),
    np.array([1.0, 0.0]),
    np.array([-1.0, 0.0]),
)


def baseline_episodic_ite(config: MissionConfig) -> RunRecord:
    """Episodic adaptation: learn one good behavior per cardinal direction,
    resetting the pose after every trial, then bang-bang to the goal.

    Trials score by the observed displacement projected onto the direction;
    an episode ends early once the projection clears the success bar. All
    episodes share one observation set."""
    state = MissionState(config)
    chosen = []
    for direction in EPISODIC_DIRECTIONS:
        trials = []   # (projection, behavior)
        for _ in range(min(config.max_adapt_iterations, config.step_cap - state.step_count)):
            # reward: the projection onto the direction
            behavior, index = select_next(state.posterior, lambda g: np.vecdot(g, direction), config.alpha)
            trials.append((float(np.dot(_episodic_trial(state, behavior, index), direction)), behavior))
            if trials[-1][0] >= config.episodic_success_projection:
                break
        if trials:   # the first best trial; none once the step cap is reached
            chosen.append(max(trials, key=lambda trial: trial[0])[1])

    # Fixed repertoire: the posterior mean at each chosen behavior is the
    # outcome the controller believes in from now on.
    repertoire = [(behavior, predict(state.posterior.model, behavior)[0]) for behavior in chosen]

    def closest_landing(state: MissionState) -> np.ndarray:
        pose = state.config.world.pose
        landings = [vector_length(pose + outcome - config.goal) for _, outcome in repertoire]
        return repertoire[int(np.argmin(landings))][0]

    return _drive(Method.EPISODIC_ITE, state, closest_landing)


def baseline_uncertainty(config: MissionConfig) -> RunRecord:
    """Pure uncertainty sampling: always try the behavior the model knows
    least about, for a fixed number of trials, then go with what was learned.
    Learning trials reset the pose and count as pure cost."""
    state = MissionState(config)
    for _ in range(min(config.uncertainty_iterations, config.step_cap)):
        # a zero reward at unit weight: sigma alone decides, not alpha
        behavior, index = select_next(state.posterior, lambda g: np.zeros(len(g)), 1.0)
        _episodic_trial(state, behavior, index)
    return _drive(Method.UNCERTAINTY, state)


_RUNNERS = {
    Method.SELA: run_mission,
    Method.BABBLING: baseline_babbling,
    Method.EPISODIC_ITE: baseline_episodic_ite,
    Method.UNCERTAINTY: baseline_uncertainty,
}


def run_method(method: Method, config: MissionConfig) -> RunRecord:
    return _RUNNERS[method](config)
