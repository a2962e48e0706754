"""Semi-episodic mission control and the comparison baselines.

The mission runs in two phases. Nominal: greedily chase the waypoint using
the current model (the prior alone until anything has been learned). When the
mean prediction error over a sliding window exceeds a threshold, the mission
switches to adapting and runs UCB-driven model updates in which every trial
is a real task step, so learning time is never lost to resets. Adaptation
ends when the goal is reached, the error window falls back below the
threshold, or an iteration budget runs out; the mission then resumes nominal
driving with the updated posterior.

The baselines keep learning and execution episodic: each learning trial
(`_episodic_trial`) resets the robot to the start pose and counts as pure
cost, no trial runs past the step cap, and only then does the robot drive to
the goal with what it learned (`_drive`). A mission passes one `MissionState` around: the model, the
posterior and the step count it mutates, and the `MissionConfig` it reads.
All four methods share its learning step (`MissionState.learn`), its goal
test (`MissionState.at_goal`) and the record builder (`_record`), which
counts one learning step per observation in the model.

The candidate set, planner grid and goal stay fixed for a whole mission, and
the observations only grow. So each refit extends the previous model's
Cholesky factor, and a `CandidatePosterior` keeps the prior at the candidates,
writes one cross-kernel row per observation in place, and scores each model
once: steps that learn nothing reuse the last score. The outcome SELA predicts
for a chosen candidate comes from that posterior too (`mean_at`), and the drop
window keeps one error norm per step. The missions of an experiment share one
table of A* waypoints per start cell (`MissionConfig.waypoint_cells`). Rewards
are plain functions of a batch of outcomes, which `select_next` takes as is.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .acquisition import AcquisitionConfig, CandidateSet, select_next
from .gp import (
    CandidatePosterior, GpModel, Kernel, ObservationSet, PriorMean, fit, predict, zero_prior
)
from .reward import PlannerGrid, build_waypoint_reward
from .worlds import World, goal_reached


class Method(Enum):
    SELA = "sela"
    BABBLING = "babbling"
    EPISODIC_ITE = "episodic_ite"
    UNCERTAINTY = "uncertainty"


@dataclass(frozen=True)
class DropDetectorConfig:
    """Sliding-window monitor for performance drops."""

    window: int = 3
    threshold: float = 0.15

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


def window_error(errors) -> float:
    """Mean prediction error over the drop detector's window of per-step
    errors |observed - predicted|. A drop is detected when it exceeds the threshold."""
    if len(errors) == 0:
        raise ValueError("need at least one prediction error")
    return float(np.mean(errors))


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
        if self.total_steps != self.learn_steps + self.exec_steps:
            raise ValueError("total_steps must equal learn_steps + exec_steps")


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
    acquisition: AcquisitionConfig
    drop: DropDetectorConfig
    max_adapt_iterations: int
    step_cap: int
    seed: int
    rng: np.random.Generator
    behavior_sampler: Callable[[np.random.Generator], np.ndarray]
    babble_max: int = 15
    epsilon_model: float = 0.01
    uncertainty_iterations: int = 15
    episodic_success_projection: float = 0.09
    # Waypoint cell per A* start cell (see build_waypoint_reward); missions
    # with the same grid, goal and lookahead may share it.
    waypoint_cells: dict = field(default_factory=dict)


@dataclass
class MissionState:
    """What a mission mutates while it runs; it reads the rest from its config.
    Every executed behavior, learning trial or not, is one step."""

    config: MissionConfig
    model: GpModel
    step_count: int = field(default=0, init=False)
    # The drop detector's window: the prediction errors of the last drop.window steps
    recent: deque = field(init=False)
    # The posterior at the candidates, with the model's kernel and prior.
    posterior: CandidatePosterior = field(init=False)

    def __post_init__(self):
        self.recent = deque(maxlen=self.config.drop.window)
        model = self.model
        self.posterior = CandidatePosterior(self.config.candidates.points, model.prior, model.kernel)

    def at_goal(self) -> bool:
        config = self.config
        return goal_reached(config.world.pose, config.goal, config.epsilon_goal)

    def learn(self, behavior, observed) -> None:
        """Add one observation and refit from the current model, with its own
        kernel and prior."""
        model = self.model
        observations = model.observations.with_observation(behavior, observed)
        self.model = fit(observations, model.kernel, model.prior, previous=model)

    def record_error(self, predicted, observed) -> float:
        """Push |observed - predicted| into the drop window; return its window error."""
        self.recent.append(float(np.linalg.norm(observed - predicted)))
        return window_error(self.recent)


_GREEDY = AcquisitionConfig(alpha=0.0)


def _fresh_state(config: MissionConfig, prior: PriorMean) -> MissionState:
    observations = ObservationSet.empty(config.candidates.points.shape[1], 2, config.gp_noise)
    return MissionState(config, fit(observations, config.kernel, prior))


def _chase_waypoint(
    state: MissionState, acquisition: AcquisitionConfig = _GREEDY
) -> tuple[np.ndarray, int]:
    """The candidate that `select_next` picks to approach the next waypoint,
    greedily by default, and its index."""
    config = state.config
    reward = build_waypoint_reward(
        config.grid, config.world.pose, config.goal, config.lookahead_cells, config.waypoint_cells
    )
    return select_next(state.posterior, state.model, reward, acquisition)


def _record(method: Method, state: MissionState) -> RunRecord:
    learn_steps = len(state.model.observations)   # one observation per learning step
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
    world = state.config.world
    while state.step_count < state.config.step_cap and not state.at_goal():
        world.execute(choose(state))
        state.step_count += 1
    return _record(method, state)


def sela_adapt(state: MissionState, max_iterations: int) -> None:
    """Adaptation burst: learn while still making task progress.

    Each iteration refreshes the waypoint reward for the current pose, picks
    a behavior by UCB, executes it for real, and refits the model on the new
    observation. Stops on goal, on recovery (window error back under the
    drop threshold), or after max_iterations.
    """
    config = state.config
    for _ in range(max_iterations):
        if state.at_goal():
            break
        behavior, index = _chase_waypoint(state, config.acquisition)
        predicted = state.posterior.mean_at(state.model, index)
        observed = config.world.execute(behavior)
        state.learn(behavior, observed)
        state.step_count += 1
        if state.record_error(predicted, observed) < config.drop.threshold:
            break


def run_mission(config: MissionConfig) -> RunRecord:
    """Full semi-episodic mission; every executed behavior is a task step."""
    state = _fresh_state(config, config.prior)
    while state.step_count < config.step_cap and not state.at_goal():
        behavior, index = _chase_waypoint(state)
        predicted = state.posterior.mean_at(state.model, index)
        observed = config.world.execute(behavior)
        state.step_count += 1
        if state.record_error(predicted, observed) > config.drop.threshold:
            sela_adapt(state, min(config.max_adapt_iterations, config.step_cap - state.step_count))
    return _record(Method.SELA, state)


def _episodic_trial(state: MissionState, behavior) -> np.ndarray:
    """Try a behavior, put the robot back where it stood (the start pose), and
    learn from the observed outcome: a step that makes no task progress."""
    world = state.config.world
    start_pose = world.pose
    observed = world.execute(behavior)
    world.reset_pose(start_pose)
    state.learn(behavior, observed)
    state.step_count += 1
    return observed


def baseline_babbling(config: MissionConfig) -> RunRecord:
    """Learn by uniform random behaviors from scratch, then go.

    Each babble resets the pose, so learning is pure cost. Babbling stops
    early once the mean held-out error of the last few predictions drops
    under epsilon_model, which only happens when the model really fits.
    """
    state = _fresh_state(config, zero_prior(2))
    for _ in range(min(config.babble_max, config.step_cap)):
        behavior = config.behavior_sampler(config.rng)
        predicted, _ = predict(state.model, behavior)
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
    state = _fresh_state(config, config.prior)
    chosen = []
    for direction in EPISODIC_DIRECTIONS:
        trials = []   # (projection, behavior)
        for _ in range(min(config.max_adapt_iterations, config.step_cap - state.step_count)):
            behavior, _ = select_next(   # reward: the projection onto the direction
                state.posterior, state.model, lambda g: np.vecdot(g, direction), config.acquisition
            )
            trials.append((float(np.dot(_episodic_trial(state, behavior), direction)), behavior))
            if trials[-1][0] >= config.episodic_success_projection:
                break
        if trials:   # the first best trial; none once the step cap is reached
            chosen.append(max(trials, key=lambda trial: trial[0])[1])

    # Fixed repertoire: the posterior mean at each chosen behavior is the
    # outcome the controller believes in from now on.
    repertoire = [(behavior, predict(state.model, behavior)[0]) for behavior in chosen]

    def closest_landing(state: MissionState) -> np.ndarray:
        pose = state.config.world.pose
        landings = [
            float(np.linalg.norm(pose + outcome - config.goal)) for _, outcome in repertoire
        ]
        return repertoire[int(np.argmin(landings))][0]

    return _drive(Method.EPISODIC_ITE, state, closest_landing)


def baseline_uncertainty(config: MissionConfig) -> RunRecord:
    """Pure uncertainty sampling: always try the behavior the model knows
    least about, for a fixed number of trials, then go with what was learned.
    Learning trials reset the pose and count as pure cost."""
    state = _fresh_state(config, config.prior)
    for _ in range(min(config.uncertainty_iterations, config.step_cap)):
        behavior, _ = select_next(   # a zero reward: the uncertainty alone decides
            state.posterior, state.model, lambda g: np.zeros(len(g)), config.acquisition
        )
        _episodic_trial(state, behavior)
    return _drive(Method.UNCERTAINTY, state)


_RUNNERS = {
    Method.SELA: run_mission,
    Method.BABBLING: baseline_babbling,
    Method.EPISODIC_ITE: baseline_episodic_ite,
    Method.UNCERTAINTY: baseline_uncertainty,
}


def run_method(method: Method, config: MissionConfig) -> RunRecord:
    return _RUNNERS[method](config)
