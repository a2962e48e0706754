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
cost, and only then does the robot drive to the goal with what it learned
(`_drive`). A mission passes one `MissionState` around: the model, the
posterior and the step counts it mutates, and the `MissionConfig` it reads.
All four methods share its learning step (`MissionState.learn`), its goal
test (`MissionState.at_goal`) and the record builder (`_record`).

The candidate set, planner grid and goal stay fixed for a whole mission, and
the observations only grow. So each refit extends the previous model's Gram
matrix, and a `CandidatePosterior` keeps the prior and the cross kernel at
the candidates and scores each model once: steps that learn nothing reuse
the last score. The missions of an experiment share one table of A*
waypoints per start cell (`MissionConfig.waypoint_cells`).
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
from .reward import PlannerGrid, RewardFunction, build_waypoint_reward
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


def window_error(recent, window: int) -> float:
    """Mean prediction error over the last `window` (predicted, observed)
    outcome pairs. A drop is detected when it exceeds the drop threshold."""
    if len(recent) == 0:
        raise ValueError("need at least one (predicted, observed) pair")
    tail = list(recent)[-window:]
    errors = [float(np.linalg.norm(np.asarray(obs) - np.asarray(pred))) for pred, obs in tail]
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
    adapt_iterations: int = field(default=0, init=False)
    # (predicted, observed) outcome pairs for the drop detector
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


_GREEDY = AcquisitionConfig(alpha=0.0)


def _fresh_state(config: MissionConfig, prior: PriorMean) -> MissionState:
    observations = ObservationSet.empty(config.candidates.points.shape[1], 2, config.gp_noise)
    return MissionState(config, fit(observations, config.kernel, prior))


def _waypoint_reward(state: MissionState) -> RewardFunction:
    config = state.config
    return build_waypoint_reward(
        config.grid, config.world.pose, config.goal, config.lookahead_cells, config.waypoint_cells
    )


def _greedy_behavior(state: MissionState) -> np.ndarray:
    """Behavior whose predicted outcome best approaches the next waypoint."""
    return select_next(state.posterior, state.model, _waypoint_reward(state), _GREEDY)[0]


def _record(method: Method, state: MissionState, learn_steps: int) -> RunRecord:
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
    choose: Callable[[MissionState], np.ndarray] = _greedy_behavior,
) -> RunRecord:
    """The baselines' tail: every step so far was a learning trial. Execute
    `choose(state)` until the goal or the step cap, learning nothing, and
    record the mission."""
    learn_steps, world = state.step_count, state.config.world
    while state.step_count < state.config.step_cap and not state.at_goal():
        world.execute(choose(state))
        state.step_count += 1
    return _record(method, state, learn_steps)


def sela_adapt(state: MissionState, max_iterations: int) -> MissionState:
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
        behavior, _ = select_next(
            state.posterior, state.model, _waypoint_reward(state), config.acquisition
        )
        predicted, _ = predict(state.model, behavior)
        observed = config.world.execute(behavior)
        state.learn(behavior, observed)
        state.step_count += 1
        state.adapt_iterations += 1
        state.recent.append((predicted, observed))
        if window_error(state.recent, config.drop.window) < config.drop.threshold:
            break
    return state


def run_mission(config: MissionConfig) -> RunRecord:
    """Full semi-episodic mission; every executed behavior is a task step."""
    state = _fresh_state(config, config.prior)
    while state.step_count < config.step_cap and not state.at_goal():
        behavior = _greedy_behavior(state)
        predicted, _ = predict(state.model, behavior)
        observed = config.world.execute(behavior)
        state.step_count += 1
        state.recent.append((predicted, observed))
        if window_error(state.recent, config.drop.window) > config.drop.threshold:
            sela_adapt(state, min(config.max_adapt_iterations, config.step_cap - state.step_count))
    return _record(Method.SELA, state, state.adapt_iterations)


def _episodic_trial(state: MissionState, behavior, start_pose) -> np.ndarray:
    """Try a behavior, put the robot back at the start pose, and learn from
    the observed outcome. The trial is a step that makes no task progress."""
    world = state.config.world
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
    start_pose = config.world.pose
    for _ in range(config.babble_max):
        behavior = config.behavior_sampler(config.rng)
        predicted, _ = predict(state.model, behavior)
        observed = _episodic_trial(state, behavior, start_pose)
        state.recent.append((predicted, observed))
        if window_error(state.recent, config.drop.window) < config.epsilon_model:
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
    start_pose = config.world.pose
    chosen = []
    for direction in EPISODIC_DIRECTIONS:
        reward = RewardFunction(
            eval=lambda outcomes, d=direction: np.vecdot(outcomes, d),
            description=f"projection onto direction ({direction[0]:g}, {direction[1]:g})",
        )
        best_projection = -np.inf
        best_behavior = None
        for _ in range(config.max_adapt_iterations):
            behavior, _ = select_next(state.posterior, state.model, reward, config.acquisition)
            observed = _episodic_trial(state, behavior, start_pose)
            projection = float(np.dot(observed, direction))
            if projection > best_projection:
                best_projection = projection
                best_behavior = behavior
            if best_projection >= config.episodic_success_projection:
                break
        chosen.append(best_behavior)

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
    start_pose = config.world.pose
    zero_reward = RewardFunction(
        eval=lambda outcomes: np.zeros(len(outcomes)), description="uncertainty only"
    )
    for _ in range(config.uncertainty_iterations):
        behavior, _ = select_next(state.posterior, state.model, zero_reward, config.acquisition)
        _episodic_trial(state, behavior, start_pose)
    return _drive(Method.UNCERTAINTY, state)


_RUNNERS = {
    Method.SELA: run_mission,
    Method.BABBLING: baseline_babbling,
    Method.EPISODIC_ITE: baseline_episodic_ite,
    Method.UNCERTAINTY: baseline_uncertainty,
}


def run_method(method: Method, config: MissionConfig) -> RunRecord:
    return _RUNNERS[method](config)
