"""Simulated worlds: a point robot steering by direction and a four-segment
planar walker. Damage rewires commanded behaviors before the dynamics apply;
observation noise corrupts only what the robot measures, never the true pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

POINT_ROBOT_STEP = 0.1
WALKER_SEGMENT_STEP = 0.025
WALKER_JOINTS = 4
WALKER_LOWER = -np.ones(WALKER_JOINTS)
WALKER_UPPER = np.ones(WALKER_JOINTS)


def wrap_angle(theta: float) -> float:
    """Fold an angle into (-pi, pi]."""
    wrapped = (theta + math.pi) % (2.0 * math.pi) - math.pi
    if wrapped == -math.pi:
        return math.pi
    return wrapped


def point_robot_intact(theta: float) -> np.ndarray:
    """One atomic step of length 0.1 in direction theta."""
    return np.array([POINT_ROBOT_STEP * math.cos(theta), POINT_ROBOT_STEP * math.sin(theta)])


def segment_walker_model(u) -> np.ndarray:
    """Displacement of the four-segment walker for joint offsets u in [-1, 1]^4.

    Each joint contributes an independent 0.025-long leg vector at angle
    pi * u_i; the displacement is their sum, so freezing one joint biases
    which directions remain reachable.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (WALKER_JOINTS,):
        raise ValueError(f"expected {WALKER_JOINTS} joint offsets, got shape {u.shape}")
    angles = math.pi * u
    return np.array(
        [
            WALKER_SEGMENT_STEP * float(np.cos(angles).sum()),
            WALKER_SEGMENT_STEP * float(np.sin(angles).sum()),
        ]
    )


@dataclass(frozen=True)
class AngleOffsetDamage:
    """Adds a fixed angular offset to commanded directions above zero,
    wrapping back into (-pi, pi]."""

    offset: float


@dataclass(frozen=True)
class FrozenJointDamage:
    """Forces one joint of the commanded behavior to zero."""

    joint: int


Damage = Optional[Union[AngleOffsetDamage, FrozenJointDamage]]


def apply_damage(damage: Damage, behavior) -> np.ndarray:
    """Behavior the robot actually performs for a commanded behavior."""
    behavior = np.atleast_1d(np.asarray(behavior, dtype=float))
    if damage is None:
        return behavior.copy()
    if isinstance(damage, AngleOffsetDamage):
        theta = float(behavior[0])
        if theta > 0:
            return np.array([wrap_angle(theta + damage.offset)])
        return behavior.copy()
    if isinstance(damage, FrozenJointDamage):
        if not 0 <= damage.joint < behavior.size:
            raise ValueError(
                f"frozen joint {damage.joint} out of range for behavior of size {behavior.size}"
            )
        crippled = behavior.copy()
        crippled[damage.joint] = 0.0
        return crippled
    raise TypeError(f"unknown damage model: {damage!r}")


class World:
    """Stateful simulation. The pose advances by the true displacement; the
    returned observation adds per-axis Gaussian noise on top of it."""

    def __init__(
        self,
        model: Callable[[np.ndarray], np.ndarray],
        damage: Damage = None,
        noise_variance: float = 0.0,
        seed: int = 0,
        start=(0.0, 0.0),
    ):
        if noise_variance < 0:
            raise ValueError("noise_variance must be non-negative")
        self._model = model
        self._damage = damage
        self._noise_std = math.sqrt(noise_variance)
        self._rng = np.random.default_rng(seed)
        self._pose = np.asarray(start, dtype=float).copy()

    @property
    def pose(self) -> np.ndarray:
        return self._pose.copy()

    def reset_pose(self, pose) -> None:
        self._pose = np.asarray(pose, dtype=float).copy()

    def execute(self, behavior) -> np.ndarray:
        """Run one behavior; returns the observed displacement."""
        performed = apply_damage(self._damage, behavior)
        true_displacement = self._model(performed)
        self._pose = self._pose + true_displacement
        noise = self._rng.normal(0.0, self._noise_std, size=true_displacement.shape)
        return true_displacement + noise


def point_robot_prior(x) -> np.ndarray:
    """Intact point-robot model over 1-d behaviors: the GP prior mean, and
    the dynamics of the point-robot world once damage has been applied."""
    return point_robot_intact(float(np.atleast_1d(x)[0]))


def make_point_robot_world(
    damage: Damage = None, noise_variance: float = 0.0, seed: int = 0, start=(0.0, 0.0)
) -> World:
    return World(point_robot_prior, damage, noise_variance, seed, start)


def make_segment_walker_world(
    damage: Damage = None, noise_variance: float = 0.0, seed: int = 0, start=(0.0, 0.0)
) -> World:
    return World(segment_walker_model, damage, noise_variance, seed, start)


def walker_descriptor(outcome) -> np.ndarray:
    """Normalized (direction, magnitude) of a walker displacement.

    Direction maps (-pi, pi] onto (0, 1]; magnitude is relative to the intact
    maximum step and clamped to 1.
    """
    outcome = np.asarray(outcome, dtype=float)
    return _walker_descriptor(outcome, float(np.linalg.norm(outcome)))


def _walker_descriptor(outcome: np.ndarray, magnitude: float) -> np.ndarray:
    direction = (math.atan2(outcome[1], outcome[0]) + math.pi) / (2.0 * math.pi)
    return np.array([direction, min(magnitude / POINT_ROBOT_STEP, 1.0)])


def segment_walker_evaluator(behavior) -> tuple[np.ndarray, float, np.ndarray]:
    """Archive evaluator for the intact walker: descriptor, performance
    (displacement magnitude), and the cached outcome."""
    outcome = segment_walker_model(behavior)
    magnitude = float(np.linalg.norm(outcome))
    return _walker_descriptor(outcome, magnitude), magnitude, outcome


def sample_point_robot_behavior(rng: np.random.Generator) -> np.ndarray:
    return np.array([rng.uniform(-math.pi, math.pi)])


def sample_walker_behavior(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(WALKER_LOWER, WALKER_UPPER)


def goal_reached(pose, goal, epsilon_goal: float) -> bool:
    pose = np.asarray(pose, dtype=float)
    goal = np.asarray(goal, dtype=float)
    return float(np.linalg.norm(pose - goal)) <= epsilon_goal
