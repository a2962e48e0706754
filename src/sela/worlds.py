"""Simulated worlds: a point robot steering by direction and a four-segment planar
walker, both starting at the origin. Damage rewires commanded behaviors before the
dynamics apply; observation noise corrupts only what the robot measures, never the
true pose. `vector_length` is the length rule of the per-step goal test and error
norms: `np.linalg.norm`'s arithmetic without its Python wrapper, equal bit for
bit. The walker model adds its joints' `math.cos` and `math.sin` in Python floats
from +0.0 in joint order, as numpy sums four terms: the numpy formula's bits where
the two libraries' trig agrees (tests check); an infinite offset raises
ValueError. The archive evaluator runs the same sums on a batch, row by row.
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
    (x,), (y,) = _leg_sums([(math.pi * u).tolist()])
    return np.array([WALKER_SEGMENT_STEP * x, WALKER_SEGMENT_STEP * y])


def _leg_sums(angles: list[list[float]]) -> tuple[list[float], list[float]]:
    """Per row of joint angles, the sum of their cosines and that of their sines."""
    xs, ys = [], []
    for row in angles:
        x = y = 0.0
        for angle in row:
            x += math.cos(angle)
            y += math.sin(angle)
        xs.append(x)
        ys.append(y)
    return xs, ys


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
    """Behavior the robot actually performs for a commanded behavior, as a new array."""
    behavior = np.array(behavior, dtype=float, ndmin=1)
    if isinstance(damage, FrozenJointDamage):
        if not 0 <= damage.joint < behavior.size:
            raise ValueError(
                f"frozen joint {damage.joint} out of range for behavior of size {behavior.size}"
            )
        behavior[damage.joint] = 0.0
    elif isinstance(damage, AngleOffsetDamage):
        if behavior[0] > 0:
            return np.array([wrap_angle(float(behavior[0]) + damage.offset)])
    elif damage is not None:
        raise TypeError(f"unknown damage model: {damage!r}")
    return behavior


class World:
    """Stateful simulation. The pose starts at the origin and advances by the true
    displacement; the returned observation adds per-axis Gaussian noise on top of it."""

    def __init__(
        self,
        model: Callable[[np.ndarray], np.ndarray],
        damage: Damage = None,
        noise_variance: float = 0.0,
        seed: int = 0,
    ):
        if not noise_variance >= 0:
            raise ValueError("noise_variance must be non-negative")
        self._model = model
        self._damage = damage
        self._noise_std = math.sqrt(noise_variance)
        self._rng = np.random.default_rng(seed)
        self._pose = np.zeros(2)

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
    damage: Damage = None, noise_variance: float = 0.0, seed: int = 0
) -> World:
    return World(point_robot_prior, damage, noise_variance, seed)


def make_segment_walker_world(
    damage: Damage = None, noise_variance: float = 0.0, seed: int = 0
) -> World:
    return World(segment_walker_model, damage, noise_variance, seed)


def segment_walker_evaluator(behaviors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Archive evaluator for the intact walker on a (k, 4) batch. Per row: the
    model's outcome; its magnitude as the performance (`d.dot(d)`'s bits,
    which `np.vecdot` keeps and `einsum` does not); and as descriptor its
    `math.atan2` direction mapped onto (0, 1] and the magnitude over the
    walker's maximum step (all legs aligned), clamped to 1."""
    rows = np.asarray(behaviors, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != WALKER_JOINTS:
        raise ValueError(f"expected rows of {WALKER_JOINTS} joint offsets, got shape {rows.shape}")
    outcomes = WALKER_SEGMENT_STEP * np.array(_leg_sums((math.pi * rows).tolist())).T
    magnitudes = np.sqrt(np.vecdot(outcomes, outcomes))
    xs, ys = outcomes.T.tolist()
    directions = (np.array(list(map(math.atan2, ys, xs))) + math.pi) / (2.0 * math.pi)
    descriptors = np.stack([directions, np.minimum(magnitudes / (WALKER_JOINTS * WALKER_SEGMENT_STEP), 1.0)], axis=1)
    return descriptors, magnitudes, outcomes


def sample_point_robot_behavior(rng: np.random.Generator) -> np.ndarray:
    return np.array([rng.uniform(-math.pi, math.pi)])


def sample_walker_behavior(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(WALKER_LOWER, WALKER_UPPER)


def vector_length(d: np.ndarray) -> float:
    """Euclidean length of a real 1-D float array, computed as `np.linalg.norm`
    does (the square root of `d.dot(d)`); overflow gives inf and a RuntimeWarning."""
    return math.sqrt(d.dot(d))


def goal_reached(pose, goal, epsilon_goal: float) -> bool:
    return vector_length(np.subtract(pose, goal, dtype=float)) <= epsilon_goal
