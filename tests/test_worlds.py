"""Dynamics, damage rewiring, and the noise model of the simulated worlds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sela.worlds
from sela.map_elites import illuminate, save_archive
from sela.worlds import (
    POINT_ROBOT_STEP,
    WALKER_JOINTS,
    WALKER_SEGMENT_STEP,
    AngleOffsetDamage,
    FrozenJointDamage,
    World,
    apply_damage,
    goal_reached,
    make_point_robot_world,
    make_segment_walker_world,
    point_robot_intact,
    point_robot_prior,
    sample_point_robot_behavior,
    sample_walker_behavior,
    segment_walker_evaluator,
    segment_walker_model,
    vector_length,
    wrap_angle,
)
from test_map_elites import batched


class TestWrapAngle:
    def test_identity_inside_range(self):
        for theta in (-3.0, -0.5, 0.0, 0.5, 3.0):
            assert wrap_angle(theta) == theta

    def test_wraps_past_pi(self):
        assert wrap_angle(3.5) == pytest.approx(-2.7831853071795862)

    def test_boundary_maps_to_positive_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)


class TestPointRobotModel:
    def test_cardinal_directions(self):
        np.testing.assert_allclose(point_robot_intact(0.0), [0.1, 0.0], atol=1e-15)
        np.testing.assert_allclose(point_robot_intact(math.pi / 2), [0.0, 0.1], atol=1e-15)
        np.testing.assert_allclose(point_robot_intact(math.pi), [-0.1, 0.0], atol=1e-15)

    def test_diagonal_value(self):
        got = point_robot_intact(math.pi / 4)
        assert got[0] == 0.07071067811865477
        assert got[1] == 0.07071067811865475

    def test_step_length_constant(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-math.pi, math.pi, size=50):
            assert np.linalg.norm(point_robot_intact(theta)) == pytest.approx(POINT_ROBOT_STEP)

    def test_prior_matches_model(self):
        np.testing.assert_array_equal(point_robot_prior([0.7]), point_robot_intact(0.7))


class TestSegmentWalkerModel:
    def test_all_joints_zero_steps_right(self):
        np.testing.assert_allclose(segment_walker_model([0, 0, 0, 0]), [0.1, 0.0], atol=1e-15)

    def test_all_joints_one_steps_left(self):
        got = segment_walker_model([1.0, 1.0, 1.0, 1.0])
        assert got[0] == pytest.approx(-0.1)
        assert got[1] == pytest.approx(0.0, abs=1e-15)

    def test_half_offsets_step_up(self):
        got = segment_walker_model([0.5, 0.5, 0.5, 0.5])
        assert got[0] == pytest.approx(0.0, abs=1e-15)
        assert got[1] == pytest.approx(0.1)

    def test_displacement_never_exceeds_intact_maximum(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = sample_walker_behavior(rng)
            assert np.linalg.norm(segment_walker_model(u)) <= 0.1 + 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            segment_walker_model([0.0, 0.0])


class TestDamage:
    def test_no_damage_copies(self):
        behavior = np.array([0.3])
        out = apply_damage(None, behavior)
        np.testing.assert_array_equal(out, behavior)
        out[0] = 9.0
        assert behavior[0] == 0.3

    def test_offset_applies_to_positive_angles(self):
        damage = AngleOffsetDamage(0.5)
        assert apply_damage(damage, [0.5])[0] == 1.0
        assert apply_damage(damage, [-1.0])[0] == -1.0
        assert apply_damage(damage, [0.0])[0] == 0.0

    def test_offset_wraps(self):
        damage = AngleOffsetDamage(0.5)
        assert apply_damage(damage, [3.0])[0] == pytest.approx(-2.7831853071795862)

    def test_damaged_point_robot_displacement(self):
        world = make_point_robot_world(AngleOffsetDamage(0.5))
        observed = world.execute([math.pi / 2])
        assert observed[0] == -0.047942553860420296
        assert observed[1] == 0.08775825618903728

    def test_frozen_joint_zeroes_one_component(self):
        damage = FrozenJointDamage(2)
        out = apply_damage(damage, [0.4, -0.6, 0.9, 0.1])
        np.testing.assert_array_equal(out, [0.4, -0.6, 0.0, 0.1])

    def test_frozen_joint_changes_dynamics(self):
        u = np.array([0.5, 0.5, 0.5, 0.5])
        crippled = apply_damage(FrozenJointDamage(0), u)
        np.testing.assert_allclose(
            segment_walker_model(crippled),
            segment_walker_model([0.0, 0.5, 0.5, 0.5]),
        )

    def test_frozen_joint_out_of_range(self):
        with pytest.raises(ValueError):
            apply_damage(FrozenJointDamage(7), np.zeros(WALKER_JOINTS))

    def test_unknown_damage_type(self):
        with pytest.raises(TypeError):
            apply_damage("rusty", [0.0])


class TestWorld:
    def test_pose_advances_by_true_displacement(self):
        # noisy observations must not leak into the pose
        world = make_point_robot_world(noise_variance=0.01, seed=5)
        for _ in range(10):
            world.execute([0.0])
        np.testing.assert_allclose(world.pose, [1.0, 0.0], atol=1e-12)

    def test_zero_noise_observation_is_exact(self):
        world = make_point_robot_world(noise_variance=0.0, seed=5)
        observed = world.execute([0.3])
        np.testing.assert_array_equal(observed, point_robot_intact(0.3))

    def test_noise_statistics(self):
        # 10,000 residuals: mean within 3 sigma / sqrt(n), variance within 10%
        world = make_point_robot_world(noise_variance=0.01, seed=7)
        true = point_robot_intact(0.3)
        residuals = np.array([world.execute([0.3]) - true for _ in range(10_000)])
        bound = 3.0 * 0.1 / math.sqrt(10_000)
        assert abs(residuals[:, 0].mean()) < bound
        assert abs(residuals[:, 1].mean()) < bound
        assert residuals.var() == pytest.approx(0.01, rel=0.1)

    def test_same_seed_same_observations(self):
        a = make_point_robot_world(noise_variance=0.01, seed=11)
        b = make_point_robot_world(noise_variance=0.01, seed=11)
        for _ in range(5):
            np.testing.assert_array_equal(a.execute([0.2]), b.execute([0.2]))

    def test_different_seeds_differ(self):
        a = make_point_robot_world(noise_variance=0.01, seed=11)
        b = make_point_robot_world(noise_variance=0.01, seed=12)
        assert not np.array_equal(a.execute([0.2]), b.execute([0.2]))

    def test_pose_property_returns_copy(self):
        world = make_point_robot_world()
        pose = world.pose
        pose[0] = 50.0
        assert world.pose[0] == 0.0

    def test_reset_pose(self):
        world = make_point_robot_world()
        world.reset_pose((1.0, 2.0))
        world.execute([0.0])
        world.reset_pose((1.0, 2.0))
        np.testing.assert_array_equal(world.pose, [1.0, 2.0])

    def test_negative_noise_variance_rejected(self):
        with pytest.raises(ValueError):
            World(point_robot_intact, noise_variance=-0.1)

    def test_walker_world_applies_damage(self):
        world = make_segment_walker_world(FrozenJointDamage(1))
        observed = world.execute([0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(observed, segment_walker_model([0.5, 0.0, 0.5, 0.5]))


# Joint offsets in the walker's domain, with its edges, halves and signed zeros.
joint_offsets = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]))


def frozen_walker_model(u) -> np.ndarray:
    """segment_walker_model as the numpy formula it was before it moved to
    Python floats: np.cos and np.sin of the angle vector, summed by numpy."""
    u = np.asarray(u, dtype=float)
    if u.shape != (WALKER_JOINTS,):
        raise ValueError(f"expected {WALKER_JOINTS} joint offsets, got shape {u.shape}")
    angles = math.pi * u
    return np.array([0.025 * float(np.cos(angles).sum()), 0.025 * float(np.sin(angles).sum())])


def frozen_walker_evaluator(behavior):
    """segment_walker_evaluator as it was with the numpy model: np.linalg.norm
    for the magnitude, the descriptor from the outcome array's numpy scalars.
    Both take the direction from `math.atan2`, whose bits `np.arctan2` does not
    always give (about 7 % of random outcomes differ)."""
    outcome = frozen_walker_model(behavior)
    magnitude = float(np.linalg.norm(outcome))
    direction = (math.atan2(outcome[1], outcome[0]) + math.pi) / (2.0 * math.pi)
    return np.array([direction, min(magnitude / 0.1, 1.0)]), magnitude, outcome


def frozen_walker_execute(joint, noise_variance, seed, behaviors):
    """World.execute on a walker with FrozenJointDamage(joint), spelled out
    with the numpy model: the (pose, observation) after each behavior."""
    rng = np.random.default_rng(seed)
    pose, steps = np.zeros(2), []
    for behavior in behaviors:
        performed = np.atleast_1d(np.asarray(behavior, dtype=float)).copy()
        performed[joint] = 0.0
        displacement = frozen_walker_model(performed)
        pose = pose + displacement
        noise = rng.normal(0.0, math.sqrt(noise_variance), size=displacement.shape)
        steps.append((pose, displacement + noise))
    return steps


class TestScalarWalkerModel:
    """The walker model in Python floats against its numpy formula."""

    @pytest.mark.parametrize(
        "joints",
        [
            [0, 1, -1, 0],
            np.array([1, 0, 0, -1]),
            [-0.0, -0.0, -0.0, -0.0],   # numpy's sum starts from +0.0, so y is +0.0
            [0.0, -0.0, 0.0, -0.0],
            [-1.0, -0.0, 1.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
        ],
    )
    def test_int_lists_and_signed_zeros_match_the_numpy_formula(self, joints):
        got = segment_walker_model(joints)
        assert got.dtype == np.float64 and got.shape == (2,)
        assert got.tobytes() == frozen_walker_model(joints).tobytes()
        descriptors, performances, _ = segment_walker_evaluator([joints])
        expected = frozen_walker_evaluator(joints)
        assert descriptors[0].tobytes() == expected[0].tobytes()
        assert repr(performances.tolist()[0]) == repr(expected[1])

    @pytest.mark.parametrize(
        "joints",
        [np.zeros((4, 1)), np.zeros((1, 4)), np.zeros(3), np.zeros(5), 0.5, [], [[0.0] * 4]],
    )
    def test_other_shapes_raise(self, joints):
        with pytest.raises(ValueError, match="expected 4 joint offsets"):
            segment_walker_model(joints)

    @pytest.mark.parametrize("behaviors", [np.zeros((4, 1)), np.zeros(4), np.zeros((2, 5)), 0.5, []])
    def test_a_batch_of_other_shapes_raises(self, behaviors):
        with pytest.raises(ValueError, match="expected rows of 4 joint offsets"):
            segment_walker_evaluator(behaviors)

    @pytest.mark.parametrize("offset", [math.inf, -math.inf])
    @pytest.mark.parametrize("joint", range(WALKER_JOINTS))
    def test_an_infinite_offset_raises(self, offset, joint):
        # pinned: math.cos raises its domain error, where the numpy formula
        # gave NaN with a RuntimeWarning
        joints = [0.25] * WALKER_JOINTS
        joints[joint] = offset
        with pytest.raises(ValueError, match="math domain error"):
            segment_walker_model(joints)
        with pytest.raises(ValueError, match="math domain error"):
            segment_walker_evaluator([[0.5] * WALKER_JOINTS, joints])
        with pytest.warns(RuntimeWarning, match="invalid value encountered in (cos|sin)"):
            assert np.isnan(frozen_walker_model(joints)).all()

    @pytest.mark.parametrize("joint", range(WALKER_JOINTS))
    def test_a_nan_offset_gives_nans_without_a_warning(self, joint):
        # as with the numpy formula; the suite turns any warning into an error
        joints = [0.25] * WALKER_JOINTS
        joints[joint] = math.nan
        assert np.isnan(segment_walker_model(joints)).all()
        assert np.isnan(frozen_walker_model(joints)).all()
        descriptors, performances, outcomes = segment_walker_evaluator([joints])
        assert np.isnan(descriptors[0, 0]) and np.isnan(performances[0]) and np.isnan(outcomes).all()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(1, 1500),
        grid_shape=st.tuples(st.integers(1, 30), st.integers(1, 30)),
        init_batch=st.one_of(st.none(), st.integers(1, 200)),
        mutation_sigma=st.sampled_from([0.05, 0.2, 1.0]),
    )
    def test_illuminate_matches_the_numpy_evaluator(
        self, seed, budget, grid_shape, init_batch, mutation_sigma
    ):
        if init_batch is not None or budget < 100:   # the default batch is at least 100
            init_batch = min(init_batch or budget, budget)
        kwargs = dict(
            budget=budget, seed=seed, lower=-np.ones(WALKER_JOINTS), upper=np.ones(WALKER_JOINTS),
            grid_shape=grid_shape, mutation_sigma=mutation_sigma, init_batch=init_batch,
        )
        logs = ([], [])

        def recorder(log):
            def on_offer(cell, elite, result):
                log.append((cell, result, elite.behavior.tobytes(), elite.descriptor.tobytes(),
                            repr(elite.performance), elite.outcome.tobytes()))
            return on_offer

        expected = illuminate(batched(frozen_walker_evaluator), on_offer=recorder(logs[0]), **kwargs)
        got = illuminate(segment_walker_evaluator, on_offer=recorder(logs[1]), **kwargs)
        assert save_archive(got) == save_archive(expected)
        assert save_archive(illuminate(segment_walker_evaluator, **kwargs)) == save_archive(expected)
        assert logs[1] == logs[0]
        assert len(logs[1]) == budget

    @settings(max_examples=200, deadline=None)
    @given(
        joint=st.integers(0, WALKER_JOINTS - 1),
        noise_variance=st.sampled_from([0.0, 1e-6, 0.01, 0.5]),
        seed=st.integers(0, 2**32 - 1),
        behaviors=st.lists(
            st.one_of(
                st.lists(joint_offsets, min_size=WALKER_JOINTS, max_size=WALKER_JOINTS),
                st.lists(st.integers(-1, 1), min_size=WALKER_JOINTS, max_size=WALKER_JOINTS),
            ),
            min_size=1,
            max_size=12,
        ),
        as_arrays=st.booleans(),
    )
    def test_frozen_joint_world_matches_the_numpy_formula(
        self, joint, noise_variance, seed, behaviors, as_arrays
    ):
        world = make_segment_walker_world(FrozenJointDamage(joint), noise_variance, seed)
        commanded = [np.array(b) if as_arrays else b for b in behaviors]
        before = [np.copy(b) for b in commanded]
        for behavior, (pose, observed) in zip(
            commanded, frozen_walker_execute(joint, noise_variance, seed, behaviors)
        ):
            assert world.execute(behavior).tobytes() == observed.tobytes()
            assert world.pose.tobytes() == pose.tobytes()
        for behavior, copy in zip(commanded, before):   # the caller's behaviors stay as they were
            np.testing.assert_array_equal(behavior, copy)


class TestDescriptor:
    def test_rightward_full_step(self):
        descriptors, _, _ = segment_walker_evaluator([[0.0] * WALKER_JOINTS])
        np.testing.assert_allclose(descriptors, [[0.5, 1.0]])

    def test_leftward_half_step(self):
        descriptors, performances, _ = segment_walker_evaluator([[1.0, 1.0, 0.5, -0.5]])
        np.testing.assert_allclose(descriptors, [[1.0, 0.5]])
        np.testing.assert_allclose(performances, [0.05])

    def test_descriptors_lie_in_the_unit_square(self):
        behaviors = np.random.default_rng(9).uniform(-1.0, 1.0, size=(500, WALKER_JOINTS))
        descriptors, _, _ = segment_walker_evaluator(behaviors)
        assert descriptors.shape == (500, 2)
        assert ((descriptors >= 0.0) & (descriptors <= 1.0)).all()

    def test_a_magnitude_rounded_past_the_intact_step_is_clamped(self):
        # four joints at 1e-8: the leg sums round the magnitude up to 0.10000000000000002
        descriptors, performances, _ = segment_walker_evaluator([[1e-8] * WALKER_JOINTS, [0.0] * WALKER_JOINTS])
        assert performances[0] > WALKER_JOINTS * WALKER_SEGMENT_STEP
        assert descriptors[:, 1].tolist() == [1.0, 1.0]

    def test_the_magnitude_is_scaled_by_the_walkers_own_step(self, monkeypatch):
        # the descriptor reads the walker's legs, not the point robot's step
        behaviors = np.random.default_rng(3).uniform(-1.0, 1.0, size=(50, WALKER_JOINTS))
        expected = segment_walker_evaluator(behaviors)
        monkeypatch.setattr(sela.worlds, "POINT_ROBOT_STEP", 0.2)
        for got, want in zip(segment_walker_evaluator(behaviors), expected):
            assert got.tobytes() == want.tobytes()

    def test_evaluator_consistency(self):
        u = np.array([0.2, -0.4, 0.8, 0.0])
        descriptors, performances, outcomes = segment_walker_evaluator([u])
        np.testing.assert_array_equal(outcomes[0], segment_walker_model(u))
        assert performances[0] == pytest.approx(np.linalg.norm(outcomes[0]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.lists(joint_offsets, min_size=WALKER_JOINTS, max_size=WALKER_JOINTS),
            st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, math.nan]),
                     min_size=WALKER_JOINTS, max_size=WALKER_JOINTS),
        ),
        min_size=1, max_size=70,
    ))
    def test_each_row_is_bit_identical_to_its_definition(self, rows):
        # the suite turns warnings into errors, so NaN rows give NaN silently
        descriptors, performances, outcomes = segment_walker_evaluator(rows)
        assert descriptors.shape == outcomes.shape == (len(rows), 2) and performances.shape == (len(rows),)
        for u, descriptor, performance, outcome in zip(rows, descriptors, performances.tolist(), outcomes):
            if math.isnan(sum(u)):
                assert np.isnan(descriptor).all() and np.isnan(outcome).all() and math.isnan(performance)
                continue
            model = segment_walker_model(u)
            expected = frozen_walker_evaluator(u)
            assert outcome.tobytes() == model.tobytes() == expected[2].tobytes()
            assert descriptor.tobytes() == expected[0].tobytes()
            assert repr(performance) == repr(expected[1])


class TestSamplersAndGoal:
    def test_point_robot_sampler_range(self):
        rng = np.random.default_rng(21)
        draws = np.array([sample_point_robot_behavior(rng)[0] for _ in range(500)])
        assert draws.min() >= -math.pi
        assert draws.max() <= math.pi
        assert draws.std() > 1.0  # spread out, not collapsed

    def test_walker_sampler_range(self):
        rng = np.random.default_rng(22)
        draws = np.array([sample_walker_behavior(rng) for _ in range(500)])
        assert draws.shape == (500, WALKER_JOINTS)
        assert draws.min() >= -1.0
        assert draws.max() <= 1.0

    def test_goal_reached_boundary(self):
        # dyadic values keep the distance exactly on the threshold
        assert goal_reached([1.875, 2.0], [2.0, 2.0], 0.125)
        assert goal_reached([1.95, 2.0], [2.0, 2.0], 0.1)
        assert not goal_reached([1.85, 2.0], [2.0, 2.0], 0.1)


# Entries from 1e-200 to 1e200 of either sign, and zero: squares underflow to
# zero, stay normal, or overflow to inf.
entries = st.one_of(
    st.just(0.0),
    st.builds(lambda m, s: m * s, st.floats(1e-200, 1e200), st.sampled_from([1.0, -1.0])),
)


class TestVectorLength:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(entries, min_size=1, max_size=9))
    def test_equals_numpy_norm_bit_for_bit(self, values):
        d = np.array(values)
        with np.errstate(over="ignore"):
            assert vector_length(d).hex() == float(np.linalg.norm(d)).hex()

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(entries, entries), st.tuples(entries, entries), st.floats(0.0, 1e200))
    def test_goal_test_equals_the_numpy_norm_rule(self, pose, goal, epsilon):
        with np.errstate(over="ignore"):
            expected = float(np.linalg.norm(np.asarray(pose) - np.asarray(goal))) <= epsilon
            assert goal_reached(pose, goal, epsilon) == expected

    def test_overflow_gives_inf_and_the_same_warning(self):
        d = np.array([1e200, 3.0])
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert np.linalg.norm(d) == math.inf
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert vector_length(d) == math.inf
