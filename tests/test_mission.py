"""Mission control: drop detection, the semi-episodic adaptation loop, and
the episodic baselines, all on the point-robot world where step counts have
closed-form expectations."""

import math
from dataclasses import replace

import numpy as np
import pytest

from sela.acquisition import AcquisitionConfig, CandidateSet
from sela import gp, mission
from sela.gp import (
    CandidatePosterior,
    DistanceKind,
    Kernel,
    KernelFamily,
    ObservationSet,
    fit,
    kernel_matrix,
    predict,
    predict_batch,
    prior_values,
)
from sela.mission import (
    DropDetectorConfig,
    Method,
    MissionConfig,
    MissionState,
    RunRecord,
    baseline_babbling,
    baseline_episodic_ite,
    baseline_uncertainty,
    run_method,
    run_mission,
    sela_adapt,
    window_error,
)
from sela.reward import PlannerGrid
from sela.worlds import (
    AngleOffsetDamage,
    apply_damage,
    make_point_robot_world,
    point_robot_intact,
    point_robot_prior,
    sample_point_robot_behavior,
)

GOAL = (2.0, 2.0)
# shortest waypoint-chasing route across the diagonal: ceil((2*sqrt(2) - 0.1) / 0.1)
DIRECT_STEPS = 28


def damaged_prior(x):
    """Prior that already knows about the +0.5 offset on positive angles."""
    performed = apply_damage(AngleOffsetDamage(0.5), x)
    return point_robot_intact(float(performed[0]))


def point_config(
    damage=None,
    noise_variance=0.0,
    seed=0,
    step_cap=500,
    prior=point_robot_prior,
    adapt_iterations=10,
):
    return MissionConfig(
        world=make_point_robot_world(damage, noise_variance, seed),
        candidates=CandidateSet.dense_theta_grid(),
        prior=prior,
        kernel=Kernel(KernelFamily.SQUARED_EXPONENTIAL, 0.1, DistanceKind.WRAPPED_ANGULAR),
        gp_noise=0.001,
        goal=np.array(GOAL),
        epsilon_goal=0.1,
        grid=PlannerGrid.for_mission((0.0, 0.0), GOAL),
        lookahead_cells=2,
        acquisition=AcquisitionConfig(alpha=0.05),
        drop=DropDetectorConfig(),
        max_adapt_iterations=adapt_iterations,
        step_cap=step_cap,
        seed=seed,
        rng=np.random.default_rng(seed),
        behavior_sampler=sample_point_robot_behavior,
    )


def drops(errors, config=DropDetectorConfig()):
    """The mission's drop check: window error strictly above the threshold,
    over the last `config.window` prediction errors."""
    return window_error(errors[-config.window:]) > config.threshold


class TestDropDetector:
    def test_sustained_error_trips(self):
        recent = [0.2, 0.2, 0.2]
        assert window_error(recent) == pytest.approx(0.2)
        assert drops(recent)

    def test_single_spike_does_not_trip(self):
        recent = [0.2, 0.0, 0.0]  # mean 0.0667
        assert not drops(recent)

    def test_only_last_window_counts(self):
        recent = [1.0, 0.2, 0.0, 0.0]
        assert not drops(recent, DropDetectorConfig(window=3))
        assert drops(recent, DropDetectorConfig(window=4))

    def test_single_pair_window(self):
        assert drops([0.2])
        assert not drops([0.1])

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            window_error([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DropDetectorConfig(window=0)
        with pytest.raises(ValueError):
            DropDetectorConfig(threshold=0.0)


class TestRunRecord:
    def test_totals_must_add_up(self):
        with pytest.raises(ValueError):
            RunRecord(Method.SELA, 3, 4, 8, True, 0)

    def test_valid_record(self):
        record = RunRecord(Method.SELA, 3, 4, 7, True, 0)
        assert record.total_steps == 7

    def test_method_values_round_trip(self):
        for method in Method:
            assert Method(method.value) is method


class TestMissionState:
    def test_learn_refits_with_the_models_kernel_and_prior(self):
        kernel = Kernel(KernelFamily.EXPONENTIAL, 0.3, DistanceKind.WRAPPED_ANGULAR)
        observations = ObservationSet.empty(1, 2, 0.001)
        state = MissionState(point_config(), fit(observations, kernel, damaged_prior))
        state.learn([0.5], [0.0, 0.1])
        assert len(state.model.observations) == 1
        assert state.model.kernel is kernel
        assert state.model.prior is damaged_prior
        want = fit(state.model.observations, kernel, damaged_prior)
        np.testing.assert_array_equal(state.model.prior_correction, want.prior_correction)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_recent_holds_exactly_the_drop_window(self, window):
        # window_error averages all of `recent`, so its bound is the window
        config = replace(point_config(), drop=DropDetectorConfig(window=window))
        state = mission._fresh_state(config, config.prior)
        assert state.recent.maxlen == config.drop.window

    def test_per_mission_caches_match_a_fresh_computation(self, monkeypatch):
        # after a SELA run and a babbling run, the posterior's cross-kernel
        # and prior at the candidates, and the model's Cholesky factor and
        # prior values, grown one observation at a time, equal the ones
        # computed from the final inputs
        states = []
        fresh_state = mission._fresh_state

        def recording_fresh_state(*args):
            states.append(fresh_state(*args))
            return states[-1]

        monkeypatch.setattr(mission, "_fresh_state", recording_fresh_state)
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=3)
        assert run_mission(config).learn_steps > 1
        babbling = point_config(damage=AngleOffsetDamage(0.5), seed=3)
        assert baseline_babbling(babbling).learn_steps > 1
        for state in states:
            inputs = state.model.observations.inputs
            posterior = state.posterior
            points = posterior.points
            kernel, prior = state.model.kernel, state.model.prior
            posterior.score(state.model)   # catch up with the last learn
            np.testing.assert_array_equal(posterior.cross, kernel_matrix(kernel, inputs, points))
            scratch = fit(state.model.observations, kernel, prior)
            np.testing.assert_array_equal(state.model.chol, scratch.chol)
            np.testing.assert_array_equal(state.model.prior_at_inputs, prior_values(prior, inputs))
            np.testing.assert_array_equal(posterior.prior_means, prior_values(prior, points))


class TestCandidateScoring:
    """The mission's CandidatePosterior scores each fitted model once, and
    exactly."""

    def test_posterior_equals_a_fresh_prediction_after_every_learn(self, monkeypatch):
        checked = []
        learn = MissionState.learn

        def checking_learn(state, behavior, observed):
            learn(state, behavior, observed)
            means, sigma = state.posterior.score(state.model)
            want_means, want_variances = predict_batch(state.model, state.posterior.points)
            np.testing.assert_array_equal(means, want_means)
            np.testing.assert_array_equal(sigma, np.sqrt(2 * want_variances))
            checked.append(len(state.model.observations))

        monkeypatch.setattr(MissionState, "learn", checking_learn)
        sela = run_mission(point_config(AngleOffsetDamage(0.5), noise_variance=0.01, seed=3))
        babbling = baseline_babbling(point_config(AngleOffsetDamage(0.5), seed=3))
        assert sela.learn_steps > 1 and babbling.learn_steps > 1
        assert len(checked) == sela.learn_steps + babbling.learn_steps

    def record_scoring(self, monkeypatch):
        """Wrap predict_batch and the posterior arithmetic; returns the
        query sizes of predict_batch and (model, size) per posterior."""
        batches, posteriors = [], []
        predict_batch, posterior = gp.predict_batch, gp._posterior

        def counting_predict_batch(model, points):
            batches.append(len(points))
            return predict_batch(model, points)

        def counting_posterior(model, prior_means, *args):
            posteriors.append((model, len(prior_means)))
            return posterior(model, prior_means, *args)

        monkeypatch.setattr(gp, "predict_batch", counting_predict_batch)
        monkeypatch.setattr(gp, "_posterior", counting_posterior)
        return batches, posteriors

    def test_nominal_steps_with_an_unchanged_model_are_not_scored_again(self, monkeypatch):
        # the intact robot never adapts, so its model stays the empty one:
        # the candidates are scored once, and each chosen behavior's
        # prediction comes from that score, with no predict_batch call
        batches, posteriors = self.record_scoring(monkeypatch)
        record = run_mission(point_config())
        assert record.learn_steps == 0 and record.exec_steps == DIRECT_STEPS
        assert batches == []
        assert [size for _, size in posteriors] == [360]

    def test_each_model_is_scored_once(self, monkeypatch):
        # with adaptation and a noisy world: one candidate scoring per model
        # that a selection met, however many selections met it
        selected = []
        select = mission.select_next

        def recording_select(posterior, model, reward, acquisition):
            selected.append(model)
            return select(posterior, model, reward, acquisition)

        monkeypatch.setattr(mission, "select_next", recording_select)
        _, posteriors = self.record_scoring(monkeypatch)
        config = point_config(AngleOffsetDamage(0.5), noise_variance=0.01, seed=3)
        assert run_mission(config).learn_steps > 1
        scored = [model for model, size in posteriors if size == 360]
        assert len(scored) == len({id(model) for model in selected}) < len(selected)


class TestPredictedOutcomes:
    def test_every_prediction_equals_predict(self, monkeypatch):
        # SELA's steps predict from the scored posterior (mean_at), babbling
        # and the episodic repertoire with predict; each prediction equals
        # predict's mean bit for bit. Each prediction is recorded where the
        # drop detector forms its error, and that error is |observed - predicted|.
        made, formed = {}, []   # id(predicted) -> (predicted, model, behavior)
        mean_at, predict_outcome = CandidatePosterior.mean_at, mission.predict
        record_error = MissionState.record_error

        def recording_mean_at(posterior, model, index):
            predicted = mean_at(posterior, model, index)
            made[id(predicted)] = (predicted, model, posterior.points[index])
            return predicted

        def recording_predict(model, behavior):
            predicted, variance = predict_outcome(model, behavior)
            made[id(predicted)] = (predicted, model, np.copy(behavior))
            return predicted, variance

        def recording_record_error(state, predicted, observed):
            formed.append(predicted)
            error = record_error(state, predicted, observed)
            assert state.recent[-1] == float(np.linalg.norm(observed - predicted))
            return error

        monkeypatch.setattr(CandidatePosterior, "mean_at", recording_mean_at)
        monkeypatch.setattr(mission, "predict", recording_predict)
        monkeypatch.setattr(MissionState, "record_error", recording_record_error)
        damage = AngleOffsetDamage(0.5)
        sela = run_mission(point_config(damage, noise_variance=0.01, seed=3))
        babbling = baseline_babbling(point_config(damage, seed=3))
        episodic = baseline_episodic_ite(point_config(damage, seed=3))
        assert sela.learn_steps > 1 and babbling.learn_steps > 1 and episodic.learn_steps > 4
        # one error per SELA step and per babble, and one repertoire entry per
        # direction; the baselines' greedy drives predict nothing
        assert len(formed) == sela.total_steps + babbling.learn_steps
        assert len(made) == sela.total_steps + babbling.learn_steps + 4
        for predicted in formed:
            assert made[id(predicted)][0] is predicted
        for predicted, model, behavior in made.values():
            assert predicted.tobytes() == predict(model, behavior)[0].tobytes()


class TestSelaAdapt:
    def adapting_state(self, world):
        config = point_config()
        config.world = world
        return mission._fresh_state(config, config.prior)

    def test_each_iteration_is_a_real_task_step(self):
        world = make_point_robot_world(AngleOffsetDamage(0.5), 0.01, seed=2)
        state = self.adapting_state(world)
        before = world.pose
        sela_adapt(state, 1)
        assert state.step_count == 1
        assert len(state.model.observations) == 1
        assert not np.array_equal(world.pose, before)

    def test_recovery_stops_early(self):
        # accurate model: first iteration already predicts perfectly
        state = self.adapting_state(make_point_robot_world())
        sela_adapt(state, 10)
        assert len(state.model.observations) == 1

    def test_goal_stops_immediately(self):
        world = make_point_robot_world(start=GOAL)
        state = self.adapting_state(world)
        sela_adapt(state, 10)
        assert len(state.model.observations) == 0


class TestRunMission:
    def test_intact_robot_takes_direct_route(self):
        record = run_mission(point_config())
        assert record.reached
        assert record.learn_steps == 0
        assert record.exec_steps == DIRECT_STEPS
        assert record.total_steps == DIRECT_STEPS

    def test_damage_matching_prior_never_adapts(self):
        config = point_config(damage=AngleOffsetDamage(0.5), prior=damaged_prior)
        record = run_mission(config)
        assert record.reached
        assert record.learn_steps == 0
        assert record.total_steps == DIRECT_STEPS

    def test_damage_triggers_adaptation_and_recovers(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=0)
        record = run_mission(config)
        assert record.reached
        assert record.learn_steps >= 1
        assert record.learn_steps + record.exec_steps == record.total_steps
        assert record.total_steps < 200

    def test_learning_never_resets_the_pose(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=1)
        resets = []
        original = config.world.reset_pose
        config.world.reset_pose = lambda pose: (resets.append(1), original(pose))
        record = run_mission(config)
        assert resets == []
        assert record.reached

    def test_step_cap_is_hard(self):
        record = run_mission(point_config(step_cap=10))
        assert not record.reached
        assert record.total_steps == 10
        assert record.exec_steps == 10

    def test_reversed_actuation_hits_the_cap(self):
        # commands above zero land backwards, so every performed direction
        # points down or sideways; the cap is below any feasible route
        damage = AngleOffsetDamage(math.pi)
        config = point_config(damage=damage, noise_variance=0.01, seed=12, step_cap=25)
        record = run_mission(config)
        assert not record.reached
        assert record.total_steps == 25
        assert record.learn_steps >= 1

    def test_cap_binds_during_adaptation_too(self):
        config = point_config(
            damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=3, step_cap=12
        )
        record = run_mission(config)
        assert record.total_steps <= 12

    def test_deterministic_given_seed(self):
        a = run_mission(point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=4))
        b = run_mission(point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=4))
        assert (a.learn_steps, a.exec_steps, a.reached) == (b.learn_steps, b.exec_steps, b.reached)


class TestBaselineBabbling:
    def test_babbles_reset_the_pose(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=5)
        resets = []
        original = config.world.reset_pose
        config.world.reset_pose = lambda pose: (resets.append(1), original(pose))
        record = baseline_babbling(config)
        assert len(resets) == record.learn_steps

    def test_learning_capped_at_babble_max(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=6)
        record = baseline_babbling(config)
        assert 1 <= record.learn_steps <= config.babble_max

    def test_zero_prior_by_default_costs_more_than_sela(self):
        sela = run_mission(
            point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=7)
        )
        babble = baseline_babbling(
            point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=7)
        )
        assert babble.total_steps > sela.total_steps


class TestBaselineEpisodic:
    def test_perfect_prior_needs_one_trial_per_direction(self):
        record = baseline_episodic_ite(point_config())
        assert record.method is Method.EPISODIC_ITE
        assert record.learn_steps == 4
        assert record.reached
        # bang-bang on cardinal steps: about 40 to cross (2, 2)
        assert 38 <= record.exec_steps <= 41

    def test_learning_bounded_by_four_episodes(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=8)
        record = baseline_episodic_ite(config)
        assert record.learn_steps <= 4 * config.max_adapt_iterations

    def test_trials_reset_the_pose(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=9)
        resets = []
        original = config.world.reset_pose
        config.world.reset_pose = lambda pose: (resets.append(1), original(pose))
        record = baseline_episodic_ite(config)
        assert len(resets) == record.learn_steps


class TestBaselineUncertainty:
    def test_uses_exactly_the_trial_budget(self):
        config = point_config()
        record = baseline_uncertainty(config)
        assert record.method is Method.UNCERTAINTY
        assert record.learn_steps == config.uncertainty_iterations == 15
        assert record.reached

    def test_trials_reset_the_pose(self):
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=10)
        resets = []
        original = config.world.reset_pose
        config.world.reset_pose = lambda pose: (resets.append(1), original(pose))
        record = baseline_uncertainty(config)
        assert len(resets) == 15
        assert record.learn_steps == 15


class TestRunMethod:
    def test_dispatch_matches_direct_calls(self):
        for method in Method:
            record = run_method(method, point_config(seed=11))
            assert record.method is method
            assert record.total_steps == record.learn_steps + record.exec_steps
