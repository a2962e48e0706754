"""Mission control: drop detection, the semi-episodic adaptation loop, and
the episodic baselines, all on the point-robot world where step counts have
closed-form expectations."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sela.acquisition import CandidateSet
from sela import experiment, gp, mission
from sela.gp import (
    CandidatePosterior,
    DistanceKind,
    Kernel,
    KernelFamily,
    ObservationSet,
    fit,
    kernel_matrix,
    predict,
    prior_values,
)
from sela.mission import (
    Method,
    MissionConfig,
    MissionState,
    RunRecord,
    baseline_babbling,
    baseline_episodic_ite,
    baseline_uncertainty,
    run_method,
    run_mission,
)
from sela.config import ExperimentConfig
from sela.experiment import build_archive, build_mission_config, run_experiment
from sela.map_elites import illuminate
from sela.reward import PlannerGrid
from sela.worlds import (
    AngleOffsetDamage,
    World,
    apply_damage,
    make_point_robot_world,
    point_robot_intact,
    point_robot_prior,
    sample_point_robot_behavior,
)
from test_gp import (
    MEAN_BOUND,
    assert_near_textbook,
    assert_same_posterior,
    assert_scores_as_a_posterior_of,
    counting_scores,
)

GOAL = (2.0, 2.0)
# on GOAL's point-robot grid, a wall across y = 1 from the left edge to x = 2.5
WALL = frozenset((x, 20) for x in range(35))
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
        max_adapt_iterations=adapt_iterations,
        step_cap=step_cap,
        seed=seed,
        rng=np.random.default_rng(seed),
        behavior_sampler=sample_point_robot_behavior,
    )


def window_error(errors, window=MissionConfig.drop_window):
    """The window error `MissionState.record_error` returns after the
    prediction errors `errors`, one step each."""
    state = MissionState(replace(point_config(), drop_window=window))
    for error in errors:
        window = state.record_error(np.zeros(2), np.array([error, 0.0]))
    return window


def drops(errors, window=MissionConfig.drop_window):
    """The mission's drop check: window error strictly above the default threshold,
    over the last `window` prediction errors."""
    return window_error(errors, window) > MissionConfig.drop_threshold


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
        assert not drops(recent, window=3)
        assert drops(recent, window=4)

    def test_single_pair_window(self):
        assert drops([0.2])
        assert not drops([0.1])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=30, max_size=30))
    def test_window_mean_equals_numpy_mean_bit_for_bit(self, errors):
        # every window length from 1 to 30 at every fill level; from 8 values
        # on, np.mean sums pairwise, and the window mean keeps those bits too
        state = MissionState(point_config())
        for window in range(1, 31):
            state.recent = deque(maxlen=window)
            for error in errors:
                mean = state.record_error(np.zeros(2), np.array(error))
                assert mean.hex() == float(np.mean(state.recent)).hex()

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.just(0.0) | st.builds(lambda m, e: m * 10.0**e, st.floats(0.0, 10.0), st.integers(-100, 100)),
                    min_size=14, max_size=14))
    def test_window_mean_of_norms_across_magnitudes_equals_numpy_mean(self, norms):
        # below 8 errors the window mean adds Python floats in order, from 8 on
        # numpy's pairwise reduce runs; both give np.mean's bits, windows 1-12
        state = MissionState(point_config())
        for window in range(1, 13):
            state.recent = deque(maxlen=window)
            for norm in norms:
                mean = state.record_error(np.zeros(2), np.array([norm, 0.0]))
                assert math.isfinite(mean) and mean.hex() == float(np.mean(state.recent)).hex()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            replace(point_config(), drop_window=0)
        with pytest.raises(ValueError):
            replace(point_config(), drop_threshold=0.0)


class TestDirectConstruction:
    @pytest.mark.parametrize("build, message", [
        (lambda: replace(point_config(), alpha=math.nan), "alpha must be non-negative, got nan"),
        (lambda: replace(point_config(), drop_threshold=math.nan), "threshold must be positive"),
        (lambda: ObservationSet(np.zeros((1, 1)), np.zeros((1, 2)), math.nan), "noise_variance must be non-negative"),
        (lambda: World(point_robot_intact, noise_variance=math.nan), "noise_variance must be non-negative"),
        (lambda: PlannerGrid(math.nan, (0.0, 0.0), (4, 4)), "cell_size must be positive"),
        (lambda: illuminate(lambda behaviors: pytest.fail("evaluated"), 200, 0, -np.ones(4), np.ones(4), (4, 4),
                            mutation_sigma=math.nan), "mutation_sigma must be positive"),
    ], ids=["alpha", "threshold", "observation_noise", "world_noise", "cell_size", "mutation_sigma"])
    def test_nan_rejected(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            replace(point_config(), alpha=-0.01)


class TestRunRecord:
    def test_totals_must_add_up(self):
        with pytest.raises(ValueError):
            RunRecord(Method.SELA, 3, 4, 8, True, 0)

    @pytest.mark.parametrize("counts", [(-5, 33, 28, 0), (3, -1, 2, 0), (0, 0, 0, -1)])
    def test_negative_counts_and_seed_rejected(self, counts):
        learn, execute, total, seed = counts
        with pytest.raises(ValueError, match="non-negative"):
            RunRecord(Method.SELA, learn, execute, total, True, seed)

    def test_valid_record(self):
        record = RunRecord(Method.SELA, 3, 4, 7, True, 0)
        assert record.total_steps == 7

    def test_method_values_round_trip(self):
        for method in Method:
            assert Method(method.value) is method


class TestMissionState:
    def test_a_learning_step_grows_the_missions_model_in_place(self):
        # the model, its observation set and the posterior stay the mission's
        # objects; each learning step adds one row to them, with the bits of a new
        # posterior at the candidates that learns the same rows at the same indices
        config = point_config(AngleOffsetDamage(0.5))
        state = MissionState(config)
        posterior = state.posterior
        model, observations = posterior.model, posterior.model.observations
        assert model.kernel is config.kernel and model.prior is config.prior
        assert observations.noise_variance == config.gp_noise and len(observations) == 0
        twin = CandidatePosterior(config.candidates.points, fit(ObservationSet.empty(1, 2, 0.001), model.kernel, model.prior))
        for step, index in enumerate((10, 200, 10), start=1):
            posterior.score()   # as the step's selection does
            state.posterior.learn(config.candidates.points[index], np.array([0.1, -0.05 * step]), index)
            twin.learn(config.candidates.points[index], np.array([0.1, -0.05 * step]), index)
            assert state.posterior is posterior and posterior.model is model
            assert model.observations is observations
            assert len(model.chol) == len(observations) == step
        assert_same_posterior(posterior, twin)
        assert_near_textbook(model)

    def test_learn_refits_with_the_models_kernel_and_prior(self):
        kernel = Kernel(KernelFamily.EXPONENTIAL, 0.3, DistanceKind.WRAPPED_ANGULAR)
        state = MissionState(replace(point_config(), kernel=kernel, prior=damaged_prior))
        state.posterior.learn([0.5], [0.0, 0.1])
        model = state.posterior.model
        assert len(model.observations) == 1
        assert model.kernel is kernel
        assert model.prior is damaged_prior
        want = fit(model.observations, kernel, damaged_prior)
        np.testing.assert_array_equal(model.z, want.z)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_recent_holds_exactly_the_drop_window(self, window):
        # record_error averages all of `recent`, so its bound is the window
        config = replace(point_config(), drop_window=window)
        state = MissionState(config)
        assert state.recent.maxlen == config.drop_window

    def test_a_window_longer_than_the_mission_holds_every_error(self):
        # no mission makes more than step_cap errors, so a longer window, even
        # one past any deque length, averages them all, as a step_cap window does
        records = [
            run_mission(replace(point_config(AngleOffsetDamage(0.5), 0.01, seed=3, step_cap=30),
                                drop_window=window))
            for window in (30, 31, 2**63)
        ]
        assert records[0] == records[1] == records[2]
        assert records[0].learn_steps > 0

    def test_per_mission_caches_match_a_fresh_computation(self, monkeypatch):
        # after a SELA run and a babbling run, the posterior's cross-kernel
        # and prior at the candidates equal the ones computed from the final
        # inputs, and the model's Cholesky factor and z, grown one observation
        # at a time, lie near a textbook fit of them
        states, post_init = [], MissionState.__post_init__

        def recording_post_init(state):
            post_init(state)
            states.append(state)

        monkeypatch.setattr(MissionState, "__post_init__", recording_post_init)
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=3)
        assert run_mission(config).learn_steps > 1
        babbling = point_config(damage=AngleOffsetDamage(0.5), seed=3)
        assert baseline_babbling(babbling).learn_steps > 1
        assert len(states) == 2
        for state in states:
            posterior = state.posterior
            model, points = posterior.model, posterior.points
            inputs, kernel, prior = model.observations.inputs, model.kernel, model.prior
            posterior.score()   # catch up with the last learn
            np.testing.assert_array_equal(posterior.cross, kernel_matrix(kernel, inputs, points))
            assert_near_textbook(model)
            np.testing.assert_array_equal(posterior.prior_means, prior_values(prior, points))

    def test_babbling_alone_learns_on_the_zero_prior_and_every_mission_shares_the_astar_table(
            self, monkeypatch):
        # in a toy experiment, babbling builds its state from a copy of its mission with the
        # zero prior, every other method from its mission; all share the template's grid and A* table
        templates, zeros, methods, states = [], [], [], []
        build, zero_prior = experiment.build_mission_config, mission.zero_prior
        run, post_init = experiment.run_method, MissionState.__post_init__

        def recording_post_init(state):
            post_init(state)
            states.append((methods[-1], state))

        monkeypatch.setattr(experiment, "build_mission_config", lambda *args: templates.append(build(*args)) or templates[-1])
        monkeypatch.setattr(mission, "zero_prior", lambda dim: zeros.append(zero_prior(dim)) or zeros[-1])
        monkeypatch.setattr(experiment, "run_method", lambda method, config: methods.append(method) or run(method, config))
        monkeypatch.setattr(MissionState, "__post_init__", recording_post_init)
        toy = ExperimentConfig(world="point_robot", damage="angle_offset", methods=tuple(Method), replicates=2,
                               step_cap=80)
        run_experiment(toy)
        [template] = templates
        assert [method for method, _ in states] == [method for method in Method for _ in range(2)]
        assert template.grid.waypoints
        for method, state in states:
            prior = state.posterior.model.prior
            assert state.config.grid is template.grid
            assert prior is state.config.prior and state.config.kernel is template.kernel
            if method is Method.BABBLING:
                assert prior in zeros and not state.posterior.prior_means.any()
            else:
                assert prior is template.prior
        assert len(zeros) == 2

    def test_each_mission_derives_the_goal_cell_once(self, monkeypatch):
        # the goal is fixed for a mission, so its planner cell is computed once
        # per mission, not on every step that builds a waypoint reward
        goal_lookups, rewards = [], []
        cell_of, build = PlannerGrid.cell_of, mission.build_waypoint_reward

        def counting_cell_of(grid, point):
            if point is config.goal:
                goal_lookups.append(point)
            return cell_of(grid, point)

        def recording_build(grid, pose, goal, goal_cell, *rest):
            rewards.append(goal_cell)
            return build(grid, pose, goal, goal_cell, *rest)

        monkeypatch.setattr(PlannerGrid, "cell_of", counting_cell_of)
        monkeypatch.setattr(mission, "build_waypoint_reward", recording_build)
        for method in Method:
            goal_lookups.clear()
            rewards.clear()
            config = point_config(damage=AngleOffsetDamage(0.5), seed=4)
            record = run_method(method, config)
            assert len(goal_lookups) == 1
            assert record.total_steps > 1
            # the episodic baseline drives by its repertoire, without waypoints
            assert len(rewards) > 1 or method is Method.EPISODIC_ITE
            assert set(rewards) <= {cell_of(config.grid, config.goal)}

    @pytest.mark.parametrize("changes", [
        lambda template: dict(goal=np.array([-0.5, 1.5])),
        lambda template: dict(lookahead_cells=6),
        # the same cells and goal cell, with a wall: on a new grid, and on a copy of the filled template's
        lambda template: dict(grid=replace(PlannerGrid.for_mission((0.0, 0.0), GOAL), blocked=WALL)),
        lambda template: dict(grid=replace(template.grid, blocked=WALL)),
    ], ids=["goal", "lookahead_cells", "walled_grid", "walled_template_grid"])
    def test_a_copy_with_another_goal_grid_or_lookahead_plans_its_own_waypoints(self, changes):
        # copies of a template share its grid and so its A* table; one that moves the goal, or
        # plans on another grid or lookahead, runs as it would on a table of its own, not on the
        # template's waypoints
        damage = AngleOffsetDamage(0.5)
        template = point_config(damage=damage)
        run_mission(template)
        assert template.grid.waypoints
        changes = changes(template)

        def fresh(**more):
            world = make_point_robot_world(damage, 0.0, 0)
            return replace(template, world=world, rng=np.random.default_rng(0), **{**changes, **more})

        shared = fresh()
        assert shared.grid is changes.get("grid", template.grid)
        # a grid built field by field starts with an empty table, whatever `replace` copies
        grid = shared.grid
        own = PlannerGrid(grid.cell_size, grid.origin, grid.shape, grid.blocked)
        assert run_mission(shared) == run_mission(fresh(grid=own))


# Noisy missions that run to the step cap (the point robot's goal is out of
# reach), so SELA adapts often and learns some candidates more than once.
NOISY_MISSIONS = {
    "point_robot": ExperimentConfig(world="point_robot", damage="angle_offset", noise_variance=0.05,
                                    goal_x=6, goal_y=6, epsilon_goal=1e-9, step_cap=100),
    "segment_walker": ExperimentConfig(world="segment_walker", damage="frozen_joint", noise_variance=0.05,
                                       archive_budget=600, archive_grid=10, step_cap=100),
}


class TestLearningFromTheScore:
    """A learning step takes its new factor row, L^-1 of the kernel column, and its prior
    value from the posterior's rows of the current model; the posterior evaluates a
    candidate's kernel row only the first time the mission learns it."""

    @pytest.mark.parametrize("world, method", [
        ("point_robot", Method.SELA),
        ("point_robot", Method.UNCERTAINTY),
        ("point_robot", Method.EPISODIC_ITE),
        ("segment_walker", Method.SELA),
    ])
    def test_one_kernel_row_per_new_candidate_and_no_prior(self, monkeypatch, world, method):
        # per learning step: (candidate learned before, kernel_matrix calls in
        # the learning step and the scoring after it, prior calls in both)
        config = NOISY_MISSIONS[world]
        archive = build_archive(config) if world == "segment_walker" else None
        config = build_mission_config(config, seed=0, archive=archive)
        calls, priors, steps = [], [], []
        kernel, learn, prior = gp.kernel_matrix, CandidatePosterior.learn, config.prior
        monkeypatch.setattr(gp, "kernel_matrix", lambda *args: calls.append(1) or kernel(*args))

        def counting_learn(posterior, behavior, observed, index=None):
            repeat = np.asarray(behavior).tobytes() in {x.tobytes() for x in posterior.model.observations.inputs}
            calls.clear()
            priors.clear()
            learn(posterior, behavior, observed, index)
            posterior.score()   # as the next selection would
            steps.append((repeat, len(calls), len(priors)))

        monkeypatch.setattr(CandidatePosterior, "learn", counting_learn)
        record = run_method(method, replace(config, prior=lambda x: priors.append(1) or prior(x)))
        assert len(steps) == record.learn_steps > 0
        assert steps == [(repeat, 0 if repeat else 1, 0) for repeat, _, _ in steps]
        if method is Method.SELA:
            assert {repeat for repeat, _, _ in steps} == {False, True}

    @pytest.mark.parametrize("scored", ["an_older_model", "no_model"])
    def test_learn_takes_the_column_from_the_posterior_whether_or_not_it_scored(self, monkeypatch, scored):
        # the posterior's rows grow with every learn, so a learning step at a candidate
        # runs the kernel only for that candidate's row over the candidates, also when
        # the posterior scored the model one row ago, or never
        state = MissionState(point_config())
        points, model = state.posterior.points, state.posterior.model
        kernel = model.kernel
        if scored == "an_older_model":
            state.posterior.score()
        state.posterior.learn(points[10], np.array([0.1, 0.0]), 10)
        calls, kernel_matrix = [], gp.kernel_matrix
        monkeypatch.setattr(gp, "kernel_matrix", lambda k, a, b: calls.append((len(a), len(b))) or kernel_matrix(k, a, b))
        state.posterior.learn(points[20], np.array([0.0, 0.1]), 20)
        assert calls == [(1, 360)]
        monkeypatch.undo()
        twin = CandidatePosterior(points, fit(ObservationSet.empty(1, 2, 0.001), kernel, point_robot_prior))
        twin.learn(points[10], np.array([0.1, 0.0]), 10)
        twin.learn(points[20], np.array([0.0, 0.1]), 20)
        assert_same_posterior(state.posterior, twin)
        assert_near_textbook(model)


class TestCandidateScoring:
    """The mission's CandidatePosterior scores each model size once, with the bits of
    predict_batch of its model at the candidates, a new posterior's score."""

    def test_posterior_equals_a_fresh_prediction_after_every_learn(self, monkeypatch):
        checked = []
        learn = CandidatePosterior.learn

        def checking_learn(posterior, *args):   # SELA passes the candidate index, babbling does not
            learn(posterior, *args)
            model, observations = posterior.model, posterior.model.observations
            assert_scores_as_a_posterior_of(posterior, model)
            assert_near_textbook(model)
            checked.append(len(observations))

        monkeypatch.setattr(CandidatePosterior, "learn", checking_learn)
        sela = run_mission(point_config(AngleOffsetDamage(0.5), noise_variance=0.01, seed=3))
        babbling = baseline_babbling(point_config(AngleOffsetDamage(0.5), seed=3))
        assert sela.learn_steps > 1 and babbling.learn_steps > 1
        assert len(checked) == sela.learn_steps + babbling.learn_steps

    def record_scoring(self, monkeypatch):
        """Wrap predict_batch and CandidatePosterior.score; returns the query sizes of
        predict_batch and ((model, its t), size) per score that computes."""
        batches, predict_batch = [], gp.predict_batch

        def counting_predict_batch(model, points):
            batches.append(len(points))
            return predict_batch(model, points)

        monkeypatch.setattr(gp, "predict_batch", counting_predict_batch)
        return batches, counting_scores(monkeypatch)

    def test_nominal_steps_with_an_unchanged_model_are_not_scored_again(self, monkeypatch):
        # the intact robot never adapts, so its model stays the empty one:
        # the candidates are scored once, and each chosen behavior's
        # prediction comes from that score, with no predict_batch call
        batches, posteriors = self.record_scoring(monkeypatch)
        record = run_mission(point_config())
        assert record.learn_steps == 0 and record.exec_steps == DIRECT_STEPS
        assert batches == []
        assert [size for _, size in posteriors] == [360]

    def test_each_model_is_scored_once_per_size(self, monkeypatch):
        # with adaptation and a noisy world: the mission's one model, grown in
        # place, is scored once per size t that a selection met, however many
        # selections met it
        selected = []
        select = mission.select_next

        def recording_select(posterior, reward, alpha):
            selected.append((posterior.model, len(posterior.model.chol)))
            return select(posterior, reward, alpha)

        monkeypatch.setattr(mission, "select_next", recording_select)
        _, posteriors = self.record_scoring(monkeypatch)
        config = point_config(AngleOffsetDamage(0.5), noise_variance=0.01, seed=3)
        assert run_mission(config).learn_steps > 1
        scored = [state for state, size in posteriors if size == 360]
        assert len({model for model, _ in selected}) == 1
        assert scored == list(dict.fromkeys(selected)) and len(scored) < len(selected)


class TestPredictedOutcomes:
    def test_sela_predicts_the_scores_row_and_the_baselines_predict(self, monkeypatch):
        # SELA's steps predict from the score: the chosen candidate's row of the means,
        # bit for bit, which lies within MEAN_BOUND of predict's mean when it is made (the
        # model grows later); babbling and the episodic repertoire predict with predict.
        # Each prediction is recorded where the drop detector forms its error, and that
        # error is |observed - predicted|.
        made, formed, rows = {}, [], []   # id(predicted) -> predicted; errors' predictions; chosen rows
        select, predict_outcome = mission.select_next, mission.predict
        record_error = MissionState.record_error

        def recording_select(posterior, reward, alpha):
            behavior, index = select(posterior, reward, alpha)
            row = posterior.score()[0][index]
            np.testing.assert_allclose(row, predict(posterior.model, behavior)[0], rtol=0, atol=MEAN_BOUND)
            rows.append(row.tobytes())
            return behavior, index

        def recording_predict(model, behavior):
            predicted, variance = predict_outcome(model, behavior)
            assert predicted.tobytes() == predict(model, behavior)[0].tobytes()
            made[id(predicted)] = predicted
            return predicted, variance

        def recording_record_error(state, predicted, observed):
            formed.append(predicted)
            error = record_error(state, predicted, observed)
            assert state.recent[-1] == float(np.linalg.norm(observed - predicted))
            assert error == float(np.mean(state.recent))
            return error

        monkeypatch.setattr(mission, "select_next", recording_select)
        monkeypatch.setattr(mission, "predict", recording_predict)
        monkeypatch.setattr(MissionState, "record_error", recording_record_error)
        damage = AngleOffsetDamage(0.5)
        sela = run_mission(point_config(damage, noise_variance=0.01, seed=3))
        # one selection and one error per SELA step, no predict
        assert sela.learn_steps > 1 and made == {}
        assert [predicted.tobytes() for predicted in formed] == rows and len(rows) == sela.total_steps
        formed.clear()
        babbling = baseline_babbling(point_config(damage, seed=3))
        episodic = baseline_episodic_ite(point_config(damage, seed=3))
        assert babbling.learn_steps > 1 and episodic.learn_steps > 4
        # one error per babble, and one repertoire entry per direction; the baselines'
        # greedy drives predict nothing
        assert len(formed) == babbling.learn_steps
        assert len(made) == babbling.learn_steps + 4
        for predicted in formed:
            assert made[id(predicted)] is predicted


def frozen_sela_adapt(state, max_iterations):
    """A frozen copy of the adaptation burst as its own loop, from before
    `run_mission` held the burst as a step budget."""
    config = state.config
    for _ in range(max_iterations):
        if state.at_goal():
            break
        behavior, index = mission._chase_waypoint(state, config.alpha)
        predicted = state.posterior.means[index]
        observed = state.execute(behavior)
        state.posterior.learn(behavior, observed, index)
        if state.record_error(predicted, observed) < config.drop_threshold:
            break


def frozen_run_mission(config):
    """A frozen copy of the two-loop SELA mission that called `frozen_sela_adapt`."""
    state = MissionState(config)
    while state.step_count < config.step_cap and not state.at_goal():
        behavior, index = mission._chase_waypoint(state)
        predicted = state.posterior.means[index]
        observed = state.execute(behavior)
        if state.record_error(predicted, observed) > config.drop_threshold:
            frozen_sela_adapt(state, min(config.max_adapt_iterations, config.step_cap - state.step_count))
    return mission._record(Method.SELA, state)


def sela_steps(config, run=run_mission):
    """Run a SELA mission; return its record and, per step, the chosen
    candidate's index, the selection's alpha, whether the step learned, and
    the window error."""
    steps = []
    select, learn, record_error = mission.select_next, CandidatePosterior.learn, MissionState.record_error

    def recording_select(posterior, reward, alpha):
        behavior, index = select(posterior, reward, alpha)
        steps.append([index, alpha, False, None])
        return behavior, index

    def recording_learn(posterior, *args):
        steps[-1][2] = True
        return learn(posterior, *args)

    def recording_record_error(state, predicted, observed):
        steps[-1][3] = record_error(state, predicted, observed)
        return steps[-1][3]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mission, "select_next", recording_select)
        patch.setattr(CandidatePosterior, "learn", recording_learn)
        patch.setattr(MissionState, "record_error", recording_record_error)
        record = run(config)
    assert len(steps) == record.total_steps
    assert sum(learned for _, _, learned, _ in steps) == record.learn_steps
    return record, [tuple(step) for step in steps]


def adapting_config(threshold=0.03, adapt_iterations=10, step_cap=500, noise_variance=0.0, window=1):
    """A noise-free robot with a 0.5 rad offset that its prior misses: every
    step's error is about 0.05 until the model learns the offset."""
    config = point_config(AngleOffsetDamage(0.5), noise_variance, step_cap=step_cap,
                          adapt_iterations=adapt_iterations)
    return replace(config, drop_window=window, drop_threshold=threshold)


def phases(steps):
    """One letter per step: "n" nominal (greedy, learns nothing), "a" adapting (UCB, learns)."""
    assert all((alpha == 0.0) is (not learned) for _, alpha, learned, _ in steps)
    return "".join("a" if learned else "n" for _, _, learned, _ in steps)


class TestSelaLoop:
    """One loop: a drop opens a burst of adaptation steps, which chase by UCB
    and learn; recovery or the burst's budget closes it."""

    @settings(max_examples=100, deadline=None)
    @given(
        window=st.integers(1, 4),
        threshold=st.floats(0.005, 0.3),
        adapt_iterations=st.integers(1, 12),
        step_cap=st.integers(1, 60),
        noise_variance=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
        offset=st.sampled_from([0.0, 0.5, 1.5, math.pi]),
        seed=st.integers(0, 1000),
    )
    def test_equals_the_two_loop_mission(self, window, threshold, adapt_iterations, step_cap,
                                         noise_variance, offset, seed):
        def config():
            built = point_config(AngleOffsetDamage(offset), noise_variance, seed, step_cap,
                                 adapt_iterations=adapt_iterations)
            return replace(built, drop_window=window, drop_threshold=threshold)

        one, frozen = config(), config()
        assert sela_steps(one) == sela_steps(frozen, frozen_run_mission)
        assert one.world.pose.tobytes() == frozen.world.pose.tobytes()

    def test_recovery_closes_the_burst(self):
        record, steps = sela_steps(adapting_config())
        assert record.reached
        # the first step's error opens a burst, whose fifth step recovers
        # under its budget of 10; the next step is greedy and learns nothing
        assert phases(steps)[:8] == "naaaaann"
        assert steps[0][3] > 0.03 and steps[5][3] < 0.03

    def test_a_burst_ends_at_its_budget_and_a_later_drop_opens_another(self):
        record, steps = sela_steps(adapting_config(adapt_iterations=3))
        assert record.reached
        assert phases(steps)[:9] == "naaanaaan"
        assert min(error for _, _, _, error in steps[:7]) > 0.03

    def test_the_goal_ends_the_mission_mid_burst(self):
        # no prediction recovers under a tiny threshold, so the burst that
        # the first step opens runs until the goal, inside its budget
        record, steps = sela_steps(adapting_config(threshold=1e-9, adapt_iterations=100, noise_variance=0.01))
        assert record.reached
        assert phases(steps) == "n" + "a" * (record.total_steps - 1)
        assert record.total_steps < 100

    def test_a_mission_at_the_goal_takes_no_step(self):
        config = adapting_config()
        config.world = make_point_robot_world(AngleOffsetDamage(0.5))
        config.world.reset_pose(GOAL)
        record, steps = sela_steps(config)
        assert record.reached and steps == []

    @pytest.mark.parametrize("step_cap", [1, 2, 4, 6])
    def test_a_burst_never_runs_past_the_step_cap(self, step_cap):
        record, steps = sela_steps(adapting_config(step_cap=step_cap))
        assert not record.reached
        assert phases(steps) == "n" + "a" * (step_cap - 1)


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

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_each_trial_picks_the_largest_sigma_whatever_alpha(self, monkeypatch, alpha):
        # at alpha = 0 the zero reward alone would score every candidate 0, and
        # the lowest index would win every trial
        picks, select = [], mission.select_next

        def recording_select(posterior, reward, alpha):
            behavior, index = select(posterior, reward, alpha)
            picks.append((index, int(posterior.score()[1].argmax())))
            return behavior, index

        monkeypatch.setattr(mission, "select_next", recording_select)
        config = point_config(damage=AngleOffsetDamage(0.5), noise_variance=0.01, seed=10)
        record = baseline_uncertainty(replace(config, alpha=alpha))
        trials = picks[:config.uncertainty_iterations]   # the drive's greedy chase follows
        assert record.learn_steps == len(trials) == 15
        assert [index for index, _ in trials] == [largest for _, largest in trials]


class TestRunMethod:
    def test_dispatch_matches_direct_calls(self):
        for method in Method:
            record = run_method(method, point_config(seed=11))
            assert record.method is method
            assert record.total_steps == record.learn_steps + record.exec_steps
