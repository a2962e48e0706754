"""Acceptance suite: ten numbered criteria, one test per criterion so that
`pytest -v` prints exactly one pass/fail line for each. Tolerances and
runtime budgets are pinned inside each test. The two replicated experiments
and the 50,000-evaluation archive build run once as module fixtures and are
shared by the criteria that grade them."""

import math
import time
from collections import deque

import numpy as np
import pytest

from sela.acquisition import CandidateSet
from sela.config import ExperimentConfig
from sela.experiment import build_archive, run_experiment, runs_csv_text
from sela.gp import (
    DistanceKind,
    Kernel,
    KernelFamily,
    ObservationSet,
    fit,
    kernel_matrix,
    predict,
    predict_batch,
    prior_values,
    zero_prior,
)
from sela.map_elites import OfferResult
from sela.mission import (
    Method,
    MissionConfig,
    baseline_babbling,
    run_mission,
)
from sela.reward import PlannerGrid, astar
from sela.worlds import (
    apply_damage,
    AngleOffsetDamage,
    make_point_robot_world,
    point_robot_intact,
    point_robot_prior,
    sample_point_robot_behavior,
)

DIRECT_STEPS = 28  # ceil((2*sqrt(2) - 0.1) / 0.1) unit steps across the diagonal

TOY = ExperimentConfig(
    world="point_robot",
    damage="angle_offset",
    methods=(Method.SELA, Method.BABBLING, Method.EPISODIC_ITE),
    replicates=50,
)

WALKER = ExperimentConfig(
    world="segment_walker",
    damage="frozen_joint",
    methods=(Method.SELA, Method.UNCERTAINTY, Method.EPISODIC_ITE),
    replicates=50,
)


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def toy_experiment():
    started = time.perf_counter()
    records, summary = run_experiment(TOY)
    return {
        "records": records,
        "summary": summary,
        "elapsed": time.perf_counter() - started,
        "runs_text": runs_csv_text(records, TOY.world),
    }


@pytest.fixture(scope="module")
def walker_archive_build():
    offers = []
    started = time.perf_counter()
    archive = build_archive(WALKER, on_offer=lambda cell, elite, result: offers.append((cell, elite, result)))
    return {
        "archive": archive,
        "offers": offers,
        "elapsed": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def walker_experiment(walker_archive_build):
    started = time.perf_counter()
    records, summary = run_experiment(WALKER, archive=walker_archive_build["archive"])
    return {
        "records": records,
        "summary": summary,
        "elapsed": time.perf_counter() - started,
        "runs_text": runs_csv_text(records, WALKER.world),
    }


# ----------------------------------------------------------------- helpers


def brute_force_predict(kernel, observations, prior, query):
    """Explicit-inverse reference for the posterior at one point."""
    X, Y = observations.inputs, observations.outputs
    K = kernel_matrix(kernel, X, X) + observations.noise_variance * np.eye(len(X))
    K_inv = np.linalg.inv(K)
    k_q = kernel_matrix(kernel, X, query[None, :])[:, 0]
    residuals = Y - prior_values(prior, X)
    mean = np.asarray(prior(query), dtype=float) + k_q @ K_inv @ residuals
    variance = 1.0 - float(k_q @ K_inv @ k_q)
    return mean, variance


def random_gp_instance(rng, family, distance, behavior_dim):
    kernel = Kernel(family, sigma=float(rng.uniform(0.1, 1.0)), distance=distance)
    t = int(rng.integers(1, 6))
    inputs = rng.uniform(-math.pi, math.pi, size=(t, behavior_dim))
    outputs = rng.normal(scale=0.1, size=(t, 2))
    observations = ObservationSet(inputs=inputs, outputs=outputs, noise_variance=0.001)
    return kernel, observations


def bfs_lengths(shape, blocked, start, goal):
    """Optimal 4-connected path length in cells, or None when unreachable."""
    if goal in blocked:
        return None
    frontier = deque([start])
    dist = {start: 1}
    while frontier:
        cell = frontier.popleft()
        if cell == goal:
            return dist[cell]
        x, y = cell
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (
                0 <= nxt[0] < shape[0]
                and 0 <= nxt[1] < shape[1]
                and nxt not in blocked
                and nxt not in dist
            ):
                dist[nxt] = dist[cell] + 1
                frontier.append(nxt)
    return None


def toy_mission_config(damage=None, noise_variance=0.0, seed=0, prior=point_robot_prior,
                       kernel_sigma=0.1):
    return MissionConfig(
        world=make_point_robot_world(damage, noise_variance, seed),
        candidates=CandidateSet.dense_theta_grid(),
        prior=prior,
        kernel=Kernel(KernelFamily.SQUARED_EXPONENTIAL, kernel_sigma, DistanceKind.WRAPPED_ANGULAR),
        gp_noise=0.001,
        goal=np.array([2.0, 2.0]),
        epsilon_goal=0.1,
        grid=PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0)),
        lookahead_cells=2,
        max_adapt_iterations=10,
        step_cap=500,
        seed=seed,
        rng=np.random.default_rng(seed),
        behavior_sampler=sample_point_robot_behavior,
    )


def medians(records, method):
    subset = [r.total_steps for r in records if r.method is method]
    return float(np.median(subset))


def success_rate(records, method):
    subset = [r.reached for r in records if r.method is method]
    return float(np.mean(subset))


# ---------------------------------------------------------------- criteria


def test_criterion_01_gp_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for family in KernelFamily:
        for distance, behavior_dim in ((DistanceKind.WRAPPED_ANGULAR, 1),
                                       (DistanceKind.EUCLIDEAN, 4)):
            for _ in range(10):
                kernel, observations = random_gp_instance(rng, family, distance, behavior_dim)
                model = fit(observations, kernel, point_robot_prior
                            if behavior_dim == 1 else zero_prior(2))
                for _ in range(5):
                    query = rng.uniform(-math.pi, math.pi, size=behavior_dim)
                    mean, variance = predict(model, query)
                    want_mean, want_var = brute_force_predict(
                        kernel, observations, model.prior, query
                    )
                    np.testing.assert_allclose(mean, want_mean, rtol=1e-9, atol=1e-12)
                    assert variance == pytest.approx(want_var, rel=1e-9, abs=1e-12)
    assert time.perf_counter() - started < 1.0


def test_criterion_02_empty_model_returns_prior_exactly():
    rng = np.random.default_rng(102)
    kernel = Kernel(KernelFamily.SQUARED_EXPONENTIAL, 0.1, DistanceKind.WRAPPED_ANGULAR)
    model = fit(ObservationSet.empty(1, 2, 0.001), kernel, point_robot_prior)
    queries = rng.uniform(-math.pi, math.pi, size=(1000, 1))
    means, variances = predict_batch(model, queries)
    np.testing.assert_array_equal(means, prior_values(point_robot_prior, queries))
    assert np.all(variances == 1.0)


def test_criterion_03_prior_decomposes_into_residual_model():
    rng = np.random.default_rng(103)
    for _ in range(20):
        kernel, observations = random_gp_instance(
            rng, KernelFamily.SQUARED_EXPONENTIAL, DistanceKind.WRAPPED_ANGULAR, 1
        )
        residuals = ObservationSet(
            inputs=observations.inputs,
            outputs=observations.outputs - prior_values(point_robot_prior, observations.inputs),
            noise_variance=observations.noise_variance,
        )
        with_prior = fit(observations, kernel, point_robot_prior)
        residual_only = fit(residuals, kernel, zero_prior(2))
        for _ in range(5):
            query = rng.uniform(-math.pi, math.pi, size=1)
            mean_full, var_full = predict(with_prior, query)
            mean_res, var_res = predict(residual_only, query)
            np.testing.assert_allclose(
                mean_full,
                np.asarray(point_robot_prior(query)) + mean_res,
                rtol=1e-9,
                atol=1e-12,
            )
            assert var_full == pytest.approx(var_res, rel=1e-9, abs=1e-12)


def test_criterion_04_astar_matches_bfs_on_random_grids():
    rng = np.random.default_rng(104)
    shape = (20, 20)
    started = time.perf_counter()
    for _ in range(200):
        blocked_flat = rng.choice(400, size=80, replace=False)  # exactly 20%
        blocked = frozenset((int(i) // 20, int(i) % 20) for i in blocked_flat)
        grid = PlannerGrid(0.1, (0.0, 0.0), shape, blocked)
        start = (int(rng.integers(20)), int(rng.integers(20)))
        goal = (int(rng.integers(20)), int(rng.integers(20)))
        path = astar(grid, start, goal)
        want = bfs_lengths(shape, blocked, start, goal)
        if want is None:
            assert path is None
        else:
            assert path is not None and len(path) == want
    assert time.perf_counter() - started < 2.0


def test_criterion_05_archive_replay_reproduces_elites(walker_archive_build):
    archive = walker_archive_build["archive"]
    offers = walker_archive_build["offers"]
    assert len(offers) == WALKER.archive_budget  # exactly one offer per unit of budget

    started = time.perf_counter()
    tracker = {}
    coverage_checkpoints = []
    for i, (cell, elite, result) in enumerate(offers, start=1):
        incumbent = tracker.get(cell)
        if incumbent is None or elite.performance > incumbent.performance:
            tracker[cell] = elite
            assert result in (OfferResult.INSERTED, OfferResult.REPLACED)
        else:
            assert result is OfferResult.REJECTED
        if i % 1000 == 0:
            coverage_checkpoints.append(len(tracker) / archive.total_cells)
    replay_elapsed = time.perf_counter() - started

    assert sorted(tracker) == [cell for cell, _ in archive.items()]
    for cell, elite in archive.items():
        replayed = tracker[cell]
        assert replayed.performance == elite.performance
        np.testing.assert_array_equal(replayed.behavior, elite.behavior)
        np.testing.assert_array_equal(replayed.descriptor, elite.descriptor)
        np.testing.assert_array_equal(replayed.outcome, elite.outcome)
    assert all(b >= a for a, b in zip(coverage_checkpoints, coverage_checkpoints[1:]))
    assert walker_archive_build["elapsed"] + replay_elapsed < 30.0


def test_criterion_06_direct_route_takes_exactly_28_steps():
    intact = run_mission(toy_mission_config())
    assert intact.reached
    assert (intact.learn_steps, intact.total_steps) == (0, DIRECT_STEPS)

    def damaged_prior(x):
        performed = apply_damage(AngleOffsetDamage(0.5), x)
        return point_robot_intact(float(performed[0]))

    informed = run_mission(
        toy_mission_config(damage=AngleOffsetDamage(0.5), prior=damaged_prior)
    )
    assert informed.reached
    assert (informed.learn_steps, informed.total_steps) == (0, DIRECT_STEPS)


def test_criterion_07_toy_scenario_beats_baselines(toy_experiment):
    records = toy_experiment["records"]
    sela_median = medians(records, Method.SELA)
    assert success_rate(records, Method.SELA) >= 0.95
    assert sela_median < medians(records, Method.BABBLING)
    assert sela_median < medians(records, Method.EPISODIC_ITE)
    assert sela_median <= 1.5 * DIRECT_STEPS
    assert toy_experiment["elapsed"] < 60.0


def test_criterion_08_walker_scenario_beats_baselines(walker_archive_build, walker_experiment):
    records = walker_experiment["records"]
    sela_median = medians(records, Method.SELA)
    assert sela_median < medians(records, Method.UNCERTAINTY)
    assert sela_median < medians(records, Method.EPISODIC_ITE)
    assert success_rate(records, Method.SELA) >= 0.90
    assert walker_archive_build["elapsed"] + walker_experiment["elapsed"] < 300.0


def test_criterion_09_baseline_trial_caps_hold(toy_experiment, walker_experiment):
    toy_records = toy_experiment["records"]
    walker_records = walker_experiment["records"]

    babbling = [r.learn_steps for r in toy_records if r.method is Method.BABBLING]
    assert max(babbling) <= 15
    # zero-noise instance with a wide kernel: the model converges and the
    # held-out error stop fires before the cap
    early = baseline_babbling(toy_mission_config(kernel_sigma=0.5))
    assert early.learn_steps == 11 < 15

    uncertainty = [r.learn_steps for r in walker_records if r.method is Method.UNCERTAINTY]
    assert uncertainty and all(steps == 15 for steps in uncertainty)

    toy_episodic = [r.learn_steps for r in toy_records if r.method is Method.EPISODIC_ITE]
    assert max(toy_episodic) <= 4 * 10
    walker_episodic = [r.learn_steps for r in walker_records if r.method is Method.EPISODIC_ITE]
    assert max(walker_episodic) <= 4 * 15


def test_criterion_10_reruns_are_byte_identical(toy_experiment, walker_experiment):
    toy_records, _ = run_experiment(TOY)
    assert runs_csv_text(toy_records, TOY.world) == toy_experiment["runs_text"]

    rebuilt_archive = build_archive(WALKER)
    walker_records, _ = run_experiment(WALKER, archive=rebuilt_archive)
    assert runs_csv_text(walker_records, WALKER.world) == walker_experiment["runs_text"]
