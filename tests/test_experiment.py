"""Experiment harness: seeded assembly, CSV persistence, and summaries."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sela.reward
from sela import experiment
from sela.config import WORLDS, ConfigError, ExperimentConfig, parse_config_file, validate
from sela.experiment import (
    RUNS_HEADER,
    SUMMARY_HEADER,
    SummaryRow,
    build_archive,
    build_mission_config,
    compute_summary,
    load_archive_file,
    read_runs_csv,
    run_experiment,
    runs_csv_text,
    summarize_runs,
    summary_csv_text,
    write_results,
)
from sela.gp import MIN_KERNEL_SIGMA, CandidatePosterior, DistanceKind, Kernel, KernelFamily
from sela.map_elites import Archive, ArchiveFormatError, Elite, bin_index, load_archive, save_archive
from sela.mission import Method, RunRecord
from sela.reward import PlannerGrid
from sela.worlds import WALKER_JOINTS, AngleOffsetDamage, FrozenJointDamage, segment_walker_evaluator


def record(method=Method.SELA, learn=0, execute=28, reached=True, seed=0):
    return RunRecord(method, learn, execute, learn + execute, reached, seed)


INTACT = ExperimentConfig(world="point_robot", noise_variance=0.0)
DAMAGED = ExperimentConfig(
    world="point_robot",
    damage="angle_offset",
    methods=(Method.SELA, Method.BABBLING, Method.UNCERTAINTY),
    replicates=3,
)


class TestBuilders:
    @pytest.mark.parametrize("config, damage", [
        (INTACT, None),
        (replace(INTACT, damage="angle_offset"), AngleOffsetDamage(offset=0.5)),
        (ExperimentConfig(world="segment_walker", damage="frozen_joint", damage_joint=2, noise_variance=0.0),
         FrozenJointDamage(joint=2)),
    ], ids=["none", "angle_offset", "frozen_joint"])
    def test_damage_kinds(self, config, damage, small_walker_archive):
        # the mission's world performs each behavior as a world with the config's damage does
        world = build_mission_config(config, seed=0, archive=small_walker_archive).world
        expected = WORLDS[config.world].make(damage)
        for behavior in ([0.3], [-0.3], [2.0]) if config.world == "point_robot" else ([0.4, -0.6, 0.9, 0.1],):
            assert world.execute(behavior).tobytes() == expected.execute(behavior).tobytes()

    def test_kernel_distance_follows_world(self, small_walker_archive):
        toy = replace(INTACT, kernel_family="exponential", kernel_sigma=0.3)
        assert build_mission_config(toy, seed=0).kernel == Kernel(
            KernelFamily.EXPONENTIAL, 0.3, DistanceKind.WRAPPED_ANGULAR
        )
        walker = ExperimentConfig(world="segment_walker")
        kernel = build_mission_config(walker, seed=0, archive=small_walker_archive).kernel
        assert kernel == Kernel(KernelFamily.SQUARED_EXPONENTIAL, 0.1, DistanceKind.EUCLIDEAN)

    def test_archive_requires_walker_world(self):
        with pytest.raises(ConfigError):
            build_archive(INTACT)

    def test_walker_mission_requires_archive(self):
        with pytest.raises(ValueError):
            build_mission_config(ExperimentConfig(world="segment_walker"), seed=0)

    @pytest.mark.parametrize("world", WORLDS)
    def test_validate_checks_the_grid_the_mission_builds_from_its_start_pose(
        self, monkeypatch, world, small_walker_archive
    ):
        # validate checks the grid that the mission plans on; it is drawn from the origin,
        # and the mission's world starts there
        checked, planner_grid = [], ExperimentConfig.planner_grid

        def recording_planner_grid(config):
            checked.append(planner_grid(config))
            return checked[-1]

        monkeypatch.setattr(ExperimentConfig, "planner_grid", recording_planner_grid)
        config = validate(ExperimentConfig(world=world, goal_x=-1.3, goal_y=0.7, cell_size=0.2, planner_margin=0.5))
        assert len(checked) == 1
        mission = build_mission_config(config, seed=4, archive=small_walker_archive)
        np.testing.assert_array_equal(mission.world.pose, [0.0, 0.0])
        assert checked == [mission.grid, mission.grid] and checked[1] is mission.grid
        assert mission.grid == PlannerGrid.for_mission(mission.world.pose, mission.goal, 0.2, 0.5)

    def test_same_seed_builds_identical_worlds(self):
        a = build_mission_config(ExperimentConfig(world="point_robot"), seed=5)
        b = build_mission_config(ExperimentConfig(world="point_robot"), seed=5)
        for _ in range(4):
            np.testing.assert_array_equal(a.world.execute([0.3]), b.world.execute([0.3]))
        np.testing.assert_array_equal(
            a.behavior_sampler(a.rng), b.behavior_sampler(b.rng)
        )

    def test_mission_config_carries_experiment_knobs(self):
        config = ExperimentConfig(world="point_robot", alpha=0.2, step_cap=123, cell_size=0.05)
        mission = build_mission_config(config, seed=0)
        assert mission.alpha == 0.2
        assert mission.step_cap == 123
        assert mission.grid.cell_size == 0.05
        assert mission.max_adapt_iterations == 10  # point-robot default


class TestSummary:
    def test_quartiles_match_percentile_oracle(self):
        records = [
            record(learn=0, execute=10, reached=True, seed=0),
            record(learn=0, execute=20, reached=True, seed=1),
            record(learn=0, execute=30, reached=False, seed=2),
            record(learn=0, execute=40, reached=True, seed=3),
        ]
        rows = {r.metric: r for r in compute_summary(records)}
        totals = rows["total_steps"]
        assert (totals.q25, totals.median, totals.q75) == (17.5, 25.0, 32.5)
        assert totals.success_rate == 0.75

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=150), st.integers(0, 3))
    def test_quartiles_equal_np_percentile_bit_for_bit(self, counts, cap):
        # integer step counts, some drawn from a few values so that ties occur
        counts = [count % 10**cap if cap else count for count in counts]
        records = [record(learn=0, execute=count, seed=seed) for seed, count in enumerate(counts)]
        rows = {r.metric: r for r in compute_summary(records)}
        totals = rows["total_steps"]
        want = np.percentile(np.array(counts, dtype=float), [25, 50, 75])
        assert np.array([totals.q25, totals.median, totals.q75]).tobytes() == want.tobytes()

    def test_methods_keep_first_seen_order(self):
        records = [
            record(method=Method.BABBLING, seed=0),
            record(method=Method.SELA, seed=0),
        ]
        rows = compute_summary(records)
        assert [r.method for r in rows[:3]] == [Method.BABBLING] * 3
        assert [r.metric for r in rows[:3]] == ["learn_steps", "exec_steps", "total_steps"]
        assert rows[3].method is Method.SELA


class TestCsvText:
    def test_runs_rows_and_header(self):
        text = runs_csv_text([record()], world="point_robot")
        lines = text.splitlines()
        assert lines[0] == RUNS_HEADER
        assert lines[1] == "0,sela,point_robot,0,0,28,28,true,0"
        assert text.endswith("\n")

    def test_wall_ms_is_placeholder_zero(self):
        # no wall clock reaches the CSV, so it stays byte-deterministic
        run = RunRecord(Method.SELA, 0, 28, 28, True, 0)
        assert runs_csv_text([run], world="point_robot").splitlines()[1].endswith(",0")

    def test_summary_rows(self):
        row = SummaryRow(Method.SELA, "total_steps", 17.5, 25.0, 32.5, 0.75)
        text = summary_csv_text([row])
        assert text.splitlines()[0] == SUMMARY_HEADER
        assert text.splitlines()[1] == "sela,total_steps,17.5,25.0,32.5,0.75"


class TestPersistence:
    def test_write_then_read_round_trip(self, tmp_path):
        records = [record(seed=s) for s in range(3)]
        write_results(records, compute_summary(records), tmp_path, world="point_robot")
        world, loaded = read_runs_csv(tmp_path / "runs.csv")
        assert world == "point_robot"
        assert [
            (r.method, r.seed, r.learn_steps, r.exec_steps, r.total_steps, r.reached)
            for r in loaded
        ] == [
            (r.method, r.seed, r.learn_steps, r.exec_steps, r.total_steps, r.reached)
            for r in records
        ]
        assert (tmp_path / "summary.csv").read_text().startswith(SUMMARY_HEADER)

    def test_summarize_runs_matches_in_memory_summary(self, tmp_path):
        records = [record(seed=s, execute=20 + s, reached=s > 0) for s in range(4)]
        write_results(records, compute_summary(records), tmp_path, world="point_robot")
        assert summarize_runs(tmp_path / "runs.csv") == compute_summary(records)

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_runs_csv(path)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(RUNS_HEADER + "\n0,sela,point_robot,0,0,28\n")
        with pytest.raises(ValueError):
            read_runs_csv(path)

    @pytest.mark.parametrize(
        "row",
        [
            "1,sela,point_robot,1,0,28,28,yes,0",      # reached is true or false
            "1,sela,point_robot,1,-5,33,28,true,0",    # negative count
            "1,sela,point_robot,-1,0,28,28,true,0",    # negative seed
            "1,sela,point_robot,1,0,2.5,28,true,0",    # non-integer count
            "1,sela,point_robot,1,+0,28,28,true,0",    # str(int) writes no sign
            "1,sela,point_robot,1,0,28,29,true,0",     # total != learn + exec
            "1,walk,point_robot,1,0,28,28,true,0",     # unknown method
            "1,sela,segment_walker,1,0,28,28,true,0",  # another world
            "0,sela,point_robot,1,0,28,28,true,0",     # run ids count from 0
            "1,sela,point_robot,1,0,28,28,true,3",     # wall_ms is always 0
            "1,sela,point_robot,1,0,28,28,true",       # eight fields
        ],
    )
    def test_rejects_a_row_runs_csv_text_never_writes_by_line(self, tmp_path, row):
        path = tmp_path / "runs.csv"
        first = runs_csv_text([record()], world="point_robot")
        path.write_text(first + "\n" + row + "\n")   # a blank line 3 is skipped
        with pytest.raises(ValueError, match="^line 4: "):
            read_runs_csv(path)

    def test_summarize_requires_rows(self, tmp_path):
        path = tmp_path / "runs.csv"
        path.write_text(RUNS_HEADER + "\n")
        with pytest.raises(ValueError):
            summarize_runs(path)

    def test_missing_archive_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_archive_file(tmp_path / "nope.txt")


class TestRunExperiment:
    def test_intact_single_replicate_exact_csv(self, tmp_path):
        run_experiment(INTACT, out_dir=tmp_path)
        assert (tmp_path / "runs.csv").read_text() == (
            RUNS_HEADER + "\n0,sela,point_robot,0,0,28,28,true,0\n"
        )
        assert (tmp_path / "summary.csv").read_text() == (
            SUMMARY_HEADER
            + "\nsela,learn_steps,0.0,0.0,0.0,1.0"
            + "\nsela,exec_steps,28.0,28.0,28.0,1.0"
            + "\nsela,total_steps,28.0,28.0,28.0,1.0\n"
        )

    def test_reruns_are_byte_identical(self, tmp_path):
        run_experiment(DAMAGED, out_dir=tmp_path / "a")
        run_experiment(DAMAGED, out_dir=tmp_path / "b")
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_replicates_use_consecutive_seeds(self, tmp_path):
        config = ExperimentConfig(
            world="point_robot", damage="angle_offset", replicates=3, base_seed=40
        )
        records, _ = run_experiment(config)
        assert [r.seed for r in records] == [40, 41, 42]

    def test_a_noise_free_sela_runs_every_replicate(self, monkeypatch):
        # UCB tries candidates again as task steps; without noise each repeat
        # factors by the jitter that such a model carries from its first row
        repeats, real = [], CandidatePosterior.learn

        def recording_learn(posterior, behavior, *args):
            repeats.append(np.asarray(behavior).tobytes() in posterior.seen)
            return real(posterior, behavior, *args)

        monkeypatch.setattr(CandidatePosterior, "learn", recording_learn)
        config = ExperimentConfig(world="point_robot", damage="angle_offset", methods=(Method.SELA,),
                                  replicates=10, gp_noise=0.0)
        records, _ = run_experiment(config)
        assert [r.seed for r in records] == list(range(10))
        assert any(repeats)

    def test_baselines_stop_learning_at_the_step_cap(self):
        # learning budgets of 30 trials under a cap of 5 steps: each baseline
        # spends the whole cap learning and executes nothing
        config = ExperimentConfig(
            world="point_robot",
            damage="angle_offset",
            methods=(Method.BABBLING, Method.UNCERTAINTY, Method.EPISODIC_ITE),
            babble_max=30,
            uncertainty_iterations=30,
            epsilon_model=1e-9,
            step_cap=5,
        )
        records, _ = run_experiment(config)
        assert [(r.method, r.learn_steps, r.total_steps) for r in records] == [
            (Method.BABBLING, 5, 5), (Method.UNCERTAINTY, 5, 5), (Method.EPISODIC_ITE, 5, 5),
        ]

    @pytest.mark.parametrize("kernel_family", ["squared_exponential", "exponential"])
    def test_floor_kernel_sigma_runs_cleanly(self, kernel_family):
        # warnings are errors here; each observation informs only its own
        # candidate, so every method runs, learns and records finite counts
        config = ExperimentConfig(
            world="point_robot",
            damage="angle_offset",
            methods=(Method.SELA, Method.BABBLING, Method.UNCERTAINTY, Method.EPISODIC_ITE),
            kernel_family=kernel_family,
            kernel_sigma=MIN_KERNEL_SIGMA,
            step_cap=40,
        )
        records, _ = run_experiment(validate(config))
        assert [r.method for r in records] == list(config.methods)
        assert all(r.learn_steps > 0 and r.total_steps <= 40 for r in records)

    @pytest.mark.parametrize(
        "config, key",
        [
            (ExperimentConfig(world="point_robot", goal_x=float("inf")), "goal_x"),
            (ExperimentConfig(world="mars"), "world"),
            (ExperimentConfig(world="point_robot", damage="frozen_joint"), "damage"),
        ],
    )
    def test_direct_construction_is_validated_before_the_first_mission(
        self, config, key, monkeypatch
    ):
        def no_mission(*args):
            raise AssertionError("a mission was built")

        monkeypatch.setattr(experiment, "build_mission_config", no_mission)
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            run_experiment(config)

    def test_failed_replicate_names_its_method_and_seed(self, monkeypatch):
        run_method = experiment.run_method

        def failing_on_seed_41(method, mission):
            if method is Method.BABBLING and mission.seed == 41:
                raise ZeroDivisionError("boom")
            return run_method(method, mission)

        monkeypatch.setattr(experiment, "run_method", failing_on_seed_41)
        config = replace(DAMAGED, methods=(Method.SELA, Method.BABBLING), base_seed=40)
        with pytest.raises(ZeroDivisionError, match="boom") as caught:
            run_experiment(config)
        assert caught.value.__notes__ == ["in the babbling replicate with seed 41"]

    def test_walker_needs_archive_path_or_archive(self):
        with pytest.raises(ConfigError, match="archive_path"):
            run_experiment(ExperimentConfig(world="segment_walker"))

    @pytest.mark.parametrize("behavior_dim, outcome_dim", [(3, 2), (4, 3)])
    def test_walker_archive_of_other_dimensions_rejected(
        self, tmp_path, behavior_dim, outcome_dim
    ):
        # an archive with b=3 would otherwise fail in the first mission, in
        # numpy broadcasting
        archive = Archive((2, 2), behavior_dim, outcome_dim)
        for cell in np.ndindex(2, 2):
            archive.cells[cell] = Elite(
                np.full(behavior_dim, 0.1 * (2 * cell[0] + cell[1])), np.array(cell) / 2, 1.0,
                np.full(outcome_dim, 0.01),
            )
        path = tmp_path / "archive.txt"
        path.write_bytes(save_archive(archive))
        config = ExperimentConfig(world="segment_walker", archive_path=str(path))
        with pytest.raises(ConfigError, match=re.escape(f"archive_path {path}: the archive has b={behavior_dim}")):
            run_experiment(config)

    def test_walker_archive_with_no_elites_rejected(self, tmp_path):
        # it would otherwise fail inside the first sela replicate, on an empty candidate set
        path = tmp_path / "archive.txt"
        path.write_bytes(save_archive(Archive((2, 2), WALKER_JOINTS, 2)))
        config = ExperimentConfig(world="segment_walker", archive_path=str(path))
        with pytest.raises(ConfigError, match=re.escape(f"archive_path {path}: the archive lists no elites")):
            run_experiment(config)

    @pytest.mark.parametrize("repeat", [0.5, -0.0])
    def test_walker_archive_with_a_repeated_behavior_rejected(self, repeat):
        # an archive passed directly skips load_archive's check; the template's
        # candidate set rejects the repeat before any replicate runs
        archive = Archive((2, 2), WALKER_JOINTS, 2)
        for cell, first in (((0, 0), abs(repeat)), ((1, 1), repeat)):
            behavior = np.array([first, 0.1, 0.2, 0.3])
            archive.cells[cell] = Elite(behavior, [0.25 + 0.5 * cell[0]] * 2, 0.05, [0.05, 0.0])
        config = ExperimentConfig(world="segment_walker", damage="frozen_joint", replicates=1)
        with pytest.raises(ValueError, match="^candidate set contains duplicate points$"):
            run_experiment(config, archive=archive)

    @pytest.mark.parametrize("first, again", [("0.5", "0.5"), ("0.0", "-0.0")])
    def test_walker_archive_file_with_a_repeated_behavior_rejected_on_load(self, tmp_path, first, again):
        # load_archive compares values, so -0.0 repeats 0.0
        path = tmp_path / "archive.txt"
        path.write_text(
            "sela-archive v1 m=2 grid=2x2 b=4 d=2\n"
            f"cell=0,0 behavior={first},0.1,0.2,0.3 descriptor=0.25,0.25 perf=1.0 outcome=0.1,0.0\n"
            "cell=0,1 behavior=0.4,0.1,0.2,0.3 descriptor=0.25,0.75 perf=1.0 outcome=0.1,0.0\n"
            f"cell=1,1 behavior={again},0.1,0.2,0.3 descriptor=0.75,0.75 perf=1.0 outcome=0.1,0.0\n"
        )
        config = ExperimentConfig(world="segment_walker", damage="frozen_joint", replicates=1, archive_path=str(path))
        with pytest.raises(ArchiveFormatError, match="^line 4: behavior already listed on line 2$"):
            run_experiment(config)

    def test_walker_archive_nan_rows_are_not_repeats(self, monkeypatch):
        # two NaN behaviors would pass the candidate set's check (NaN != NaN); NaN
        # compares false, so the range and length checks reject a NaN before any replicate
        monkeypatch.setattr(experiment, "run_method", lambda *args: pytest.fail("a replicate ran"))
        config = ExperimentConfig(world="segment_walker", damage="frozen_joint", replicates=1)
        for field, message in (("behavior", "a behavior lies outside"), ("outcome", "an outcome is longer")):
            archive = Archive((2, 2), WALKER_JOINTS, 2)
            for cell in ((0, 0), (1, 1)):
                elite = Elite([0.0, 0.1, 0.2, 0.3], [0.25 + 0.5 * cell[0]] * 2, 0.05, [0.05, 0.0])
                getattr(elite, field)[0] = math.nan
                archive.cells[cell] = elite
            with pytest.raises(ConfigError, match=f"^archive_path None: {message}"):
                run_experiment(config, archive=archive)

    def test_walker_end_to_end_with_prebuilt_archive(self):
        config = ExperimentConfig(
            world="segment_walker",
            damage="frozen_joint",
            replicates=2,
            archive_budget=300,
            archive_grid=10,
        )
        archive = build_archive(config)
        records, summary = run_experiment(config, archive=archive)
        assert len(records) == 2
        assert all(r.total_steps == r.learn_steps + r.exec_steps for r in records)
        assert {row.method for row in summary} == {Method.SELA}


ALL_METHODS = (Method.SELA, Method.BABBLING, Method.EPISODIC_ITE, Method.UNCERTAINTY)
SMALL_WALKER = ExperimentConfig(
    world="segment_walker",
    damage="frozen_joint",
    methods=ALL_METHODS,
    replicates=2,
    step_cap=60,
    archive_budget=300,
    archive_grid=10,
)


@pytest.fixture(scope="module")
def small_walker_archive():
    return build_archive(SMALL_WALKER)


def toy_and_walker(archive):
    return [(replace(DAMAGED, methods=ALL_METHODS, step_cap=80), None), (SMALL_WALKER, archive)]


def rescaled(archive, name, factor, cells=None):
    """A copy of `archive` whose elites, or those in `cells`, have their `name` field scaled by `factor`."""
    copy = Archive(archive.grid_shape, archive.behavior_dim, archive.outcome_dim)
    for cell, elite in archive.items():
        scale = factor if cells is None or cell in cells else 1.0
        copy.cells[cell] = replace(elite, **{name: getattr(elite, name) * scale})
    return copy


def saved_walker_config(tmp_path, archive):
    """Save `archive`; a one-replicate walker config of every method that reads it."""
    path = tmp_path / "archive.txt"
    path.write_bytes(save_archive(archive))
    return replace(SMALL_WALKER, replicates=1, step_cap=8, archive_path=str(path))


class TestWalkerArchiveContract:
    """`run_experiment` rejects, naming `archive_path`, a walker archive that
    no illumination of the walker writes: a behavior outside the joint range
    that `illuminate` clamps to, or an outcome longer than the walker steps."""

    def test_outcomes_longer_than_a_step_rejected(self, tmp_path, small_walker_archive, monkeypatch):
        # scaled by 1e160, the 300-offer archive loaded and ran every mission
        # to the cap, with numpy's overflow warnings in dot and vecdot
        monkeypatch.setattr(experiment, "run_method", lambda *args: pytest.fail("a replicate ran"))
        config = saved_walker_config(tmp_path, rescaled(small_walker_archive, "outcome", 1e160))
        with pytest.raises(ConfigError, match=re.escape(f"archive_path {config.archive_path}: an outcome is longer")):
            run_experiment(config)
        cell, elite = small_walker_archive.items()[3]   # one outcome made 1e-6 longer than 4 legs of 0.025
        factor = 0.1 * (1.0 + 1e-6) / np.hypot(*elite.outcome)
        config = saved_walker_config(tmp_path, rescaled(small_walker_archive, "outcome", factor, [cell]))
        with pytest.raises(ConfigError, match="an outcome is longer than the walker steps, 4 legs of 0.025$"):
            run_experiment(config)

    def test_a_behavior_outside_the_joint_range_rejected(self, tmp_path, small_walker_archive, monkeypatch):
        monkeypatch.setattr(experiment, "run_method", lambda *args: pytest.fail("a replicate ran"))
        cell = small_walker_archive.items()[7][0]
        config = saved_walker_config(tmp_path, rescaled(small_walker_archive, "behavior", 3.0, [cell]))
        with pytest.raises(ConfigError, match=re.escape(f"archive_path {config.archive_path}: a behavior lies")):
            run_experiment(config)
        archive = rescaled(small_walker_archive, "behavior", 3.0, [cell])   # passed in code: checked too
        with pytest.raises(ConfigError, match="^archive_path None: a behavior lies outside"):
            run_experiment(replace(config, archive_path=None), archive=archive)

    def test_archives_of_the_walker_pass(self, tmp_path):
        # the default 50,000-offer archive, and the walker's longest steps:
        # all four legs along one direction, one of them 1.4e-17 past 0.1 by rounding
        records, _ = run_experiment(saved_walker_config(tmp_path, build_archive(ExperimentConfig(world="segment_walker"))))
        assert len(records) == len(ALL_METHODS)
        directions = [0.0, 1.0, -1.0, 0.5, -0.5, 0.08292244049818343]
        descriptors, _, outcomes = segment_walker_evaluator(np.repeat(np.array(directions)[:, None], 4, axis=1))
        assert np.hypot(*outcomes.T).max() > 0.1
        archive = Archive((50, 2), WALKER_JOINTS, 2)
        for direction, descriptor, outcome in zip(directions, descriptors, outcomes):
            archive.cells[tuple(bin_index(descriptor, (50, 2)).tolist())] = Elite([direction] * 4, descriptor, 0.1, outcome)
        assert len(archive.cells) == len(directions)
        records, _ = run_experiment(saved_walker_config(tmp_path, archive))
        assert len(records) == len(ALL_METHODS)


# A small saved walker archive, split into its tokens and the separators
# between them, and the positions of its values: the tokens after a separator
# other than a blank.
ARCHIVE_PIECES = re.split(r"([\s=,x])", save_archive(build_archive(
    ExperimentConfig(world="segment_walker", archive_budget=100, archive_grid=3))).decode())
ARCHIVE_VALUE_AT = [i for i in range(2, len(ARCHIVE_PIECES), 2) if ARCHIVE_PIECES[i - 1] in "=,x"]
# Values put in place of a token: numbers in every field's range; numbers that
# are non-finite, huge, out of the joint range or past the walker's reach; an
# empty token, another token's word; or a few characters.
ARCHIVE_VALUES = st.one_of(
    st.sampled_from(["0", "-0.0", "0.5", "-0.5", "0.05", "-0.05", "0.099", "1", "-1", "1e-300", "0.1"]),
    st.sampled_from(["nan", "inf", "-inf", "1e160", "-1e160", "1e400", "3", "-3", "1.0000001", "2", "0.11",
                     "", "x", "cell", "behavior", "outcome", "perf"]),
    st.text(alphabet="0123456789.-+e,=x \n", max_size=4),
)


class TestArchiveFuzz:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), ARCHIVE_VALUES), min_size=1, max_size=3))
    def test_rewritten_archives_are_rejected_or_run(self, edits):
        # each text gives ArchiveFormatError or ConfigError, or one replicate
        # of every method runs at most 8 steps to a finite final pose
        pieces = list(ARCHIVE_PIECES)
        for position, value in edits:
            pieces[ARCHIVE_VALUE_AT[position % len(ARCHIVE_VALUE_AT)]] = value
        try:
            archive = load_archive("".join(pieces).encode())
        except ArchiveFormatError:
            return
        config = replace(SMALL_WALKER, replicates=1, step_cap=8)
        missions, run_method = [], experiment.run_method
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiment, "run_method", lambda method, mission: missions.append(mission)
                          or run_method(method, mission))
            try:
                records, _ = run_experiment(config, archive=archive)
            except ConfigError:
                return
        assert [record.method for record in records] == list(ALL_METHODS)
        assert all(record.total_steps <= 8 for record in records)
        assert all(np.isfinite(mission.world.pose).all() for mission in missions)


class TestMissionTemplate:
    def test_replicates_share_the_template_but_not_world_or_rng(self, monkeypatch, small_walker_archive):
        build, run_method = experiment.build_mission_config, experiment.run_method
        for config, archive in toy_and_walker(small_walker_archive):
            builds, missions = [], []

            def counting_build(*args):
                builds.append(args)
                return build(*args)

            def capturing_run(method, mission):
                missions.append(mission)
                return run_method(method, mission)

            monkeypatch.setattr(experiment, "build_mission_config", counting_build)
            monkeypatch.setattr(experiment, "run_method", capturing_run)
            run_experiment(config, archive=archive)
            assert len(builds) == 1, config.world
            assert len(missions) == len(config.methods) * config.replicates
            first = missions[0]
            for name in ("candidates", "prior", "kernel", "grid", "goal"):
                assert all(getattr(m, name) is getattr(first, name) for m in missions), name
            assert first.grid.waypoints   # the missions filled the one grid's A* table
            assert len({id(m.world) for m in missions}) == len(missions)
            assert len({id(m.rng) for m in missions}) == len(missions)
            assert [m.seed for m in missions] == [
                config.base_seed + k for _ in config.methods for k in range(config.replicates)
            ]

    def test_method_order_leaves_every_record_unchanged(self, small_walker_archive):
        # the missions share the template's objects, the waypoint table among
        # them: no mission may leave state behind that changes a later one
        for config, archive in toy_and_walker(small_walker_archive):
            forward, _ = run_experiment(config, archive=archive)
            backward, _ = run_experiment(replace(config, methods=config.methods[::-1]), archive=archive)
            assert sorted(forward, key=lambda r: (r.method.value, r.seed)) == sorted(
                backward, key=lambda r: (r.method.value, r.seed)
            ), config.world
            assert len({(r.method, r.seed) for r in forward}) == len(forward) == 4 * config.replicates


WAYPOINT_BASE = """world = point_robot
damage = angle_offset
methods = sela, uncertainty
replicates = 2
step_cap = 60
"""

# Each changes the grid, the goal or the lookahead that the waypoint table
# depends on.
WAYPOINT_VARIANTS = {
    "base": "",
    "goal": "goal_x = 1.5\ngoal_y = -1.0\n",
    "cell_size": "cell_size = 0.2\n",
    "lookahead": "lookahead_cells = 4\n",
}


class TestSharedWaypointTable:
    def test_experiments_in_one_process_match_fresh_processes(self, tmp_path):
        # one waypoint table per run_experiment call: runs after other
        # experiments in this process give the bytes of a fresh process
        env = dict(os.environ)
        source = str(Path(experiment.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        for name, extra in WAYPOINT_VARIANTS.items():
            config_path = tmp_path / f"{name}.cfg"
            config_path.write_text(WAYPOINT_BASE + extra, encoding="utf-8")
            fresh = tmp_path / "fresh" / name
            subprocess.run(
                [sys.executable, "-m", "sela.cli", "run", "--config", str(config_path),
                 "--out", str(fresh)],
                check=True, env=env, capture_output=True,
            )
            run_experiment(parse_config_file(config_path), out_dir=tmp_path / "here" / name)
        for name in WAYPOINT_VARIANTS:
            for csv in ("runs.csv", "summary.csv"):
                here = (tmp_path / "here" / name / csv).read_bytes()
                assert here == (tmp_path / "fresh" / name / csv).read_bytes(), (name, csv)

    def test_astar_runs_once_per_distinct_start_cell(self, monkeypatch):
        starts = []
        astar = sela.reward.astar

        def counting_astar(grid, start, goal, steps=None):
            starts.append(start)
            return astar(grid, start, goal, steps)

        monkeypatch.setattr(sela.reward, "astar", counting_astar)
        records, _ = run_experiment(replace(DAMAGED, step_cap=80))
        assert sum(r.exec_steps for r in records) > len(starts) > 0
        assert len(starts) == len(set(starts))


class TestNoNumpyMa:
    def test_experiments_and_summaries_leave_numpy_ma_unimported(self, tmp_path):
        # np.unique and np.percentile import numpy.ma (about 40 ms and 1.4 MB);
        # a sela process runs neither, on either world, nor when summarizing
        code = f"""
import sys
from sela.config import ExperimentConfig
from sela.experiment import build_archive, run_experiment, summarize_runs
from sela.mission import Method
for world in ("point_robot", "segment_walker"):
    config = ExperimentConfig(world=world, methods=tuple(Method), replicates=2, step_cap=30,
                              archive_budget=300, archive_grid=10)
    archive = build_archive(config) if world == "segment_walker" else None
    run_experiment(config, out_dir={str(tmp_path)!r}, archive=archive)
    summarize_runs({str(tmp_path / "runs.csv")!r})
assert "numpy.ma" not in sys.modules, sorted(name for name in sys.modules if name.startswith("numpy.ma"))
"""
        source = str(Path(experiment.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=source, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
