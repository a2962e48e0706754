"""Experiment harness: seeded assembly, CSV persistence, and summaries."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sela.reward
from sela import experiment
from sela.config import ConfigError, ExperimentConfig, parse_config_file, validate
from sela.experiment import (
    RUNS_HEADER,
    SUMMARY_HEADER,
    SummaryRow,
    build_archive,
    build_damage,
    build_kernel,
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
from sela.gp import MIN_KERNEL_SIGMA, DistanceKind
from sela.map_elites import Archive, Elite, save_archive
from sela.mission import Method, RunRecord
from sela.worlds import WALKER_JOINTS, AngleOffsetDamage, FrozenJointDamage


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
    def test_damage_kinds(self):
        assert build_damage(INTACT) is None
        offset = build_damage(ExperimentConfig(world="point_robot", damage="angle_offset"))
        assert offset == AngleOffsetDamage(offset=0.5)
        frozen = build_damage(
            ExperimentConfig(world="segment_walker", damage="frozen_joint", damage_joint=2)
        )
        assert frozen == FrozenJointDamage(joint=2)

    def test_kernel_distance_follows_world(self):
        assert build_kernel(INTACT).distance is DistanceKind.WRAPPED_ANGULAR
        walker = ExperimentConfig(world="segment_walker")
        assert build_kernel(walker).distance is DistanceKind.EUCLIDEAN

    def test_archive_requires_walker_world(self):
        with pytest.raises(ConfigError):
            build_archive(INTACT)

    def test_walker_mission_requires_archive(self):
        with pytest.raises(ValueError):
            build_mission_config(ExperimentConfig(world="segment_walker"), seed=0)

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
        assert mission.acquisition.alpha == 0.2
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
        runs_path, summary_path = write_results(
            records, compute_summary(records), tmp_path, world="point_robot"
        )
        world, loaded = read_runs_csv(runs_path)
        assert world == "point_robot"
        assert [
            (r.method, r.seed, r.learn_steps, r.exec_steps, r.total_steps, r.reached)
            for r in loaded
        ] == [
            (r.method, r.seed, r.learn_steps, r.exec_steps, r.total_steps, r.reached)
            for r in records
        ]
        assert summary_path.read_text().startswith(SUMMARY_HEADER)

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

        def counting_astar(grid, start, goal):
            starts.append(start)
            return astar(grid, start, goal)

        monkeypatch.setattr(sela.reward, "astar", counting_astar)
        records, _ = run_experiment(replace(DAMAGED, step_cap=80))
        assert sum(r.exec_steps for r in records) > len(starts) > 0
        assert len(starts) == len(set(starts))
