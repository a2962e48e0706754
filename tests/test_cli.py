"""End-to-end command-line behavior, driven through main(argv)."""

import pytest

from sela import experiment
from sela.cli import main
from sela.experiment import RUNS_HEADER, SUMMARY_HEADER
from sela.reward import UnreachableGoalError

INTACT_CFG = """\
world = point_robot
noise_variance = 0.0
"""

DAMAGED_CFG = """\
world = point_robot
damage = angle_offset
methods = sela, babbling
replicates = 2
"""

WALKER_CFG = """\
world = segment_walker
damage = frozen_joint
archive_budget = 300
archive_grid = 10
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_intact_run_writes_results(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, INTACT_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        runs = (out / "runs.csv").read_text()
        assert runs.splitlines()[0] == RUNS_HEADER
        assert runs.splitlines()[1] == "0,sela,point_robot,0,0,28,28,true,0"
        stdout = capsys.readouterr().out
        assert "sela: median total 28 steps" in stdout
        assert "success 100%" in stdout

    def test_cli_overrides_apply(self, tmp_path):
        cfg = write_cfg(tmp_path, DAMAGED_CFG)
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out),
             "--replicates", "3", "--base-seed", "10"]
        )
        assert code == 0
        rows = (out / "runs.csv").read_text().splitlines()[1:]
        assert len(rows) == 6  # 2 methods x 3 replicates
        assert [row.split(",")[3] for row in rows[:3]] == ["10", "11", "12"]

    def test_missing_config_file_is_runtime_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "world = point_robot\nwarp_speed = 9\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "line 2" in err

    def test_bad_override_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, INTACT_CFG)
        code = main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--replicates", "0"]
        )
        assert code == 1

    def test_negative_base_seed_override_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, INTACT_CFG)
        code = main(
            ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--base-seed", "-1"]
        )
        assert code == 1
        assert "key 'base_seed' must be at least 0" in capsys.readouterr().err

    def test_walker_without_archive_fails_cleanly(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, WALKER_CFG)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "archive_path" in capsys.readouterr().err

    def test_walker_archive_with_a_repeated_behavior_fails_on_load(self, tmp_path, capsys):
        # the first mission's candidate set would otherwise reject the repeat
        archive = tmp_path / "elites.txt"
        archive.write_text(
            "sela-archive v1 m=2 grid=2x2 b=4 d=2\n"
            "cell=0,0 behavior=0.1,0.2,0.3,0.4 descriptor=0.25,0.25 perf=1.0 outcome=0.1,0.0\n"
            "cell=1,1 behavior=0.1,0.2,0.3,0.4 descriptor=0.75,0.75 perf=1.0 outcome=0.1,0.0\n"
        )
        cfg = write_cfg(tmp_path, WALKER_CFG + f"archive_path = {archive}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: line 3: behavior already listed on line 2\n"
        assert not (tmp_path / "out").exists()

    def test_failed_replicate_is_named_in_the_error(self, tmp_path, capsys, monkeypatch):
        def unreachable(method, mission):
            raise UnreachableGoalError("no path to the goal")

        monkeypatch.setattr(experiment, "run_method", unreachable)
        cfg = write_cfg(tmp_path, DAMAGED_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: no path to the goal\n  in the sela replicate with seed 0\n"


class TestBuildArchive:
    def test_builds_and_reports(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, WALKER_CFG)
        out = tmp_path / "elites.txt"
        assert main(["build-archive", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"sela-archive v1")
        assert "elites" in capsys.readouterr().out

    def test_rebuild_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, WALKER_CFG)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        main(["build-archive", "--config", str(cfg), "--out", str(first)])
        main(["build-archive", "--config", str(cfg), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_budget_below_the_default_initial_batch_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "world = segment_walker\narchive_budget = 50\n")
        code = main(["build-archive", "--config", str(cfg), "--out", str(tmp_path / "a.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2: key 'archive_budget'")
        assert not (tmp_path / "a.txt").exists()

    def test_point_robot_config_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, INTACT_CFG)
        code = main(["build-archive", "--config", str(cfg), "--out", str(tmp_path / "a.txt")])
        assert code == 1

    def test_archive_feeds_walker_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, WALKER_CFG)
        archive_path = tmp_path / "elites.txt"
        main(["build-archive", "--config", str(cfg), "--out", str(archive_path)])
        run_cfg = write_cfg(
            tmp_path, WALKER_CFG + f"archive_path = {archive_path}\n", name="run.cfg"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(run_cfg), "--out", str(out)]) == 0
        assert (out / "runs.csv").read_text().count("\n") == 2  # header + one run


class TestSummarize:
    def test_stdout_matches_summary_csv(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DAMAGED_CFG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        capsys.readouterr()
        assert main(["summarize", "--runs", str(out / "runs.csv")]) == 0
        assert capsys.readouterr().out == (out / "summary.csv").read_text()

    def test_out_file_written(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, INTACT_CFG)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        target = tmp_path / "fresh" / "summary.csv"
        assert main(["summarize", "--runs", str(out / "runs.csv"), "--out", str(target)]) == 0
        assert target.read_text().startswith(SUMMARY_HEADER)

    def test_corrupt_runs_file(self, tmp_path, capsys):
        bad = tmp_path / "runs.csv"
        bad.write_text("not,a,header\n")
        assert main(["summarize", "--runs", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")
