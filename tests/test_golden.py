"""Golden output bytes that must survive refactors.

Criterion 10 of the acceptance suite compares a run with itself inside one
process. These digests were recorded from an earlier version of the code,
so a change that alters any step count, summary figure or archive byte
fails here even when it is deterministic. The configs cover all four
methods on both worlds; the step cap is lowered so that capped runs stay
cheap but still occur. A change that is meant to alter these bytes is a
behaviour change and must say so, not re-record the digests quietly.
"""

import hashlib

import pytest

from sela.config import ExperimentConfig
from sela.experiment import build_archive, run_experiment
from sela.map_elites import save_archive
from sela.mission import Method

TOY = ExperimentConfig(
    world="point_robot",
    damage="angle_offset",
    methods=tuple(Method),
    replicates=4,
    step_cap=120,
)

WALKER = ExperimentConfig(
    world="segment_walker",
    damage="frozen_joint",
    methods=tuple(Method),
    replicates=4,
    step_cap=120,
)

# sha256 of (runs.csv, summary.csv) per world.
GOLDEN_RESULTS = {
    "point_robot": (
        "381768371ad3ad39e865f7a221edc19ff6564945af766f7cc77008f39357c7e1",
        "6c1af8032d521cbea7da1e78ecf050e84264f59fdc1606661f6c86a6473e8b29",
    ),
    "segment_walker": (
        "f8427ce392687688bb6945f11677c6cc709677bc862309748b64bd90d3cff1f0",
        "83f1b8a01cfdb80d30e007541eb0821658fb5d50093adf669de3da23f0c26478",
    ),
}

# sha256 of save_archive for WALKER's archive (default budget, base seed 0).
GOLDEN_ARCHIVE = "1c2e235e9eb494bfb66bcb2dc69a6597ccf4155dfb86e46996b949ca6e674bf1"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def walker_archive():
    return build_archive(WALKER)


def test_walker_archive_bytes(walker_archive):
    assert sha256(save_archive(walker_archive)) == GOLDEN_ARCHIVE


@pytest.mark.parametrize("config", [TOY, WALKER], ids=lambda config: config.world)
def test_result_bytes(config, walker_archive, tmp_path):
    archive = walker_archive if config.world == "segment_walker" else None
    run_experiment(config, out_dir=tmp_path, archive=archive)
    runs = sha256((tmp_path / "runs.csv").read_bytes())
    summary = sha256((tmp_path / "summary.csv").read_bytes())
    assert (runs, summary) == GOLDEN_RESULTS[config.world]
