"""Golden output bytes that must survive refactors.

Criterion 10 of the acceptance suite compares a run with itself inside one
process. These digests were recorded from an earlier version of the code,
so a change that alters any step count, summary figure, archive byte or
decision of a step (what it picks, predicts and observes) fails here even
when it is deterministic. The configs cover all four methods on both
worlds; the step cap is lowered so that capped runs stay cheap but still
occur. One more decision stream, perfbench's long-adaptation config, covers
models of about 220 inputs. A change that is meant to alter these bytes is a
behaviour change and must say so, not re-record the digests quietly.

The digests also rest on four facts of numpy, OpenBLAS and libm. A version
bump that breaks one fails its guard first, with a named cause:

- `np.vecdot` of a 2-vector with itself gives the bits of
  `fma(x1, x1, fl(x0²))`: test_reward.py::TestDistanceReward::
  test_vecdot_of_a_two_vector_is_the_fma_of_its_second_square_onto_its_first;
- the walker's `math.cos` and `math.sin` agree with `np.cos` and `np.sin`:
  test_worlds.py::TestScalarWalkerModel::
  test_frozen_joint_world_matches_the_numpy_formula;
- numpy's reduce adds fewer than 8 values in order:
  test_mission.py::TestDropDetector::
  test_window_mean_of_norms_across_magnitudes_equals_numpy_mean;
- `vector_length` equals `np.linalg.norm`:
  test_worlds.py::TestVectorLength::test_equals_numpy_norm_bit_for_bit.

`golden_fingerprints.txt` holds a fingerprint per step of each decision
stream, so a changed stream names the first step it changed at.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sela import experiment, mission
from sela.config import ExperimentConfig
from sela.experiment import build_archive, run_experiment
from sela.map_elites import save_archive
from sela.mission import Method, MissionState
from sela.worlds import World

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

# perfbench's long-adaptation config: the goal is never reached, so every mission runs
# 250 steps and its model grows to about 220 inputs, which no other golden reaches.
LONG = ExperimentConfig(
    world="point_robot",
    damage="angle_offset",
    replicates=3,
    step_cap=250,
    goal_x=6.0,
    goal_y=6.0,
    noise_variance=0.05,
    epsilon_goal=1e-9,
)

# The decision streams' configs by the name their digests and fingerprints are recorded under.
STREAMS = {"point_robot": TOY, "segment_walker": WALKER, "long_adaptation": LONG}

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


# sha256 of each (stream, method)'s decision stream over the replicates of its
# config in STREAMS: per step, in order, the seed and step number, the chosen
# candidate's index or else the executed behavior's bytes, the predicted mean's
# bytes where the step forms one, the observed outcome's bytes and whether the
# pose was reset. A change to what a mission predicts or picks moves these even
# where the step counts above stay the same.
GOLDEN_DECISIONS = {
    "point_robot": {
        "sela": "a95db6b6a1c9f9cd27fe5062ef78a65735429f5432a49374b06cfb1e3521599a",
        "babbling": "1e637a8bc445dec65e1013f5d0c70667948dea71a9e0866621a1b38a0826987d",
        "episodic_ite": "eacc1df1f9d0ed84bf376e843ff1f1c83a26baf9bd97beae35f8f4bcdc299634",
        "uncertainty": "355f516e3be390acbea5ed1cbdd96ddc19e2c2b58c25d4fcce52609e4ece5cd4",
    },
    "segment_walker": {
        "sela": "91c9a4c0862b81b8fabfe482aeb4b3dd1930836aefb89b5164483c2a167e67ed",
        "babbling": "bd1729931067eb97b8aa2f916de2cbd2823bdb96c528ddd780beb47d5e7a8f76",
        "episodic_ite": "2fb93df9da4baccfa831f02317fe2a5fd444743fcdc9d9d16f710b7e8489e466",
        "uncertainty": "f9e5fb11afe0d0e275873155cc6152f8cb395374c0bf02f56eb21f489f355c7a",
    },
    "long_adaptation": {
        "sela": "9034d74a18bcc8bffeff3e00e44ce91b6b7b3a5a10831e92e6fb699f6d9100b2",
    },
}


def decision_streams(config, archive):
    """Run `config`'s experiment with its decisions recorded; returns each
    method's stream, one line per step, after checking that each run executes
    exactly its `total_steps` behaviors."""
    runs = {method: [] for method in config.methods}
    steps, chosen = [], []   # the current run's steps; a choice not yet executed
    execute, reset_pose = World.execute, World.reset_pose
    select_next, record_error = mission.select_next, MissionState.record_error
    run_method = experiment.run_method

    def recording_execute(world, behavior):
        observed = execute(world, behavior)
        choice = f"i{chosen.pop()}" if chosen else "b" + np.asarray(behavior).tobytes().hex()
        steps.append({"choice": choice, "predicted": "-", "observed": observed.tobytes().hex(), "reset": "0"})
        return observed

    def recording_reset_pose(world, pose):
        steps[-1]["reset"] = "1"
        reset_pose(world, pose)

    def recording_select_next(*args):
        behavior, index = select_next(*args)
        chosen[:] = [index]
        return behavior, index

    def recording_record_error(state, predicted, observed):
        steps[-1]["predicted"] = np.asarray(predicted).tobytes().hex()
        return record_error(state, predicted, observed)

    def recording_run_method(method, mission_config):
        steps.clear()
        record = run_method(method, mission_config)
        assert len(steps) == record.total_steps
        for number, step in enumerate(steps, start=1):
            runs[method].append(" ".join([str(mission_config.seed), str(number), *step.values()]))
        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(World, "execute", recording_execute)
        patch.setattr(World, "reset_pose", recording_reset_pose)
        patch.setattr(mission, "select_next", recording_select_next)
        patch.setattr(MissionState, "record_error", recording_record_error)
        patch.setattr(experiment, "run_method", recording_run_method)
        run_experiment(config, archive=archive)
    return {method.value: stream for method, stream in runs.items()}


@pytest.fixture(scope="module")
def streams(walker_archive):
    """The decision streams of a config in STREAMS by its name, run once per module."""
    recorded = {}

    def of(name):
        if name not in recorded:
            archive = walker_archive if STREAMS[name] is WALKER else None
            recorded[name] = decision_streams(STREAMS[name], archive)
        return recorded[name]

    return of


@pytest.mark.parametrize("name", STREAMS)
def test_decision_digests(name, streams):
    digests = {method: sha256("\n".join(stream).encode()) for method, stream in streams(name).items()}
    assert digests == GOLDEN_DECISIONS[name]


# Per (stream, method), an 8-hex sha256 prefix of each line of the decision
# stream above, recorded with the digests: where a digest alone says only
# that a stream changed, these say at which step it first did.
FINGERPRINTS = Path(__file__).with_name("golden_fingerprints.txt")


def fingerprint(line: str) -> str:
    return sha256(line.encode())[:8]


def read_fingerprints(path=FINGERPRINTS) -> dict:
    """The recorded fingerprints per (stream, method): the file holds a `# stream method`
    line before each stream's fingerprints, one per line."""
    recorded = {}
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("# "):
            recorded[tuple(line[2:].split())] = prints = []
        else:
            prints.append(line)
    return recorded


def divergence(stream: list, recorded: list) -> str:
    """Where `stream` first leaves its `recorded` fingerprints, or '' where it never does."""
    prints = [fingerprint(line) for line in stream]
    if prints == recorded:
        return ""
    equal = next((i for i, (a, b) in enumerate(zip(prints, recorded)) if a != b), min(len(prints), len(recorded)))
    where = ("at seed {}, step {}".format(*stream[equal].split()[:2]) if equal < len(stream)
             else f"where the run ends, after line {equal}")
    steps = f"; {len(recorded)} -> {len(stream)} steps" if len(stream) != len(recorded) else ""
    return f"first diverges {where} ({equal} of {len(recorded)} recorded lines equal){steps}"


@pytest.mark.parametrize("name", STREAMS)
def test_decision_fingerprints(name, streams):
    recorded = read_fingerprints()
    diverged = [f"{name} {method}: {message}" for method, stream in streams(name).items()
                if (message := divergence(stream, recorded[name, method]))]
    assert not diverged, "\n".join(diverged)


def record_fingerprints(path=FINGERPRINTS) -> None:
    """Write the fingerprints of every config in STREAMS to `path`. Recording them again
    is a change to this check, made only with a behaviour change that says so."""
    archive = build_archive(WALKER)
    lines = []
    for name, config in STREAMS.items():
        for method, stream in decision_streams(config, archive if config is WALKER else None).items():
            lines += [f"# {name} {method}", *map(fingerprint, stream)]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


if __name__ == "__main__":   # PYTHONPATH=src python tests/test_golden.py
    record_fingerprints()
