"""Replicated experiment harness.

Builds seeded worlds, damaged as their `sela.config.WORLDS` row builds, and
priors from an ExperimentConfig, runs every requested method over the replicate
seeds, and persists results as two CSV files. Output bytes are a pure function
of (config, base_seed): replicate k always uses seed base_seed + k, rows are
written in (method, seed) order, and floats use shortest round-trip formatting.
The wall_ms column is therefore a placeholder (always 0).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .acquisition import CandidateSet
from .config import WORLDS, ConfigError, ExperimentConfig, validate
from .gp import Kernel, KernelFamily
from .map_elites import Archive, ArchivePrior, illuminate, load_archive
from .mission import (
    Method,
    MissionConfig,
    RunRecord,
    run_method,
)
from .worlds import (
    WALKER_JOINTS,
    WALKER_LOWER,
    WALKER_SEGMENT_STEP,
    WALKER_UPPER,
    point_robot_prior,
    segment_walker_evaluator,
)

RUNS_HEADER = "run_id,method,world,seed,learn_steps,exec_steps,total_steps,reached,wall_ms"
SUMMARY_HEADER = "method,metric,q25,median,q75,success_rate"
_METRICS = ("learn_steps", "exec_steps", "total_steps")


@dataclass(frozen=True)
class SummaryRow:
    method: Method
    metric: str
    q25: float
    median: float
    q75: float
    success_rate: float


def build_archive(config: ExperimentConfig, on_offer=None) -> Archive:
    """Illuminate the walker behavior space with the intact model."""
    if config.world != "segment_walker":
        raise ConfigError("archives are only defined for the segment_walker world")
    return illuminate(
        segment_walker_evaluator,
        budget=config.archive_budget,
        seed=config.base_seed,
        lower=WALKER_LOWER,
        upper=WALKER_UPPER,
        grid_shape=(config.archive_grid, config.archive_grid),
        mutation_sigma=config.archive_mutation_sigma,
        init_batch=config.archive_init_batch,
        on_offer=on_offer,
    )


def load_archive_file(path) -> Archive:
    return load_archive(Path(path).read_bytes())


def _seeded_parts(config: ExperimentConfig, seed: int) -> dict:
    """What a replicate seed sets in a mission: its world, sampler rng and seed."""
    world_seed, sampler_seed = np.random.SeedSequence(seed).spawn(2)
    make_world, build_damage = WORLDS[config.world].make, WORLDS[config.world].build_damage
    world = make_world(None if config.damage == "none" else build_damage(config), config.noise_variance, world_seed)
    return dict(world=world, rng=np.random.default_rng(sampler_seed), seed=seed)


def build_mission_config(
    config: ExperimentConfig, seed: int, archive: Archive | None = None
) -> MissionConfig:
    """Assemble the mission of one replicate seed; `run_experiment`'s template. Each defaulted
    `MissionConfig` knob comes from the `ExperimentConfig` key of its name."""
    if config.world == "point_robot":
        candidates = CandidateSet.dense_theta_grid(config.candidate_grid)
        prior = point_robot_prior
    else:
        if archive is None:
            raise ValueError("segment_walker missions need a prebuilt archive")
        candidates = CandidateSet(points=np.array([elite.behavior for elite in archive.elites()]))
        prior = ArchivePrior(archive)
    return MissionConfig(
        **_seeded_parts(config, seed),
        candidates=candidates,
        prior=prior,
        kernel=Kernel(family=KernelFamily(config.kernel_family), sigma=config.kernel_sigma,
                      distance=WORLDS[config.world].distance),
        gp_noise=config.gp_noise,
        goal=np.array([config.goal_x, config.goal_y]),
        epsilon_goal=config.epsilon_goal,
        grid=config.planner_grid(),
        lookahead_cells=config.lookahead_cells,
        max_adapt_iterations=config.adapt_iterations(),
        step_cap=config.step_cap,
        behavior_sampler=WORLDS[config.world].sample,
        **{f.name: getattr(config, f.name) for f in fields(MissionConfig) if f.default is not MISSING},
    )


def run_experiment(
    config: ExperimentConfig, out_dir=None, archive: Archive | None = None
) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Run methods x replicates sequentially; optionally persist both CSVs.

    The config and a walker archive's dimensions, emptiness, behavior range and outcome
    lengths are checked here, and a repeated behavior by `load_archive` or the template's
    `CandidateSet`, all before any replicate runs. A replicate's exception propagates with
    a note naming its method and seed. Replicates change only the template's world, rng and seed.
    """
    validate(config)
    if config.world == "segment_walker":
        if archive is None:
            if config.archive_path is None:
                raise ConfigError("segment_walker experiments need 'archive_path'")
            archive = load_archive_file(config.archive_path)
        if (archive.behavior_dim, archive.outcome_dim) != (WALKER_JOINTS, 2):
            raise ConfigError(
                f"archive_path {config.archive_path}: the archive has b={archive.behavior_dim} "
                f"d={archive.outcome_dim}, the segment walker needs b={WALKER_JOINTS} d=2"
            )
        if not archive.cells:
            raise ConfigError(f"archive_path {config.archive_path}: the archive lists no elites")
        # illuminate clamps every behavior to the joint range; no step is longer than its legs (1e-9 is room
        # for build_archive's rounding); `not ... <=` fails a NaN; in floats: numpy's `any` pages in unrun code
        lower, upper = WALKER_LOWER.tolist(), WALKER_UPPER.tolist()
        for elite in archive.cells.values():
            if any(not low <= x <= high for x, low, high in zip(elite.behavior.tolist(), lower, upper)):
                raise ConfigError(f"archive_path {config.archive_path}: a behavior lies outside the joint range")
            if not math.hypot(*elite.outcome.tolist()) <= WALKER_JOINTS * WALKER_SEGMENT_STEP * (1.0 + 1e-9):
                raise ConfigError(f"archive_path {config.archive_path}: an outcome is longer than the walker "
                                  f"steps, {WALKER_JOINTS} legs of {WALKER_SEGMENT_STEP}")
    template = build_mission_config(config, config.base_seed, archive)
    records = []
    for method in config.methods:
        for replicate in range(config.replicates):
            seed = config.base_seed + replicate
            try:
                mission = replace(template, **_seeded_parts(config, seed))
                records.append(run_method(method, mission))
            except Exception as exc:
                exc.add_note(f"in the {method.value} replicate with seed {seed}")
                raise
    summary = compute_summary(records)
    if out_dir is not None:
        write_results(records, summary, out_dir, world=config.world)
    return records, summary


def compute_summary(records: list[RunRecord]) -> list[SummaryRow]:
    """Quartiles per method and metric plus the fraction of goals reached."""
    rows = []
    for method in dict.fromkeys(record.method for record in records):
        subset = [r for r in records if r.method == method]
        success = float(np.mean([r.reached for r in subset]))
        for metric in _METRICS:
            values = np.sort(np.array([getattr(r, metric) for r in subset], dtype=float))
            # np.percentile's linear rule, exact on integer counts; its np.unique imports numpy.ma
            q25, median, q75 = np.interp(np.arange(1, 4) / 4 * (len(values) - 1), np.arange(len(values)), values)
            rows.append(
                SummaryRow(
                    method=method,
                    metric=metric,
                    q25=float(q25),
                    median=float(median),
                    q75=float(q75),
                    success_rate=success,
                )
            )
    return rows


def _runs_row(run_id: int, record: RunRecord, world: str) -> str:
    reached = "true" if record.reached else "false"
    fields = (run_id, record.method.value, world, record.seed, record.learn_steps,
              record.exec_steps, record.total_steps, reached, 0)   # wall_ms: see module docstring
    return ",".join(map(str, fields))


def runs_csv_text(records: list[RunRecord], world: str) -> str:
    rows = [_runs_row(run_id, record, world) for run_id, record in enumerate(records)]
    return "\n".join([RUNS_HEADER, *rows]) + "\n"


def summary_csv_text(summary: list[SummaryRow]) -> str:
    lines = [SUMMARY_HEADER]
    for row in summary:
        figures = (row.q25, row.median, row.q75, row.success_rate)
        lines.append(",".join([row.method.value, row.metric] + [repr(float(v)) for v in figures]))
    return "\n".join(lines) + "\n"


def write_results(
    records: list[RunRecord], summary: list[SummaryRow], out_dir, world: str
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "runs.csv").write_text(runs_csv_text(records, world), encoding="utf-8", newline="")
    (out / "summary.csv").write_text(summary_csv_text(summary), encoding="utf-8", newline="")


def read_runs_csv(path) -> tuple[str, list[RunRecord]]:
    """Parse a runs.csv back into records; returns (world, records). A row that
    `runs_csv_text` would not write back the same (after the first row's world)
    raises ValueError naming its line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != RUNS_HEADER:
        raise ValueError(f"unrecognized runs.csv header in {path}")
    world = ""
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        try:
            if len(parts) != 9:
                raise ValueError(f"expected 9 fields, got {len(parts)}")
            world = world or parts[2]
            record = RunRecord(
                method=Method(parts[1]),
                learn_steps=int(parts[4]),
                exec_steps=int(parts[5]),
                total_steps=int(parts[6]),
                reached=parts[7] == "true",
                seed=int(parts[3]),
            )
            if _runs_row(len(records), record, world) != line:
                raise ValueError(f"runs.csv never holds the row {line!r}")
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        records.append(record)
    return world, records


def summarize_runs(path) -> list[SummaryRow]:
    """Recompute summary statistics from a persisted runs.csv."""
    _, records = read_runs_csv(path)
    if not records:
        raise ValueError(f"no run rows in {path}")
    return compute_summary(records)
