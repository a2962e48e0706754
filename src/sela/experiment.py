"""Replicated experiment harness.

Builds seeded worlds and priors from an ExperimentConfig, runs every
requested method over the replicate seeds, and persists results as two CSV
files. Output bytes are a pure function of (config, base_seed): replicate k
always uses seed base_seed + k, rows are written in (method, seed) order, and
floats use shortest round-trip formatting. The wall_ms column is therefore a
placeholder (always 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .acquisition import AcquisitionConfig, CandidateSet
from .config import ConfigError, ExperimentConfig, validate
from .gp import DistanceKind, Kernel, KernelFamily
from .map_elites import Archive, ArchivePrior, illuminate, load_archive
from .mission import (
    DropDetectorConfig,
    Method,
    MissionConfig,
    RunRecord,
    run_method,
)
from .reward import PlannerGrid
from .worlds import (
    AngleOffsetDamage,
    Damage,
    FrozenJointDamage,
    WALKER_JOINTS,
    WALKER_LOWER,
    WALKER_UPPER,
    make_point_robot_world,
    make_segment_walker_world,
    point_robot_prior,
    sample_point_robot_behavior,
    sample_walker_behavior,
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


def build_damage(config: ExperimentConfig) -> Damage:
    if config.damage == "none":
        return None
    if config.damage == "angle_offset":
        return AngleOffsetDamage(offset=config.damage_offset)
    return FrozenJointDamage(joint=config.damage_joint)


def build_kernel(config: ExperimentConfig) -> Kernel:
    distance = (
        DistanceKind.WRAPPED_ANGULAR
        if config.world == "point_robot"
        else DistanceKind.EUCLIDEAN
    )
    return Kernel(
        family=KernelFamily(config.kernel_family),
        sigma=config.kernel_sigma,
        distance=distance,
    )


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


def build_mission_config(
    config: ExperimentConfig, seed: int, archive: Archive | None = None, waypoint_cells=None
) -> MissionConfig:
    """Assemble the per-run bundle for one replicate seed. All seeds share one grid."""
    world_seed, sampler_seed = np.random.SeedSequence(seed).spawn(2)
    damage = build_damage(config)
    goal = np.array([config.goal_x, config.goal_y])
    if config.world == "point_robot":
        world = make_point_robot_world(damage, config.noise_variance, world_seed)
        candidates = CandidateSet.dense_theta_grid(config.candidate_grid)
        prior = point_robot_prior
        sampler = sample_point_robot_behavior
    else:
        if archive is None:
            raise ValueError("segment_walker missions need a prebuilt archive")
        world = make_segment_walker_world(damage, config.noise_variance, world_seed)
        candidates = CandidateSet.from_archive(archive)
        prior = ArchivePrior(archive)
        sampler = sample_walker_behavior
    grid = PlannerGrid.for_mission(
        start=world.pose,
        goal=goal,
        cell_size=config.cell_size,
        margin=config.planner_margin,
    )
    return MissionConfig(
        world=world,
        candidates=candidates,
        prior=prior,
        kernel=build_kernel(config),
        gp_noise=config.gp_noise,
        goal=goal,
        epsilon_goal=config.epsilon_goal,
        grid=grid,
        lookahead_cells=config.lookahead_cells,
        acquisition=AcquisitionConfig(alpha=config.alpha),
        drop=DropDetectorConfig(window=config.drop_window, threshold=config.drop_threshold),
        max_adapt_iterations=config.adapt_iterations(),
        step_cap=config.step_cap,
        seed=seed,
        rng=np.random.default_rng(sampler_seed),
        behavior_sampler=sampler,
        babble_max=config.babble_max,
        epsilon_model=config.epsilon_model,
        uncertainty_iterations=config.uncertainty_iterations,
        episodic_success_projection=config.episodic_success_projection,
        waypoint_cells={} if waypoint_cells is None else waypoint_cells,
    )


def run_experiment(
    config: ExperimentConfig, out_dir=None, archive: Archive | None = None
) -> tuple[list[RunRecord], list[SummaryRow]]:
    """Run methods x replicates sequentially; optionally persist both CSVs.

    The config is validated and a walker archive's dimensions and elites
    checked first, so a directly built config fails here rather than inside a
    mission. An exception from a replicate propagates with a note naming its
    method and seed. All missions share one waypoint table.
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
    records = []
    waypoint_cells = {}
    for method in config.methods:
        for replicate in range(config.replicates):
            seed = config.base_seed + replicate
            try:
                mission = build_mission_config(config, seed, archive, waypoint_cells)
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
            values = np.array([getattr(r, metric) for r in subset], dtype=float)
            q25, median, q75 = np.percentile(values, [25, 50, 75])
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


def runs_csv_text(records: list[RunRecord], world: str) -> str:
    lines = [RUNS_HEADER]
    for run_id, record in enumerate(records):
        lines.append(
            ",".join(
                [
                    str(run_id),
                    record.method.value,
                    world,
                    str(record.seed),
                    str(record.learn_steps),
                    str(record.exec_steps),
                    str(record.total_steps),
                    "true" if record.reached else "false",
                    "0",   # deterministic placeholder, see module docstring
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_csv_text(summary: list[SummaryRow]) -> str:
    lines = [SUMMARY_HEADER]
    for row in summary:
        figures = (row.q25, row.median, row.q75, row.success_rate)
        lines.append(",".join([row.method.value, row.metric] + [repr(float(v)) for v in figures]))
    return "\n".join(lines) + "\n"


def write_results(
    records: list[RunRecord], summary: list[SummaryRow], out_dir, world: str
) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    summary_path = out / "summary.csv"
    runs_path.write_text(runs_csv_text(records, world), encoding="utf-8", newline="")
    summary_path.write_text(summary_csv_text(summary), encoding="utf-8", newline="")
    return runs_path, summary_path


def read_runs_csv(path) -> tuple[str, list[RunRecord]]:
    """Parse a runs.csv back into records; returns (world, records)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != RUNS_HEADER:
        raise ValueError(f"unrecognized runs.csv header in {path}")
    world = ""
    records = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise ValueError(f"malformed runs.csv row: {line!r}")
        world = parts[2]
        records.append(
            RunRecord(
                method=Method(parts[1]),
                learn_steps=int(parts[4]),
                exec_steps=int(parts[5]),
                total_steps=int(parts[6]),
                reached=parts[7] == "true",
                seed=int(parts[3]),
            )
        )
    return world, records


def summarize_runs(path) -> list[SummaryRow]:
    """Recompute summary statistics from a persisted runs.csv."""
    _, records = read_runs_csv(path)
    if not records:
        raise ValueError(f"no run rows in {path}")
    return compute_summary(records)
