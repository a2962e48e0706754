"""Semi-episodic learning for robot damage recovery on desk-scale worlds."""

from .acquisition import AcquisitionConfig, CandidateSet, select_next
from .config import ConfigError, ExperimentConfig, parse_config, parse_config_file
from .gp import (
    CandidatePosterior,
    DistanceKind,
    GpFitError,
    GpModel,
    Kernel,
    KernelFamily,
    ObservationSet,
    fit,
    predict,
    predict_batch,
    zero_prior,
)
from .map_elites import (
    Archive,
    ArchiveFormatError,
    ArchivePrior,
    Elite,
    OfferResult,
    bin_index,
    illuminate,
    load_archive,
    save_archive,
)
from .mission import (
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
from .reward import (
    PlannerGrid,
    RewardFunction,
    UnreachableGoalError,
    astar,
    build_waypoint_reward,
    make_distance_reward,
)
from .worlds import (
    AngleOffsetDamage,
    FrozenJointDamage,
    World,
    apply_damage,
    goal_reached,
    make_point_robot_world,
    make_segment_walker_world,
    point_robot_intact,
    point_robot_prior,
    segment_walker_evaluator,
    segment_walker_model,
    wrap_angle,
)
from .experiment import (
    SummaryRow,
    build_archive,
    build_mission_config,
    compute_summary,
    run_experiment,
    summarize_runs,
    write_results,
)

__version__ = "0.1.0"
