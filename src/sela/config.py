"""Flat `key = value` experiment configuration.

Lines hold one assignment each; `#` starts a comment. Unknown keys are
rejected with their line number so typos fail fast. Omitted keys fall back
to the published defaults; the adaptation budget default depends on the
world (10 for the point robot, 15 for the walker). Every float must be
finite, each damage kind must suit the world (`angle_offset` the point
robot, `frozen_joint` the walker), no method may be listed twice, the
archive budget must cover the archive's initial random batch, seeds must be
non-negative, the direction grid may hold at most
`sela.acquisition.MAX_CANDIDATES` points, no method's model may grow past
`sela.gp.MAX_GP_OBSERVATIONS` observations, and the goal must be near enough
for a planner grid of at most `sela.reward.MAX_PLANNER_CELLS` cells. The same
checks (`validate`) run on configs built directly or through
`with_overrides`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

from .acquisition import MAX_CANDIDATES
from .gp import MAX_GP_OBSERVATIONS, MIN_KERNEL_SIGMA
from .map_elites import initial_batch
from .mission import EPISODIC_DIRECTIONS, Method
from .reward import PlannerGrid
from .worlds import WALKER_JOINTS

WORLDS = ("point_robot", "segment_walker")
DAMAGE_KINDS = ("none", "angle_offset", "frozen_joint")
KERNEL_FAMILIES = ("squared_exponential", "exponential")

# The one world each damage kind applies to.
DAMAGE_WORLD = {"angle_offset": "point_robot", "frozen_joint": "segment_walker"}

# World-dependent default for max_adapt_iterations.
ADAPT_ITERATIONS_BY_WORLD = {"point_robot": 10, "segment_walker": 15}


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class ExperimentConfig:
    world: str
    methods: tuple[Method, ...] = (Method.SELA,)
    replicates: int = 1
    base_seed: int = 0
    damage: str = "none"
    damage_offset: float = 0.5
    damage_joint: int = 0
    noise_variance: float = 0.01
    goal_x: float = 2.0
    goal_y: float = 2.0
    epsilon_goal: float = 0.1
    alpha: float = 0.05
    kernel_family: str = "squared_exponential"
    kernel_sigma: float = 0.1
    gp_noise: float = 0.001
    max_adapt_iterations: Optional[int] = None   # None: world default
    epsilon_model: float = 0.01
    babble_max: int = 15
    uncertainty_iterations: int = 15
    episodic_success_projection: float = 0.09
    drop_window: int = 3
    drop_threshold: float = 0.15
    lookahead_cells: int = 2
    cell_size: float = 0.1
    planner_margin: float = 1.0
    step_cap: int = 500
    candidate_grid: int = 360
    archive_path: Optional[str] = None
    archive_budget: int = 50000
    archive_grid: int = 20
    archive_mutation_sigma: float = 0.2
    archive_init_batch: Optional[int] = None

    def adapt_iterations(self) -> int:
        if self.max_adapt_iterations is not None:
            return self.max_adapt_iterations
        return ADAPT_ITERATIONS_BY_WORLD[self.world]


def _parser(kind, noun: str):
    """Parses a key's value as kind(value); a ValueError becomes a ConfigError naming the line."""
    def parse(value: str, key: str, line_no: int):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: key '{key}' expects {noun}, got {value!r}") from None
    return parse


def _parse_methods(value: str, key: str, line_no: int) -> tuple[Method, ...]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    if not names:
        raise ConfigError(f"line {line_no}: key 'methods' expects at least one method")
    methods = []
    for name in names:
        try:
            methods.append(Method(name))
        except ValueError:
            known = ", ".join(m.value for m in Method)
            raise ConfigError(
                f"line {line_no}: unknown method {name!r}, expected one of {known}"
            ) from None
    return tuple(methods)


# Keys whose value must name one of a fixed set of choices.
_CHOICES = {"world": WORLDS, "damage": DAMAGE_KINDS, "kernel_family": KERNEL_FAMILIES}

# Value parser per field annotation; the choice keys are checked by validate.
_PARSE_BY_TYPE = {
    "str": _parser(str, "text"),
    "int": _parser(int, "an integer"),
    "Optional[int]": _parser(int, "an integer"),
    "float": _parser(float, "a number"),
    "Optional[str]": _parser(str, "text"),
    "tuple[Method, ...]": _parse_methods,
}

# One parser per ExperimentConfig field; the field names are the known keys.
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type] for f in fields(ExperimentConfig)}

# (key, bound, inclusive) checked after parsing.
_LOWER_BOUNDS = [
    ("replicates", 1, True),
    ("base_seed", 0, True),
    ("noise_variance", 0.0, True),
    ("epsilon_goal", 0.0, False),
    ("alpha", 0.0, True),
    ("kernel_sigma", MIN_KERNEL_SIGMA, True),
    ("gp_noise", 0.0, True),
    ("max_adapt_iterations", 1, True),
    ("epsilon_model", 0.0, False),
    ("babble_max", 1, True),
    ("uncertainty_iterations", 1, True),
    ("drop_window", 1, True),
    ("drop_threshold", 0.0, False),
    ("lookahead_cells", 1, True),
    ("cell_size", 0.0, False),
    ("planner_margin", 0.0, True),
    ("step_cap", 1, True),
    ("candidate_grid", 1, True),
    ("archive_budget", 1, True),
    ("archive_grid", 1, True),
    ("archive_mutation_sigma", 0.0, False),
    ("archive_init_batch", 1, True),
    ("damage_joint", 0, True),
]


def validate(config: ExperimentConfig, lines: Optional[dict] = None) -> ExperimentConfig:
    """Check choices, value ranges and that the damage suits the world;
    `lines` maps the keys set in a config text to their line numbers, which
    then lead the error message."""

    def fail(key: str, message: str):
        where = f"line {lines[key]}: " if lines and key in lines else ""
        raise ConfigError(f"{where}key '{key}' {message}")

    for key, choices in _CHOICES.items():
        value = getattr(config, key)
        if value not in choices:
            fail(key, f"expects one of {', '.join(choices)}, got {value!r}")
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            fail(f.name, f"expects a finite number, got {value}")
    for key, bound, inclusive in _LOWER_BOUNDS:
        value = getattr(config, key)
        if value is None:
            continue
        ok = value >= bound if inclusive else value > bound
        if not ok:
            relation = "at least" if inclusive else "greater than"
            fail(key, f"must be {relation} {bound}, got {value}")
    if config.candidate_grid > MAX_CANDIDATES:
        fail("candidate_grid", f"must be at most {MAX_CANDIDATES}, got {config.candidate_grid}")
    # Each learning trial adds one observation, and no method learns past step_cap.
    for method, key, budget in (
        (Method.SELA, "step_cap", config.step_cap),
        (Method.BABBLING, "babble_max", config.babble_max),
        (Method.UNCERTAINTY, "uncertainty_iterations", config.uncertainty_iterations),
        (Method.EPISODIC_ITE, "max_adapt_iterations",
         len(EPISODIC_DIRECTIONS) * config.adapt_iterations()),
    ):
        size = min(budget, config.step_cap)
        if method in config.methods and size > MAX_GP_OBSERVATIONS:
            fail(key, f"lets the {method.value} model grow to {size} observations, "
                 f"above MAX_GP_OBSERVATIONS = {MAX_GP_OBSERVATIONS}")
    repeated = [m for i, m in enumerate(config.methods) if m in config.methods[:i]]
    if repeated:
        fail("methods", f"lists {repeated[0].value!r} more than once")
    batch = initial_batch(config.archive_budget, config.archive_init_batch)
    if config.archive_budget < batch:
        if config.archive_init_batch is None:
            fail("archive_budget", f"must be at least the default initial batch {batch}, "
                 f"got {config.archive_budget}")
        fail("archive_init_batch", f"must be at most archive_budget = {config.archive_budget}, "
             f"got {batch}")
    if config.damage_joint >= WALKER_JOINTS:
        fail("damage_joint", f"must be below {WALKER_JOINTS}, got {config.damage_joint}")
    world = DAMAGE_WORLD.get(config.damage, config.world)
    if world != config.world:
        fail("damage", f"{config.damage!r} needs world {world!r}, got {config.world!r}")
    try:
        # every world starts at the origin
        PlannerGrid.for_mission(
            (0.0, 0.0), (config.goal_x, config.goal_y), config.cell_size, config.planner_margin
        )
    except ValueError as exc:
        raise ConfigError(f"keys 'goal_x', 'goal_y', 'cell_size', 'planner_margin': {exc}") from None
    return config


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text into an ExperimentConfig with defaults filled in."""
    assigned: dict = {}
    seen_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        if key not in _PARSERS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in seen_lines:
            raise ConfigError(
                f"line {line_no}: key '{key}' already set on line {seen_lines[key]}"
            )
        seen_lines[key] = line_no
        assigned[key] = _PARSERS[key](value, key, line_no)
    if "world" not in assigned:
        raise ConfigError("missing required key 'world'")
    return validate(ExperimentConfig(**assigned), seen_lines)


def parse_config_file(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def with_overrides(config: ExperimentConfig, **changes) -> ExperimentConfig:
    return validate(replace(config, **changes))
