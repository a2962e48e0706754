"""Flat `key = value` experiment configuration.

Lines hold one assignment each; `#` starts a comment. Unknown keys are rejected
with their line number so typos fail fast. Each key is declared once, as an
`ExperimentConfig` field: its type picks the parser and the values that `validate`
accepts, and the field holds its default, lower bound and choices. A default that
the class it configures also holds is read from there (`Kernel.sigma`, say, and
the mission knobs from `MissionConfig`); each world's facts are the named columns
of its `WorldFacts` row in `WORLDS`. Every float must be finite, each damage kind
must suit the world (`WORLDS` pairs them), no method may be listed twice, the
archive budget must cover the archive's initial random batch, the direction grid
may hold at most `sela.acquisition.MAX_CANDIDATES` points, no method's model may
grow past `sela.gp.MAX_GP_OBSERVATIONS` observations, and the goal must be near enough
for a planner grid of at most `sela.reward.MAX_PLANNER_CELLS` cells whose points have
finite squared lengths. Configs built directly or by `with_overrides` get the same checks.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

from .acquisition import MAX_CANDIDATES
from .gp import MAX_GP_OBSERVATIONS, MIN_KERNEL_SIGMA, DistanceKind, Kernel, KernelFamily, ObservationSet
from .map_elites import initial_batch
from .mission import EPISODIC_DIRECTIONS, Method, MissionConfig
from .reward import PlannerGrid
from .worlds import (WALKER_JOINTS, AngleOffsetDamage, FrozenJointDamage, make_point_robot_world,
                     make_segment_walker_world, sample_point_robot_behavior, sample_walker_behavior)


class WorldFacts(NamedTuple):
    """A world's maker, behavior sampler, kernel distance, damage kind, damage builder and default adaptation budget."""
    make: Callable
    sample: Callable
    distance: DistanceKind
    damage: str
    build_damage: Callable
    adapt_iterations: int


WORLDS = {
    "point_robot": WorldFacts(make_point_robot_world, sample_point_robot_behavior, DistanceKind.WRAPPED_ANGULAR,
                              "angle_offset", lambda config: AngleOffsetDamage(config.damage_offset), 10),
    "segment_walker": WorldFacts(make_segment_walker_world, sample_walker_behavior, DistanceKind.EUCLIDEAN,
                                 "frozen_joint", lambda config: FrozenJointDamage(config.damage_joint), 15),
}
DAMAGE_KINDS = ("none", *(facts.damage for facts in WORLDS.values()))
KERNEL_FAMILIES = tuple(family.value for family in KernelFamily)


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _key(default=MISSING, *, at_least=None, above=None, choices=None):
    """A config key's field: its default, its lower bound (`at_least` it, or `above` it) and its choices."""
    bound = ("at least", at_least) if above is None else ("greater than", above)
    return field(default=default, metadata={"bound": bound, "choices": choices})


@dataclass(frozen=True)
class ExperimentConfig:
    world: str = _key(choices=WORLDS)
    methods: tuple[Method, ...] = (Method.SELA,)
    replicates: int = _key(1, at_least=1)
    base_seed: int = _key(0, at_least=0)
    damage: str = _key("none", choices=DAMAGE_KINDS)
    damage_offset: float = 0.5
    damage_joint: int = _key(0, at_least=0)
    noise_variance: float = _key(0.01, at_least=0.0)
    goal_x: float = 2.0
    goal_y: float = 2.0
    epsilon_goal: float = _key(0.1, above=0.0)
    alpha: float = _key(MissionConfig.alpha, at_least=0.0)
    kernel_family: str = _key(Kernel.family.value, choices=KERNEL_FAMILIES)
    kernel_sigma: float = _key(Kernel.sigma, at_least=MIN_KERNEL_SIGMA)
    gp_noise: float = _key(ObservationSet.noise_variance, at_least=0.0)
    max_adapt_iterations: Optional[int] = _key(None, at_least=1)   # None: world default
    epsilon_model: float = _key(MissionConfig.epsilon_model, above=0.0)
    babble_max: int = _key(MissionConfig.babble_max, at_least=1)
    uncertainty_iterations: int = _key(MissionConfig.uncertainty_iterations, at_least=1)
    episodic_success_projection: float = MissionConfig.episodic_success_projection
    drop_window: int = _key(MissionConfig.drop_window, at_least=1)
    drop_threshold: float = _key(MissionConfig.drop_threshold, above=0.0)
    lookahead_cells: int = _key(2, at_least=1)
    cell_size: float = _key(0.1, above=0.0)
    planner_margin: float = _key(1.0, at_least=0.0)
    step_cap: int = _key(500, at_least=1)
    candidate_grid: int = _key(360, at_least=1)
    archive_path: Optional[str] = None
    archive_budget: int = _key(50000, at_least=1)
    archive_grid: int = _key(20, at_least=1)
    archive_mutation_sigma: float = _key(0.2, above=0.0)
    archive_init_batch: Optional[int] = _key(None, at_least=1)

    def adapt_iterations(self) -> int:
        if self.max_adapt_iterations is not None:
            return self.max_adapt_iterations
        return WORLDS[self.world].adapt_iterations

    def planner_grid(self) -> PlannerGrid:
        """The missions' planner grid: from the origin, where every world starts, to the goal."""
        return PlannerGrid.for_mission((0.0, 0.0), (self.goal_x, self.goal_y), self.cell_size, self.planner_margin)


def _parser(kind, noun: str, accepts):
    """A type's row: its parser (kind(value), a ValueError becoming a ConfigError naming
    the line), the types `validate` accepts for it, and their noun."""
    def parse(value: str, key: str, line_no: int):
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"line {line_no}: key '{key}' expects {noun}, got {value!r}") from None
    return parse, accepts, noun


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


# Parser, accepted types and noun per field annotation; None suits only an Optional key.
_PARSE_BY_TYPE = {
    "str": _parser(str, "text", str),
    "int": _parser(int, "an integer", int),
    "Optional[int]": _parser(int, "an integer", (int, type(None))),
    "float": _parser(float, "a number", (int, float)),
    "Optional[str]": _parser(str, "text", (str, type(None))),
    "tuple[Method, ...]": (_parse_methods, tuple, "a tuple of at least one Method"),
}

# One parser per ExperimentConfig field; the field names are the known keys.
_PARSERS = {f.name: _PARSE_BY_TYPE[f.type][0] for f in fields(ExperimentConfig)}


def validate(config: ExperimentConfig, lines: Optional[dict] = None) -> ExperimentConfig:
    """Check each field's type, choices, finiteness and lower bound (a pass each, in
    field order), then the limits and that the damage suits the world; `lines` maps
    the keys set in a config text to their line numbers, which lead the message."""

    def fail(key: str, message: str):
        where = f"line {lines[key]}: " if lines and key in lines else ""
        raise ConfigError(f"{where}key '{key}' {message}")

    for f in fields(config):   # the types the key's parser gives (never a bool); `methods` is the one tuple
        value, (_, accepts, noun) = getattr(config, f.name), _PARSE_BY_TYPE[f.type]
        if isinstance(value, bool) or not isinstance(value, accepts) or isinstance(value, tuple) and not (
                value and all(isinstance(m, Method) for m in value)):
            fail(f.name, f"expects {noun}, got {value!r}")
    keys = [(f.name, getattr(config, f.name), f.metadata) for f in fields(config)]
    for key, value, declared in keys:
        choices = declared.get("choices")
        if choices and value not in choices:
            fail(key, f"expects one of {', '.join(choices)}, got {value!r}")
    for key, value, _ in keys:
        if isinstance(value, float) and not math.isfinite(value):
            fail(key, f"expects a finite number, got {value}")
    for key, value, declared in keys:
        relation, bound = declared.get("bound", (None, None))
        if None not in (value, bound) and not (value >= bound if relation == "at least" else value > bound):
            fail(key, f"must be {relation} {bound}, got {value}")
    if config.candidate_grid > MAX_CANDIDATES:
        fail("candidate_grid", f"must be at most {MAX_CANDIDATES}, got {config.candidate_grid}")
    if not math.isfinite(config.alpha * math.sqrt(2.0)):   # the largest uncertainty is sqrt(outcome_dim = 2)
        fail("alpha", f"must keep the uncertainty bonus alpha * sqrt(2) finite, got {config.alpha}")
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
    world = {facts.damage: name for name, facts in WORLDS.items()}.get(config.damage, config.world)
    if world != config.world:
        fail("damage", f"{config.damage!r} needs world {world!r}, got {config.world!r}")
    try:
        config.planner_grid()
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
