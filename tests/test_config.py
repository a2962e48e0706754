"""Parsing and validation of the flat `key = value` experiment files."""

import functools
import hashlib
import math
import time
import warnings
from dataclasses import MISSING, fields
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sela.config import (
    DAMAGE_KINDS,
    KERNEL_FAMILIES,
    WORLDS,
    ConfigError,
    ExperimentConfig,
    parse_config,
    parse_config_file,
    validate,
    with_overrides,
)
from sela.experiment import build_archive, build_mission_config
from sela.gp import MIN_KERNEL_SIGMA, GpFitError
from sela.map_elites import Archive, Elite
from sela.mission import Method, run_method


class TestDefaults:
    def test_minimal_config_fills_published_defaults(self):
        config = parse_config("world = point_robot")
        assert config.world == "point_robot"
        assert config.methods == (Method.SELA,)
        assert config.replicates == 1
        assert config.base_seed == 0
        assert config.damage == "none"
        assert config.damage_offset == 0.5
        assert config.damage_joint == 0
        assert config.noise_variance == 0.01
        assert (config.goal_x, config.goal_y) == (2.0, 2.0)
        assert config.epsilon_goal == 0.1
        assert config.alpha == 0.05
        assert config.kernel_family == "squared_exponential"
        assert config.kernel_sigma == 0.1
        assert config.gp_noise == 0.001
        assert config.epsilon_model == 0.01
        assert config.babble_max == 15
        assert config.uncertainty_iterations == 15
        assert config.episodic_success_projection == 0.09
        assert config.drop_window == 3
        assert config.drop_threshold == 0.15
        assert config.lookahead_cells == 2
        assert config.cell_size == 0.1
        assert config.planner_margin == 1.0
        assert config.step_cap == 500
        assert config.candidate_grid == 360
        assert config.archive_budget == 50000
        assert config.archive_grid == 20
        assert config.archive_mutation_sigma == 0.2

    def test_adaptation_budget_depends_on_world(self):
        assert parse_config("world = point_robot").adapt_iterations() == 10
        assert parse_config("world = segment_walker").adapt_iterations() == 15
        assert {world: facts.adapt_iterations for world, facts in WORLDS.items()} == {"point_robot": 10, "segment_walker": 15}

    def test_explicit_budget_wins(self):
        text = "world = point_robot\nmax_adapt_iterations = 25"
        assert parse_config(text).adapt_iterations() == 25


class TestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = "\n# a comment\nworld = point_robot  # trailing\n\nreplicates = 3\n"
        config = parse_config(text)
        assert config.replicates == 3

    def test_methods_list(self):
        text = "world = point_robot\nmethods = sela, babbling, episodic_ite"
        config = parse_config(text)
        assert config.methods == (Method.SELA, Method.BABBLING, Method.EPISODIC_ITE)

    def test_archive_path_is_verbatim(self):
        text = "world = segment_walker\narchive_path = out/elites.txt"
        assert parse_config(text).archive_path == "out/elites.txt"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("world = point_robot\nbase_seed = 7\n")
        assert parse_config_file(path).base_seed == 7


class TestErrors:
    def test_missing_world(self):
        with pytest.raises(ConfigError, match="world"):
            parse_config("replicates = 3")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 1: unknown key 'worlds'"):
            parse_config("worlds = point_robot")

    def test_duplicate_key_reports_both_lines(self):
        text = "world = point_robot\nreplicates = 2\nreplicates = 3"
        with pytest.raises(ConfigError, match="line 3: key 'replicates' already set on line 2"):
            parse_config(text)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("world = point_robot\njust some words")

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="line 2.*integer"):
            parse_config("world = point_robot\nreplicates = two")

    def test_bad_float(self):
        with pytest.raises(ConfigError, match="line 2.*number"):
            parse_config("world = point_robot\nalpha = fast")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("goal_x", "inf"),
            ("alpha", "inf"),
            ("kernel_sigma", "inf"),
            ("noise_variance", "inf"),
            ("gp_noise", "nan"),
            ("damage_offset", "-inf"),
        ],
    )
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"line 2: key '{key}' expects a finite number"):
            parse_config(f"world = point_robot\n{key} = {value}")

    def test_bad_world_choice(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("world = hexapod")

    def test_bad_method_name(self):
        with pytest.raises(ConfigError, match="unknown method"):
            parse_config("world = point_robot\nmethods = sela, teleport")

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("world = point_robot\nalpha = -1")

    def test_alpha_whose_bonus_overflows_rejected(self):
        # alpha times the largest uncertainty, sqrt(2), must stay finite in select_next
        with pytest.raises(ConfigError, match=r"^line 2: key 'alpha' must keep the uncertainty bonus"):
            parse_config("world = point_robot\nalpha = 1.2711610061536462e+308")

    def test_largest_alpha_runs(self):
        config = parse_config("world = point_robot\nalpha = 1.271161006153646e+308\nstep_cap = 5")
        record = run_method(Method.SELA, build_mission_config(config, config.base_seed))
        assert record.total_steps == 5

    def test_zero_cell_size_rejected(self):
        with pytest.raises(ConfigError, match="cell_size"):
            parse_config("world = point_robot\ncell_size = 0")

    @pytest.mark.parametrize(
        "text",
        ["goal_x = 1e6", "goal_y = -1e6", "goal_x = 60\ngoal_y = 60", "cell_size = 1e-4"],
    )
    def test_oversized_planner_grid_fails_fast(self, text):
        started = time.perf_counter()
        with pytest.raises(ConfigError, match="'goal_x', 'goal_y', 'cell_size'.*exceeds"):
            parse_config(f"world = point_robot\n{text}")
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "text",
        ["cell_size = 1e-308", "goal_x = 1e308\nplanner_margin = 1e308", "cell_size = 5e-324"],
    )
    def test_extreme_planner_grid_rejected_without_overflow_warnings(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="'goal_x', 'goal_y', 'cell_size'.*exceeds"):
                parse_config(f"world = point_robot\n{text}")

    @pytest.mark.parametrize("world", WORLDS)
    def test_a_grid_whose_squared_length_overflows_rejected(self, world):
        # goal_x just past sqrt(max float): the grid fits MAX_PLANNER_CELLS, but the goal test's
        # squared distance overflowed, on the point robot and (found by TestParserFuzz) the walker
        with pytest.raises(ConfigError, match="^keys 'goal_x', 'goal_y', 'cell_size', 'planner_margin': "
                                              r"planner grid reaches .* whose squared length overflows$"):
            parse_config(f"world = {world}\ngoal_x = 1.3407807929942597e+154\ncell_size = 5.363133898244835e+148")

    @pytest.mark.parametrize("world", WORLDS)
    def test_a_far_goal_just_inside_the_limit_runs(self, world):
        # accepted, and every method runs with warnings as errors: no distance overflows
        text = (f"world = {world}\nmethods = {', '.join(m.value for m in Method)}\n"
                "goal_x = 1.3e154\ncell_size = 5.363133898244835e+148")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config(text)
            check_runs_or_fails_cleanly(text, world)

    def test_override_to_a_far_goal_rejected(self):
        with pytest.raises(ConfigError, match="exceeds"):
            with_overrides(parse_config("world = segment_walker"), goal_x=1e6)

    def test_planner_grid_limit_leaves_room_for_far_goals(self):
        config = parse_config("world = point_robot\ngoal_x = 40\ngoal_y = 40")
        assert (config.goal_x, config.goal_y) == (40.0, 40.0)

    @pytest.mark.parametrize(
        "world, damage, needs",
        [
            ("point_robot", "frozen_joint", "segment_walker"),
            ("segment_walker", "angle_offset", "point_robot"),
        ],
    )
    def test_damage_must_suit_the_world(self, world, damage, needs):
        message = f"line 2: key 'damage' '{damage}' needs world '{needs}'"
        with pytest.raises(ConfigError, match=message):
            parse_config(f"world = {world}\ndamage = {damage}")

    def test_damage_joint_must_name_a_walker_joint(self):
        text = "world = segment_walker\ndamage = frozen_joint\ndamage_joint = {}"
        with pytest.raises(ConfigError, match="line 3: key 'damage_joint' must be below 4, got 7"):
            parse_config(text.format(7))
        assert parse_config(text.format(3)).damage_joint == 3

    @pytest.mark.parametrize(
        "text, message",
        [
            ("archive_budget = 50",
             "line 2: key 'archive_budget' must be at least the default initial batch 100, got 50"),
            ("archive_init_batch = 800\narchive_budget = 500",
             "line 2: key 'archive_init_batch' must be at most archive_budget = 500, got 800"),
            ("archive_init_batch = 60000",
             "line 2: key 'archive_init_batch' must be at most archive_budget = 50000, got 60000"),
        ],
    )
    def test_archive_budget_below_its_initial_batch_rejected(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(f"world = segment_walker\n{text}")

    @pytest.mark.parametrize(
        "text", ["archive_budget = 100", "archive_budget = 500\narchive_init_batch = 500"]
    )
    def test_archive_budget_equal_to_its_initial_batch_accepted(self, text):
        parse_config(f"world = segment_walker\n{text}")

    def test_repeated_method_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: key 'methods' lists 'sela' more than once$"):
            parse_config("world = point_robot\nmethods = sela, babbling, sela")

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigError, match="line 2: key 'base_seed' must be at least 0, got -1"):
            parse_config("world = point_robot\nbase_seed = -1")

    def test_candidate_grid_is_capped(self):
        with pytest.raises(ConfigError, match="line 2: key 'candidate_grid' must be at most 10000"):
            parse_config("world = point_robot\ncandidate_grid = 10001")
        assert parse_config("world = point_robot\ncandidate_grid = 10000").candidate_grid == 10000

    @pytest.mark.parametrize(
        "method, key, value, size",
        [
            ("sela", "step_cap", 1001, 1001),
            ("babbling", "babble_max", 1001, 1001),
            ("uncertainty", "uncertainty_iterations", 5000, 5000),
            ("episodic_ite", "max_adapt_iterations", 251, 1004),
        ],
    )
    def test_largest_model_is_capped(self, method, key, value, size):
        # no method learns past step_cap, so a model holds at most
        # min(budget, step_cap) observations; a cap of `size` leaves the budget binding
        cap = "" if key == "step_cap" else f"\nstep_cap = {size}"
        message = (f"key '{key}' lets the {method} model grow to {size} observations, "
                   f"above MAX_GP_OBSERVATIONS = 1000")
        with pytest.raises(ConfigError, match=f"^line 3: {message}$"):
            parse_config(f"world = point_robot\nmethods = {method}\n{key} = {value}{cap}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            with_overrides(parse_config("world = point_robot"), methods=(Method(method),),
                           **{"step_cap": size, key: value})

    def test_models_at_the_cap_accepted(self):
        parse_config("world = point_robot\nmethods = sela, babbling, uncertainty, episodic_ite\n"
                     "step_cap = 1000\nbabble_max = 1000\nuncertainty_iterations = 1000\n"
                     "max_adapt_iterations = 250")
        # only the methods the config runs are checked
        parse_config("world = point_robot\nmethods = sela\nbabble_max = 5000\n"
                     "uncertainty_iterations = 5000\nmax_adapt_iterations = 5000")

    def test_budgets_above_the_cap_accepted_under_a_small_step_cap(self):
        # the default step_cap of 500 bounds every model
        config = parse_config("world = point_robot\nmethods = babbling\nbabble_max = 1001")
        assert (config.babble_max, config.step_cap) == (1001, 500)
        parse_config("world = point_robot\nmethods = babbling, uncertainty, episodic_ite\n"
                     "babble_max = 5000\nuncertainty_iterations = 5000\n"
                     "max_adapt_iterations = 251\nstep_cap = 1000")

    def test_kernel_sigma_below_the_floor_rejected(self):
        # 2 sigma^2 underflows to 0, and the squared-exponential k(x, x) is 0/0
        message = "^line 2: key 'kernel_sigma' must be at least 1e-100, got 1e-300$"
        with pytest.raises(ConfigError, match=message):
            parse_config("world = point_robot\nkernel_sigma = 1e-300")
        floor = parse_config(f"world = point_robot\nkernel_sigma = {MIN_KERNEL_SIGMA}")
        assert floor.kernel_sigma == MIN_KERNEL_SIGMA

    def test_zero_replicates_rejected(self):
        with pytest.raises(ConfigError, match="replicates"):
            parse_config("world = point_robot\nreplicates = 0")


class TestOverrides:
    def test_override_replaces_field(self):
        base = parse_config("world = point_robot")
        changed = with_overrides(base, replicates=50, base_seed=100)
        assert changed.replicates == 50
        assert changed.base_seed == 100
        assert base.replicates == 1  # original untouched

    def test_override_still_validates(self):
        base = parse_config("world = point_robot")
        with pytest.raises(ConfigError):
            with_overrides(base, replicates=0)

    @pytest.mark.parametrize(
        "changes",
        [
            {"goal_x": math.inf, "alpha": math.inf},
            {"alpha": math.inf},
            {"gp_noise": math.nan},
            {"damage_offset": -math.inf},
        ],
    )
    def test_override_rejects_non_finite_floats(self, changes):
        base = parse_config("world = point_robot")
        key = next(iter(changes))
        with pytest.raises(ConfigError, match=f"key '{key}' expects a finite number"):
            with_overrides(base, **changes)

    def test_override_to_a_damage_of_another_world_rejected(self):
        with pytest.raises(ConfigError, match="key 'damage' 'angle_offset' needs world"):
            with_overrides(parse_config("world = segment_walker"), damage="angle_offset")

    @pytest.mark.parametrize(
        "kwargs, key",
        [
            ({"world": "mars"}, "world"),
            ({"world": "point_robot", "kernel_family": "matern"}, "kernel_family"),
        ],
    )
    def test_validate_checks_choices_of_direct_construction(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"^key '{key}' expects one of"):
            validate(ExperimentConfig(**kwargs))

    @pytest.mark.parametrize(
        "changes, key",
        [
            ({"methods": (Method.SELA, Method.BABBLING, Method.SELA)}, "methods"),
            ({"archive_budget": 50}, "archive_budget"),
            ({"archive_init_batch": 600, "archive_budget": 500}, "archive_init_batch"),
            ({"base_seed": -1}, "base_seed"),
        ],
    )
    def test_overrides_and_direct_construction_checked_too(self, changes, key):
        base = parse_config("world = segment_walker")
        with pytest.raises(ConfigError, match=f"^key '{key}'"):
            with_overrides(base, **changes)
        with pytest.raises(ConfigError, match=f"^key '{key}'"):
            validate(ExperimentConfig(world="segment_walker", **changes))

    def test_direct_construction_has_same_defaults(self):
        assert ExperimentConfig(world="point_robot") == parse_config("world = point_robot")


class TestTypes:
    """A config built in code gets the type its parser would give each key,
    or a ConfigError in the parser's words, before any other check."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"replicates": 1.5}, "key 'replicates' expects an integer, got 1.5"),
            ({"drop_window": 2.5}, "key 'drop_window' expects an integer, got 2.5"),
            ({"candidate_grid": 2.5}, "key 'candidate_grid' expects an integer, got 2.5"),
            ({"step_cap": None}, "key 'step_cap' expects an integer, got None"),
            ({"max_adapt_iterations": 2.0}, "key 'max_adapt_iterations' expects an integer, got 2.0"),
            ({"alpha": "0.1"}, "key 'alpha' expects a number, got '0.1'"),
            ({"goal_x": None}, "key 'goal_x' expects a number, got None"),
            ({"world": None}, "key 'world' expects text, got None"),
            ({"archive_path": 3}, "key 'archive_path' expects text, got 3"),
            ({"methods": ("sela",)}, "key 'methods' expects a tuple of at least one Method, got ('sela',)"),
            ({"methods": "sela"}, "key 'methods' expects a tuple of at least one Method, got 'sela'"),
            ({"methods": ()}, "key 'methods' expects a tuple of at least one Method, got ()"),
            ({"methods": [Method.SELA]},
             "key 'methods' expects a tuple of at least one Method, got [<Method.SELA: 'sela'>]"),
            # bool subclasses int, but no parser gives one
            ({"replicates": True}, "key 'replicates' expects an integer, got True"),
            ({"step_cap": True}, "key 'step_cap' expects an integer, got True"),
            ({"max_adapt_iterations": False}, "key 'max_adapt_iterations' expects an integer, got False"),
            ({"goal_x": False}, "key 'goal_x' expects a number, got False"),
            ({"gp_noise": np.True_}, "key 'gp_noise' expects a number, got np.True_"),
            ({"archive_path": True}, "key 'archive_path' expects text, got True"),
        ],
    )
    def test_wrong_types_rejected(self, changes, message):
        base = parse_config("world = point_robot\nstep_cap = 20")
        with pytest.raises(ConfigError) as raised:
            with_overrides(base, **changes)
        assert str(raised.value) == message
        with pytest.raises(ConfigError) as raised:
            validate(ExperimentConfig(**{"world": "point_robot", "step_cap": 20, **changes}))
        assert str(raised.value) == message

    def test_the_type_pass_comes_first(self):
        # `world` fails its choices too, and `replicates` its bound
        with pytest.raises(ConfigError, match="^key 'replicates' expects an integer, got -1.5$"):
            validate(ExperimentConfig(world="mars", replicates=-1.5))

    def test_ints_for_float_keys_and_none_for_optional_keys_accepted(self):
        config = validate(ExperimentConfig(world="point_robot", goal_x=1, goal_y=np.float64(2.0), alpha=0,
                                           max_adapt_iterations=None, archive_path=None, archive_init_batch=None))
        assert config.goal_x == 1 and config.adapt_iterations() == 10
        assert parse_config("world = point_robot\ngoal_x = 1\nalpha = 0") == config


KEYS = [f.name for f in fields(ExperimentConfig)]
README = Path(__file__).resolve().parents[1] / "README.md"


# The README's rendering of each default of None: set by the world, none at all, or a formula
NONE_DEFAULTS = {"max_adapt_iterations": "world default", "archive_path": "none",
                 "archive_init_batch": "`max(100, budget // 10)`"}


def readme_default(f):
    """A field's default as the README's Configuration keys table renders it."""
    if f.default is MISSING:
        return "required"
    if f.default is None:
        return NONE_DEFAULTS[f.name]
    if f.name == "methods":
        return "`" + ", ".join(method.value for method in f.default) + "`"
    return f"`{f.default}`"


def test_readme_key_table_lists_the_fields_in_order():
    # and each row's defaults, one per key of the row, are the fields' defaults
    section = README.read_text(encoding="utf-8").split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    keyed = [(key.strip(" `"), default.strip()) for keys, defaults in rows
             for key, default in zip(keys.split(","), defaults.split(", ") if "," in keys else [defaults])]
    assert [key for key, _ in keyed] == KEYS
    assert keyed == [(f.name, readme_default(f)) for f in fields(ExperimentConfig)]
WORDS = [*WORLDS, *DAMAGE_KINDS, *KERNEL_FAMILIES, *(m.value for m in Method)]

values = st.one_of(
    st.integers(-3, 3).map(str),
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
    st.sampled_from(["99", "100", "1e-300", "1e300", "0x10", "1_000", ""]),
    st.sampled_from(WORDS),
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=5).map(", ".join),
    st.text(max_size=12),
)
assignments = st.tuples(st.sampled_from([*KEYS, "worlds", "", " methods"]), values).map(
    lambda kv: f"{kv[0]} = {kv[1]}"
)
lines = st.one_of(assignments, st.text(max_size=20), st.just("# comment"), st.just(""))
worlds = st.sampled_from(["", "world = point_robot\n", "world = segment_walker\n"])
# One to four of the method names, so the baselines run as well as SELA.
methods_lines = st.lists(st.sampled_from([m.value for m in Method]), min_size=1, max_size=4, unique=True).map(
    lambda names: "methods = " + ", ".join(names) + "\n"
)

# One elite is enough to build a walker mission.
TINY_ARCHIVE = Archive((2, 2), behavior_dim=4, outcome_dim=2)
TINY_ARCHIVE.cells[(0, 0)] = Elite([0.1] * 4, [0.1, 0.1], 0.1, [0.1, 0.0])


def check_rejected_or_valid(text):
    """Any text either fails with a ConfigError or gives a config that
    validates and from which the first and last replicates' missions can be
    built (seeds, world, damage, candidates and planner grid)."""
    try:
        config = parse_config(text)
    except ConfigError:
        return
    assert validate(config) is config
    assert with_overrides(config) == config
    for seed in (config.base_seed, config.base_seed + config.replicates - 1):
        build_mission_config(config, seed, TINY_ARCHIVE)


# The step cap of the fuzzed runs: enough to learn, refit, plan and drive.
FUZZ_STEP_CAP = 8


@functools.cache
def walker_archive():
    """A small archive of the intact walker, built once per session (150 elites)."""
    return build_archive(parse_config("world = segment_walker\narchive_budget = 200"))


def check_runs_or_fails_cleanly(text, world):
    """An accepted config of `world` runs one replicate of every method, at
    most FUZZ_STEP_CAP steps each, to a finite final pose. Walker missions use
    `walker_archive`, whatever archive keys the config sets."""
    try:
        config = parse_config(text)
    except ConfigError:
        return
    if config.world != world:
        return
    archive = walker_archive() if world == "segment_walker" else None
    config = with_overrides(config, replicates=1, step_cap=min(config.step_cap, FUZZ_STEP_CAP))
    for method in config.methods:
        mission = build_mission_config(config, config.base_seed, archive)
        record = run_method(method, mission)
        assert record.total_steps <= FUZZ_STEP_CAP
        assert np.isfinite(mission.world.pose).all()


class TestParserFuzz:
    """Hypothesis saves every failing example in `.hypothesis/` and replays it first on every
    later run in that checkout. Until ROADMAP item 11 lands, `test_accepted_point_robot_configs_run`
    can fail at random (a wide kernel on the wrapped angle), and from then on it fails on every
    run, replaying the saved example. To tell that replay from a new failure, run the test again
    with `--hypothesis-show-statistics`: a replayed example reports its error "during reuse
    phase", a new one "during generate phase"."""

    @settings(max_examples=1000, deadline=None)
    @given(worlds, assignments)
    def test_one_assignment(self, world, line):
        check_rejected_or_valid(world + line)

    @settings(max_examples=300, deadline=None)
    @given(worlds, st.lists(lines, max_size=8))
    def test_many_lines(self, world, body):
        check_rejected_or_valid(world + "\n".join(body))

    @settings(max_examples=1000, deadline=timedelta(seconds=5))
    @given(worlds, st.one_of(st.just(""), methods_lines), st.lists(lines, max_size=8))
    def test_accepted_point_robot_configs_run(self, world, methods, body):
        check_runs_or_fails_cleanly(world + methods + "\n".join(body), "point_robot")

    @pytest.mark.parametrize("world", WORLDS)
    def test_a_drop_window_past_any_deque_length_runs(self, world):
        # 2**63 once overflowed the window's deque length in every method
        check_runs_or_fails_cleanly(f"world = {world}\nmethods = {', '.join(m.value for m in Method)}\n"
                                    f"drop_window = {2**63}", world)

    @pytest.mark.xfail(strict=True, raises=GpFitError, reason=(
        "ROADMAP item 11: the squared-exponential of the wrapped angle is not positive definite, so "
        "babbling's fit raises 'kernel matrix not positive definite (t=5, ...)'"))
    def test_a_wide_squared_exponential_kernel_on_the_circle_runs(self):
        # one config of the class that test_accepted_point_robot_configs_run draws at random
        check_runs_or_fails_cleanly("world = point_robot\nmethods = babbling\nkernel_sigma = 2", "point_robot")

    @settings(max_examples=300, deadline=timedelta(seconds=5))
    @given(st.integers(1, 4), st.lists(lines, max_size=4))
    def test_accepted_noise_free_sela_configs_that_repeat_a_candidate_run(self, grid, body):
        # a drop opens at the first step and no step recovers, so SELA learns
        # at every later step from at most 4 candidates, one of them twice
        # within the step cap: without noise, only the jitter keeps that fit
        # positive definite
        head = (f"world = point_robot\nmethods = sela\ngp_noise = 0\ncandidate_grid = {grid}\n"
                "drop_threshold = 1e-9\n")
        check_runs_or_fails_cleanly(head + "\n".join(body), "point_robot")

    @settings(max_examples=1000, deadline=timedelta(seconds=5))
    @given(st.one_of(st.just(""), methods_lines), st.lists(lines, max_size=8))
    def test_accepted_walker_configs_run(self, methods, body):
        check_runs_or_fails_cleanly("world = segment_walker\n" + methods + "\n".join(body), "segment_walker")


# Values tried for every key: out of range, non-finite, malformed, too large, another key's word.
BAD_VALUES = ("-1", "0", "1e-300", "nan", "-inf", "1e400", "2.5", "x", "99999999", "frozen_joint", "sela, sela")
# The values that pair with each other: a lower bound, a parse or finiteness
# error and the checks after the bounds.
PAIR_VALUES = ("-1", "nan", "99999999")
# sha256 of each corpus's texts and outcomes. The single faults' outcomes are
# those of the code before each key declared its bound on its field; the
# pairs' outcomes pin the check order.
SINGLE_FAULT_DIGEST = "b85ddadddf51df6ab6206ef6701bfab33b2a84f5182a1d589b6df53d01c8dae9"
FAULT_PAIR_DIGEST = "7f62f3cadb6a696b69dad6b8d0df2fc473a1b76d9ddb1103782a4dcb87ff354e"


def outcome(text):
    """The message `parse_config(text)` raises, or "accepted"."""
    try:
        parse_config(text)
    except ConfigError as exc:
        return str(exc)
    return "accepted"


def corpus_digest(texts):
    return hashlib.sha256("\n".join(f"{text!r} {outcome(text)}" for text in texts).encode()).hexdigest()


def single_faults():
    """On both worlds, every key but `world` set to each bad value on line 2."""
    return [f"world = {world}\n{key} = {value}" for world in WORLDS for key in KEYS[1:] for value in BAD_VALUES]


def fault_pairs():
    """On both worlds, each ordered pair of distinct keys, each set to a pair
    value that it rejects alone."""
    texts = []
    for world in WORLDS:
        faults = [(key, f"{key} = {value}") for key in KEYS[1:] for value in PAIR_VALUES
                  if outcome(f"world = {world}\n{key} = {value}") != "accepted"]
        texts += [f"world = {world}\n{a}\n{b}" for key_a, a in faults for key_b, b in faults if key_a != key_b]
    return texts


class TestMessageCorpus:
    """Every message of a fixed corpus of bad configs, pinned by digest."""

    def test_single_fault_messages(self):
        assert corpus_digest(single_faults()) == SINGLE_FAULT_DIGEST

    def test_fault_pair_messages(self):
        # of two faults, the one named is the first in check order: choices,
        # finiteness and lower bounds, each in field order, then the checks after them
        assert corpus_digest(fault_pairs()) == FAULT_PAIR_DIGEST
