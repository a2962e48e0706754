"""Waypoint rewards and grid planning, checked against a BFS oracle."""

import heapq
import math
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sela.reward import (
    MAX_PLANNER_CELLS,
    PlannerGrid,
    UnreachableGoalError,
    astar,
    build_waypoint_reward,
    make_distance_reward,
)


def in_bounds(grid, cell):
    """Whether a cell lies on the grid."""
    return 0 <= cell[0] < grid.shape[0] and 0 <= cell[1] < grid.shape[1]


def bfs_path_length(grid, start, goal):
    """Independent oracle: breadth-first search cell count, None if unreachable."""
    if start == goal:
        return 1
    seen = {start}
    queue = deque([(start, 1)])
    while queue:
        cell, length = queue.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + dx, cell[1] + dy)
            if nxt in seen or not in_bounds(grid, nxt) or nxt in grid.blocked:
                continue
            if nxt == goal:
                return length + 1
            seen.add(nxt)
            queue.append((nxt, length + 1))
    return None


def frozen_astar(grid, start, goal):
    """Reference: `astar` as it was on (x, y) tuple cells, before it moved to
    integer cell ids. The new search must return the same path, or None."""
    if not in_bounds(grid, start) or not in_bounds(grid, goal):
        return None
    if start == goal:
        return [start]
    if goal in grid.blocked:
        return None

    sx, sy = start
    gx, gy = goal

    def line_bias(cell):
        # cross product of (cell - goal) with (start - goal); zero on the line
        return abs((cell[0] - gx) * (sy - gy) - (sx - gx) * (cell[1] - gy))

    best_g = {start: 0}
    parent = {}
    counter = 0
    frontier = [(abs(sx - gx) + abs(sy - gy), line_bias(start), counter, start)]
    closed = set()
    while frontier:
        _, _, _, cell = heapq.heappop(frontier)
        if cell == goal:
            path = [cell]
            while cell in parent:
                cell = parent[cell]
                path.append(cell)
            path.reverse()
            return path
        if cell in closed:
            continue
        closed.add(cell)
        g = best_g[cell] + 1
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + dx, cell[1] + dy)
            if not in_bounds(grid, nxt) or nxt in grid.blocked or nxt in closed:
                continue
            if g < best_g.get(nxt, math.inf):
                best_g[nxt] = g
                parent[nxt] = cell
                counter += 1
                f = g + abs(nxt[0] - gx) + abs(nxt[1] - gy)
                heapq.heappush(frontier, (f, line_bias(nxt), counter, nxt))
    return None


def numpy_scalar_cell_of(grid, point):
    """`PlannerGrid.cell_of` as it was written on numpy scalars."""
    point = np.asarray(point, dtype=float)
    ix = math.floor((point[0] - grid.origin[0]) / grid.cell_size)
    iy = math.floor((point[1] - grid.origin[1]) / grid.cell_size)
    ix = min(max(ix, 0), grid.shape[0] - 1)
    iy = min(max(iy, 0), grid.shape[1] - 1)
    return ix, iy


def free_grid(n=20):
    return PlannerGrid(cell_size=0.1, origin=(0.0, 0.0), shape=(n, n))


class TestPlannerGrid:
    def test_mission_grid_centers_on_step_multiples(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        start_cell = grid.cell_of((0.0, 0.0))
        goal_cell = grid.cell_of((2.0, 2.0))
        np.testing.assert_allclose(grid.center(start_cell), [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(grid.center(goal_cell), [2.0, 2.0], atol=1e-12)

    def test_covers_margin(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0), margin=1.0)
        assert grid.cell_of((-0.9, -0.9)) != grid.cell_of((0.0, 0.0))
        assert in_bounds(grid, grid.cell_of((2.9, 2.9)))

    def test_the_waypoint_table_stays_out_of_equality_the_hash_the_repr_and_copies(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        empty, before = replace(grid), hash(grid)
        build_waypoint_reward(grid, (0.0, 0.0), (2.0, 2.0), grid.cell_of((2.0, 2.0)), 2)
        assert grid.waypoints and not empty.waypoints
        assert grid == empty and hash(grid) == hash(empty) == before
        assert repr(grid) == repr(empty) and "waypoints" not in repr(grid)
        copy = replace(grid)   # a copy of the filled grid starts with an empty table
        assert copy == grid and copy.waypoints == {}

    def test_outside_points_clamp_to_boundary(self):
        grid = free_grid(10)
        assert grid.cell_of((-5.0, 0.05)) == (0, 0)
        assert grid.cell_of((99.0, 99.0)) == (9, 9)

    @settings(max_examples=500, deadline=None)
    @given(
        st.data(),
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        st.floats(1e-3, 10.0),
        st.tuples(st.integers(1, 1000), st.integers(1, 1000)),
    )
    def test_cell_of_equals_the_numpy_scalar_formula(self, data, origin, cell_size, shape):
        grid = PlannerGrid(cell_size=cell_size, origin=origin, shape=shape)

        def coordinate(o):   # anywhere, or within an ulp of a cell edge (clamped ones too)
            edge = st.builds(
                lambda k, ulp: math.nextafter(o + k * cell_size, ulp) if ulp else o + k * cell_size,
                st.integers(-10, 1010), st.sampled_from([-math.inf, 0.0, math.inf]),
            )
            return st.one_of(st.floats(-1e6, 1e6), edge)

        point = (data.draw(coordinate(origin[0])), data.draw(coordinate(origin[1])))
        assert grid.cell_of(np.array(point)) == numpy_scalar_cell_of(grid, point)
        assert grid.cell_of(point) == numpy_scalar_cell_of(grid, point)

    @pytest.mark.parametrize("point, error", [
        ((math.nan, 0.0), ValueError), ((0.0, math.nan), ValueError),
        ((math.inf, 0.0), OverflowError), ((0.0, -math.inf), OverflowError),
    ])
    def test_non_finite_points_raise_as_before(self, point, error):
        with pytest.raises(error):
            numpy_scalar_cell_of(free_grid(10), point)
        with pytest.raises(error):
            free_grid(10).cell_of(np.array(point))

    def test_oversized_mission_grid_rejected(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            PlannerGrid.for_mission((0.0, 0.0), (1e6, 0.0))
        side = math.isqrt(MAX_PLANNER_CELLS) * 0.1 - 2.1   # just fits
        grid = PlannerGrid.for_mission((0.0, 0.0), (side, side))
        assert grid.shape[0] * grid.shape[1] <= MAX_PLANNER_CELLS


class TestAstar:
    def test_start_equals_goal(self):
        assert astar(free_grid(), (3, 3), (3, 3)) == [(3, 3)]

    def test_free_grid_length_matches_manhattan(self):
        path = astar(free_grid(), (0, 0), (5, 7))
        assert path is not None
        assert len(path) == 13   # 12 moves
        assert path[0] == (0, 0)
        assert path[-1] == (5, 7)

    def test_walled_goal_unreachable(self):
        blocked = {(1, 0), (1, 1), (1, 2), (0, 2), (2, 2), (2, 1), (2, 0)}
        grid = PlannerGrid(0.1, (0.0, 0.0), (6, 6), frozenset(blocked))
        # start enclosed by the wall ring
        assert astar(grid, (0, 0), (5, 5)) is None

    def test_steps_are_unit_and_unblocked(self):
        rng = np.random.default_rng(0)
        grid = self.random_grid(rng)
        cells = [tuple(int(v) for v in c) for c in rng.integers(0, 20, size=(2, 2))]
        path = astar(grid, cells[0], cells[1])
        if path is not None:
            for a, b in zip(path, path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
                assert b not in grid.blocked

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_path_as_the_frozen_astar(self, data):
        # random grids up to 14 x 14, a third of the cells blocked at most,
        # plus blocked cells off the grid, whose ids would alias cells on it;
        # start and goal may be off the grid, blocked or equal
        width = data.draw(st.integers(1, 14), label="width")
        height = data.draw(st.integers(1, 14), label="height")
        inside = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        anywhere = st.tuples(st.integers(-2, width + 1), st.integers(-2, height + 1))
        blocked = set(data.draw(st.frozensets(inside, max_size=width * height // 3), label="blocked"))
        outside = anywhere.filter(lambda c: not (0 <= c[0] < width and 0 <= c[1] < height))
        blocked |= data.draw(st.frozensets(outside, max_size=4), label="blocked off the grid")
        start = data.draw(st.one_of(inside, anywhere), label="start")
        goal = data.draw(st.one_of(inside, anywhere, st.just(start)), label="goal")
        if data.draw(st.booleans(), label="block the start"):
            blocked.add(start)
        if data.draw(st.booleans(), label="block the goal"):
            blocked.add(goal)
        grid = PlannerGrid(0.1, (0.0, 0.0), (width, height), frozenset(blocked))
        assert astar(grid, start, goal) == frozen_astar(grid, start, goal)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_a_step_limit_cuts_only_the_free_staircase(self, data):
        # with no blocked cell but the start: the first min(steps, |dx| + |dy|) moves of
        # the full path; with a blocked cell on the staircase: the full search path
        width = data.draw(st.integers(1, 30), label="width")
        height = data.draw(st.integers(1, 30), label="height")
        inside = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
        start, goal = data.draw(inside, label="start"), data.draw(inside, label="goal")
        steps = data.draw(st.integers(0, width + height), label="steps")
        start_blocked = frozenset({start} if data.draw(st.booleans(), label="block the start") else ())
        grid = PlannerGrid(0.1, (0.0, 0.0), (width, height), start_blocked)
        full = astar(grid, start, goal)
        moves = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
        assert len(full) == moves + 1
        assert astar(grid, start, goal, steps) == full[:min(steps, moves) + 1]
        if moves >= 2:
            cell = data.draw(st.sampled_from(full[1:-1]), label="blocked on the staircase")
            blocked = replace(grid, blocked=start_blocked | {cell})
            search = astar(blocked, start, goal)
            assert astar(blocked, start, goal, steps) == search == frozen_astar(blocked, start, goal)
            assert search is None or cell not in search

    @pytest.mark.parametrize(
        "start, goal, blocked",
        [
            ((2, 3), (9, 1), {(2, 3)}),            # blocked start
            ((2, 3), (9, 1), {(9, 1)}),            # blocked goal
            ((-1, 3), (9, 1), set()),              # start off the grid
            ((2, 3), (9, 12), set()),              # goal off the grid
            ((4, 4), (4, 4), set()),               # start == goal
            ((4, 4), (4, 4), {(4, 4)}),            # start == goal, blocked
            ((0, 0), (9, 11), {(0, 12), (10, 0)}), # blocked cells off the grid
        ],
    )
    def test_edge_cases_match_the_frozen_astar(self, start, goal, blocked):
        grid = PlannerGrid(0.1, (0.0, 0.0), (10, 12), frozenset(blocked))
        assert astar(grid, start, goal) == frozen_astar(grid, start, goal)

    def test_many_random_grids_match_the_frozen_astar(self):
        # a seeded sweep: a few of these pairs (about 1 in 300) tell apart
        # neighbour orders that the shrinking hypothesis search rarely meets
        rng = np.random.default_rng(14)
        for _ in range(5000):
            width, height = (int(n) for n in rng.integers(1, 15, size=2))
            count = int(rng.integers(0, width * height // 3 + 1))
            xs, ys = rng.integers(0, width, count).tolist(), rng.integers(0, height, count).tolist()
            blocked = frozenset(zip(xs, ys))
            grid = PlannerGrid(0.1, (0.0, 0.0), (width, height), blocked)
            start, goal = ((int(rng.integers(width)), int(rng.integers(height))) for _ in range(2))
            assert astar(grid, start, goal) == frozen_astar(grid, start, goal)

    @staticmethod
    def assert_every_start_matches_the_frozen_astar(goal_point, shape):
        grid = PlannerGrid.for_mission((0.0, 0.0), goal_point)
        assert grid.shape == shape
        goal = grid.cell_of(goal_point)
        for x in range(shape[0]):
            for y in range(shape[1]):
                assert astar(grid, (x, y), goal) == frozen_astar(grid, (x, y), goal)

    def test_long_adaptation_grid_matches_the_frozen_astar(self):
        # the long-adaptation mission's 81 x 81 grid, from every start cell to its goal
        self.assert_every_start_matches_the_frozen_astar((6.0, 6.0), (81, 81))

    def test_toy_grid_matches_the_frozen_astar(self):
        # the toy mission's 41 x 41 grid, from every start cell to its goal
        self.assert_every_start_matches_the_frozen_astar((2.0, 2.0), (41, 41))

    def test_every_pair_of_every_small_free_grid_matches_the_frozen_astar(self):
        # on a free grid the staircase answers every call; up to 8 x 8, all 41,616 pairs
        for width in range(1, 9):
            for height in range(1, 9):
                grid = PlannerGrid(0.1, (0.0, 0.0), (width, height))
                cells = [(x, y) for x in range(width) for y in range(height)]
                for start in cells:
                    for goal in cells:
                        assert astar(grid, start, goal) == frozen_astar(grid, start, goal)

    def test_the_search_runs_only_when_the_staircase_is_blocked(self, monkeypatch):
        pushes = []
        real_push = heapq.heappush

        def counting_push(heap, item):
            pushes.append(item)
            real_push(heap, item)

        monkeypatch.setattr(heapq, "heappush", counting_push)
        # blocked cells off the staircase leave it clear
        start, goal = (1, 2), (11, 7)
        free = PlannerGrid(0.1, (0.0, 0.0), (14, 10), frozenset({(0, 0), (12, 9), (5, 2)}))
        staircase = astar(free, start, goal)
        assert pushes == []
        assert staircase == frozen_astar(free, start, goal) and len(staircase) == 16
        for cell in staircase[1:-1]:
            grid = PlannerGrid(0.1, (0.0, 0.0), (14, 10), free.blocked | {cell})
            pushes.clear()
            path = astar(grid, start, goal)
            assert pushes and cell not in path
            assert path == frozen_astar(grid, start, goal)

    @staticmethod
    def random_grid(rng, n=20, fraction=0.2):
        blocked = {
            (int(x), int(y))
            for x, y in rng.integers(0, n, size=(int(fraction * n * n), 2))
        }
        return PlannerGrid(0.1, (0.0, 0.0), (n, n), frozenset(blocked))

    def test_lengths_match_bfs_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            grid = self.random_grid(rng)
            free = [
                (x, y)
                for x in range(20)
                for y in range(20)
                if (x, y) not in grid.blocked
            ]
            start, goal = (free[int(i)] for i in rng.integers(0, len(free), size=2))
            path = astar(grid, start, goal)
            oracle = bfs_path_length(grid, start, goal)
            if oracle is None:
                assert path is None
            else:
                assert path is not None and len(path) == oracle

    def test_free_space_path_hugs_the_straight_line(self):
        # balanced staircase: along the diagonal the displaced coordinate
        # never drifts more than one cell from the line
        path = astar(free_grid(), (0, 0), (12, 12))
        assert all(abs(x - y) <= 1 for x, y in path)


class TestSelectWaypoint:
    """The waypoint choice: the path cell `lookahead_cells` past the pose's
    cell, which starts every A* path, and the reward that
    `build_waypoint_reward` aims at its center."""

    def test_lookahead_from_pose_cell(self):
        grid = free_grid()
        path = astar(grid, (0, 0), (9, 9))
        pose = np.array([0.05, 0.05])
        assert path[0] == grid.cell_of(pose)
        reward = build_waypoint_reward(grid, pose, grid.center((9, 9)), (9, 9), 2)
        assert score(reward, grid.center(path[2]) - pose) == pytest.approx(0.0, abs=1e-12)
        assert score(reward, grid.center(path[1]) - pose) < -0.05

    def test_clamps_to_final_cell(self):
        grid = free_grid()
        pose = np.array([0.05, 0.05])
        assert astar(grid, grid.cell_of(pose), (1, 0)) == [(0, 0), (1, 0)]
        goal = np.array([0.17, 0.02])   # in cell (1, 0), off its center
        reward = build_waypoint_reward(grid, pose, goal, grid.cell_of(goal), 10)
        assert score(reward, goal - pose) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_waypoint_matches_a_fresh_astar_path(self, data):
        # oracle: the waypoint taken straight from a fresh A* path
        n = data.draw(st.integers(2, 9), label="n")
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        blocked = data.draw(st.frozensets(cells, max_size=n * n // 3), label="blocked")
        grid = PlannerGrid(0.1, (0.0, 0.0), (n, n), blocked)
        coordinate = st.floats(-0.2, 0.1 * n + 0.2, allow_nan=False)
        pose = np.array(data.draw(st.tuples(coordinate, coordinate), label="pose"))
        goal = np.array(data.draw(st.tuples(coordinate, coordinate), label="goal"))
        lookahead = data.draw(st.integers(1, 2 * n), label="lookahead")
        start_cell, goal_cell = grid.cell_of(pose), grid.cell_of(goal)
        path = astar(grid, start_cell, goal_cell)
        if path is None:
            with pytest.raises(UnreachableGoalError):
                build_waypoint_reward(grid, pose, goal, goal_cell, lookahead)
            return
        assert path[0] == start_cell
        cell = path[min(lookahead, len(path) - 1)]
        expected = goal if cell == goal_cell else grid.center(cell)
        probes = np.array(data.draw(st.lists(points, min_size=1, max_size=8), label="probes"))
        np.testing.assert_array_equal(
            build_waypoint_reward(grid, pose, goal, goal_cell, lookahead)(probes),
            make_distance_reward(expected, pose)(probes),
        )


def score(reward, outcome) -> float:
    """Reward of one outcome through the batch interface."""
    scores = reward(np.asarray(outcome, dtype=float)[None, :])
    assert scores.shape == (1,)
    return float(scores[0])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.tuples(finite, finite)


class TestDistanceReward:
    def test_vecdot_of_a_two_vector_is_the_fma_of_its_second_square_onto_its_first(self):
        # a fact the golden digests rest on: OpenBLAS's ddot of a 2-vector with
        # itself gives fma(x1, x1, fl(x0²)). float() of a Fraction rounds the
        # exact sum once, as fma does; the plain x0² + x1² differs on some rows
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(5000, 2)) * np.exp(rng.uniform(-20.0, 20.0, size=(5000, 1)))
        fused = [float(Fraction(x1) ** 2 + Fraction(x0 * x0)) for x0, x1 in rows.tolist()]
        plain = [x0 * x0 + x1 * x1 for x0, x1 in rows.tolist()]
        assert np.vecdot(rows, rows).tolist() == fused != plain

    def test_known_values(self):
        reward = make_distance_reward([1.0, 0.0], [0.0, 0.0])
        assert score(reward, [0.9, 0.0]) == pytest.approx(-0.1)
        assert score(reward, [1.0, 0.0]) == 0.0

    def test_maximized_by_exact_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pose = rng.normal(size=2)
            waypoint = rng.normal(size=2)
            reward = make_distance_reward(waypoint, pose)
            exact = waypoint - pose
            assert score(reward, exact) == pytest.approx(0.0, abs=1e-12)
            assert np.all(reward(exact + rng.normal(scale=0.1, size=(10, 2))) <= 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(waypoint=points, pose=points, outcomes=st.lists(points, min_size=1, max_size=40))
    def test_batch_equals_per_row_norm_bit_for_bit(self, waypoint, pose, outcomes):
        outcomes = np.array(outcomes)
        scores = make_distance_reward(waypoint, pose)(outcomes)
        per_row = [
            -float(np.linalg.norm(np.asarray(pose) + row - np.asarray(waypoint)))
            for row in outcomes
        ]
        np.testing.assert_array_equal(scores, per_row)

    def test_batch_equals_per_row_norm_on_candidate_shaped_outcomes(self):
        # the shapes a mission scores: unit-step displacements around a pose
        rng = np.random.default_rng(5)
        thetas = rng.uniform(-np.pi, np.pi, size=5000)
        outcomes = 0.1 * np.column_stack([np.cos(thetas), np.sin(thetas)])
        outcomes += rng.normal(scale=0.01, size=outcomes.shape)
        pose, waypoint = rng.normal(size=2), rng.normal(size=2)
        scores = make_distance_reward(waypoint, pose)(outcomes)
        per_row = [-float(np.linalg.norm(pose + row - waypoint)) for row in outcomes]
        np.testing.assert_array_equal(scores, per_row)


class TestProjectionReward:
    @settings(max_examples=200, deadline=None)
    @given(direction=points, outcomes=st.lists(points, min_size=1, max_size=40))
    def test_vecdot_equals_per_row_dot_bit_for_bit(self, direction, outcomes):
        # the episodic baseline's reward: projection onto a task direction
        direction = np.array(direction)
        outcomes = np.array(outcomes)
        per_row = [float(np.dot(row, direction)) for row in outcomes]
        np.testing.assert_array_equal(np.vecdot(outcomes, direction), per_row)


class TestBuildWaypointReward:
    def test_free_space_waypoint_sits_on_the_line(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        goal = (2.0, 2.0)
        reward = build_waypoint_reward(grid, (0.0, 0.0), goal, grid.cell_of(goal), 2)
        # diagonal goal: the best unit step is the diagonal one
        step = 0.1 / np.sqrt(2.0)
        diagonal, east, north = reward(np.array([[step, step], [0.1, 0.0], [0.0, 0.1]]))
        assert diagonal > east
        assert diagonal > north

    def test_goal_cell_uses_exact_goal_point(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        pose, goal = np.array([1.93, 1.93]), (2.0, 2.0)
        reward = build_waypoint_reward(grid, pose, goal, grid.cell_of(goal), 2)
        gap = np.array([2.0, 2.0]) - pose
        assert score(reward, gap) == 0.0

    def test_pose_at_goal_cell_rewards_zero_remainder(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        pose, goal = np.array([1.98, 2.01]), (2.0, 2.0)
        reward = build_waypoint_reward(grid, pose, goal, grid.cell_of(goal), 2)
        assert score(reward, [0.02, -0.01]) == pytest.approx(0.0, abs=1e-12)

    def test_blocked_straight_line_detours(self):
        free_grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 0.0))
        start_cell = free_grid.cell_of((0.0, 0.0))
        # wall in the column right of the start, with a gap well above the line
        wall_x = start_cell[0] + 1
        blocked = {(wall_x, y) for y in range(0, start_cell[1] + 6)}
        grid = replace(free_grid, blocked=frozenset(blocked))
        goal = (2.0, 0.0)
        free = build_waypoint_reward(free_grid, (0.0, 0.0), goal, free_grid.cell_of(goal), 2)
        detour = build_waypoint_reward(grid, (0.0, 0.0), goal, grid.cell_of(goal), 2)
        straight = [0.1, 0.0]
        climb = [0.0, 0.1]
        assert score(free, straight) > score(free, climb)
        assert score(detour, climb) > score(detour, straight)

    def test_unreachable_goal_raises(self):
        ring = {(x, y) for x in range(9, 12) for y in range(9, 12)} - {(10, 10)}
        grid = PlannerGrid(0.1, (0.0, 0.0), (20, 20), frozenset(ring))
        goal = grid.center((10, 10))
        goal_cell = grid.cell_of(goal)
        for _ in range(2):   # nothing is memoized for an unreachable start: A* runs, and fails, again
            with pytest.raises(UnreachableGoalError):
                build_waypoint_reward(grid, (0.05, 0.05), goal, goal_cell, 2)
        [table] = grid.waypoints.values()
        assert set(table) == {-1}
        # a start on the wall itself is expanded, so it reaches the goal next to it on the same table
        reward = build_waypoint_reward(grid, grid.center((10, 11)), goal, goal_cell, 2)
        assert score(reward, [0.0, -0.1]) == pytest.approx(0.0, abs=1e-12)
        assert {i: cell for i, cell in enumerate(table) if cell != -1} == {10 * 20 + 11: 10 * 20 + 10}

    def test_memoized_waypoint_equals_fresh_for_every_start_cell(self):
        start, goal = (0.0, 0.0), (1.0, 0.6)
        free = PlannerGrid.for_mission(start, goal, margin=0.5)
        goal_cell = free.cell_of(goal)
        # an L-shaped wall across the direct route, and a scatter of blocks
        blocked = {(goal_cell[0] - 3, y) for y in range(1, free.shape[1])}
        blocked |= {(x, 2) for x in range(goal_cell[0] - 3, goal_cell[0])}
        blocked |= {
            (x, y)
            for x in range(free.shape[0])
            for y in range(free.shape[1])
            if (x * 7 + y * 3) % 11 == 0
        }
        blocked -= {free.cell_of(start), goal_cell}
        grid = replace(free, blocked=frozenset(blocked))
        assert grid.cell_of(goal) == goal_cell
        # noise keeps the pose inside its cell, so the grid's table sees new poses; each
        # fresh `replace(grid)` copy starts with an empty table and runs A* again
        rng = np.random.default_rng(2)
        for lookahead in (1, 2, 5):
            for _ in range(2):   # the second pass is served from the grid's table
                for ix in range(grid.shape[0]):
                    for iy in range(grid.shape[1]):
                        if (ix, iy) in grid.blocked:
                            continue
                        pose = grid.center((ix, iy)) + rng.uniform(-0.04, 0.04, size=2)
                        try:
                            fresh = build_waypoint_reward(replace(grid), pose, goal, goal_cell, lookahead)
                        except UnreachableGoalError:
                            with pytest.raises(UnreachableGoalError):
                                build_waypoint_reward(grid, pose, goal, goal_cell, lookahead)
                            continue
                        memoized = build_waypoint_reward(grid, pose, goal, goal_cell, lookahead)
                        probes = rng.normal(scale=0.1, size=(8, 2))
                        np.testing.assert_array_equal(memoized(probes), fresh(probes))
        assert sorted(grid.waypoints) == [(goal_cell, 1), (goal_cell, 2), (goal_cell, 5)]

    def test_astar_runs_once_per_start_cell(self, monkeypatch):
        import sela.reward

        calls = []
        real_astar = sela.reward.astar

        def counting_astar(grid, start, goal, steps=None):
            calls.append(start)
            return real_astar(grid, start, goal, steps)

        monkeypatch.setattr(sela.reward, "astar", counting_astar)
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        goal_cell = grid.cell_of((2.0, 2.0))
        for pose in ([0.0, 0.0], [0.01, 0.02], [0.0, 0.0], [0.5, 0.5], [0.52, 0.48]):
            build_waypoint_reward(grid, pose, (2.0, 2.0), goal_cell, 2)
        assert calls == [grid.cell_of((0.0, 0.0)), grid.cell_of((0.5, 0.5))]
        # the table holds the planned waypoint's id at each start cell's id, and -1 everywhere else
        height = grid.shape[1]
        planned = {x * height + y: real_astar(grid, (x, y), goal_cell)[2] for x, y in calls}
        assert list(grid.waypoints) == [(goal_cell, 2)]
        table = grid.waypoints[goal_cell, 2]
        assert {i: divmod(cell, height) for i, cell in enumerate(table) if cell != -1} == planned
        assert table.count(-1) == len(table) - 2
        # a `replace` copy plans on a table of its own
        build_waypoint_reward(replace(grid), [0.01, 0.02], (2.0, 2.0), goal_cell, 2)
        assert calls == [grid.cell_of((0.0, 0.0)), grid.cell_of((0.5, 0.5)), grid.cell_of((0.0, 0.0))]

    def test_the_table_stays_one_int32_array_over_the_grid(self):
        # every start cell of a free grid planned: still one 4-byte entry per grid cell, by cell id
        grid = PlannerGrid(0.1, (0.0, 0.0), (7, 5))
        goal_cell = (5, 1)
        goal = grid.center(goal_cell)
        for x in range(7):
            for y in range(5):
                build_waypoint_reward(grid, grid.center((x, y)), goal, goal_cell, 3)
        [table] = grid.waypoints.values()
        assert (table.typecode, table.itemsize, len(table)) == ("i", 4, 7 * 5)
        for x in range(7):
            for y in range(5):
                path = astar(grid, (x, y), goal_cell)
                assert divmod(table[x * 5 + y], 5) == path[min(3, len(path) - 1)]
