"""Waypoint rewards and grid planning, checked against a BFS oracle."""

from collections import deque

import numpy as np
import pytest

from sela.reward import (
    PlannerGrid,
    UnreachableGoalError,
    astar,
    build_waypoint_reward,
    make_distance_reward,
    select_waypoint,
)


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
            if nxt in seen or not grid.in_bounds(nxt) or nxt in grid.blocked:
                continue
            if nxt == goal:
                return length + 1
            seen.add(nxt)
            queue.append((nxt, length + 1))
    return None


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
        assert grid.in_bounds(grid.cell_of((2.9, 2.9)))

    def test_outside_points_clamp_to_boundary(self):
        grid = free_grid(10)
        assert grid.cell_of((-5.0, 0.05)) == (0, 0)
        assert grid.cell_of((99.0, 99.0)) == (9, 9)


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
    def test_lookahead_from_pose_cell(self):
        grid = free_grid()
        path = astar(grid, (0, 0), (9, 9))
        waypoint = select_waypoint(grid, path, (0.05, 0.05), lookahead_cells=2)
        assert grid.cell_of(waypoint) == path[2]

    def test_clamps_to_final_cell(self):
        grid = free_grid()
        path = astar(grid, (0, 0), (1, 0))
        waypoint = select_waypoint(grid, path, (0.05, 0.05), lookahead_cells=10)
        assert grid.cell_of(waypoint) == (1, 0)

    def test_single_cell_path_returns_its_center(self):
        grid = free_grid()
        waypoint = select_waypoint(grid, [(3, 3)], (0.33, 0.35), lookahead_cells=2)
        np.testing.assert_allclose(waypoint, grid.center((3, 3)))


class TestDistanceReward:
    def test_known_values(self):
        reward = make_distance_reward([1.0, 0.0], [0.0, 0.0])
        assert reward(np.array([0.9, 0.0])) == pytest.approx(-0.1)
        assert reward(np.array([1.0, 0.0])) == 0.0

    def test_maximized_by_exact_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pose = rng.normal(size=2)
            waypoint = rng.normal(size=2)
            reward = make_distance_reward(waypoint, pose)
            exact = waypoint - pose
            assert reward(exact) == pytest.approx(0.0, abs=1e-12)
            for _ in range(10):
                assert reward(exact + rng.normal(scale=0.1, size=2)) <= 1e-12


class TestBuildWaypointReward:
    def test_free_space_waypoint_sits_on_the_line(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        reward = build_waypoint_reward(grid, (0.0, 0.0), (2.0, 2.0), lookahead_cells=2)
        # diagonal goal: the best unit step is the diagonal one
        step = 0.1 / np.sqrt(2.0)
        assert reward(np.array([step, step])) > reward(np.array([0.1, 0.0]))
        assert reward(np.array([step, step])) > reward(np.array([0.0, 0.1]))

    def test_goal_cell_uses_exact_goal_point(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        pose = np.array([1.93, 1.93])
        reward = build_waypoint_reward(grid, pose, (2.0, 2.0), lookahead_cells=2)
        gap = np.array([2.0, 2.0]) - pose
        assert reward(gap) == 0.0

    def test_pose_at_goal_cell_rewards_zero_remainder(self):
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 2.0))
        pose = np.array([1.98, 2.01])
        reward = build_waypoint_reward(grid, pose, (2.0, 2.0), lookahead_cells=2)
        assert reward(np.array([0.02, -0.01])) == pytest.approx(0.0, abs=1e-12)

    def test_blocked_straight_line_detours(self):
        free_grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 0.0))
        start_cell = free_grid.cell_of((0.0, 0.0))
        # wall in the column right of the start, with a gap well above the line
        wall_x = start_cell[0] + 1
        blocked = {(wall_x, y) for y in range(0, start_cell[1] + 6)}
        grid = PlannerGrid.for_mission((0.0, 0.0), (2.0, 0.0), blocked=blocked)
        free = build_waypoint_reward(free_grid, (0.0, 0.0), (2.0, 0.0), lookahead_cells=2)
        detour = build_waypoint_reward(grid, (0.0, 0.0), (2.0, 0.0), lookahead_cells=2)
        straight = np.array([0.1, 0.0])
        climb = np.array([0.0, 0.1])
        assert free(straight) > free(climb)
        assert detour(climb) > detour(straight)

    def test_unreachable_goal_raises(self):
        ring = {(x, y) for x in range(9, 12) for y in range(9, 12)} - {(10, 10)}
        grid = PlannerGrid(0.1, (0.0, 0.0), (20, 20), frozenset(ring))
        goal = grid.center((10, 10))
        with pytest.raises(UnreachableGoalError):
            build_waypoint_reward(grid, (0.05, 0.05), goal)
