"""Task rewards over generic displacement outcomes.

The mission-level goal is decoupled from the model: the model predicts a
relative displacement for each behavior, and a per-step reward scores that
displacement by how close it brings the robot to a waypoint. The waypoint
comes from an A* path from the current pose's cell over a coarse occupancy
grid: the closed-form staircase the search returns when none of its cells is
blocked, else the search on integer cell ids. A reward is a plain function
that scores a whole batch of outcomes in one call, (n, outcome_dim) -> (n,).
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# Largest planner grid, in cells, that `PlannerGrid.for_mission` builds. Corner to corner on a
# free 500 x 500 grid A* takes 0.2-0.4 ms (the staircase); a walled-in goal, 0.6-0.8 s (2 vCPU).
MAX_PLANNER_CELLS = 250_000


class UnreachableGoalError(RuntimeError):
    """No grid path exists from the current pose to the goal."""


@dataclass(frozen=True)
class PlannerGrid:
    """Axis-aligned occupancy grid for waypoint planning.

    origin is the lower-left corner of cell (0, 0). Poses outside the grid
    clamp to the nearest boundary cell so planning stays total.
    """

    cell_size: float
    origin: tuple[float, float]
    shape: tuple[int, int]
    blocked: frozenset = field(default_factory=frozenset)
    # build_waypoint_reward's memo, shared by every mission planning on this grid (a copy starts empty):
    # (goal cell, lookahead_cells) -> int32 array by A* start cell id x * height + y: waypoint cell id, or -1
    waypoints: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        if self.shape[0] < 1 or self.shape[1] < 1:
            raise ValueError(f"grid shape must be positive, got {self.shape}")

    @classmethod
    def for_mission(
        cls,
        start,
        goal,
        cell_size: float = 0.1,
        margin: float = 1.0,
    ) -> "PlannerGrid":
        """Grid covering start and goal plus a margin.

        The origin is snapped so cell centers land on integer multiples of
        cell_size; a start or goal on such a multiple sits exactly on a
        center. Grids of more than MAX_PLANNER_CELLS cells are rejected, and so are grids
        holding a point whose squared length overflows, as the goal test's would.
        Python floats keep the arithmetic free of numpy overflow warnings.
        """
        origin, shape = [], []
        for s, g in zip(map(float, start), map(float, goal)):
            low, high = min(s, g) - margin, max(s, g) + margin
            first = low / cell_size - 0.5   # the origin in cells, before snapping
            finite = math.isfinite(first)
            origin.append((math.floor(first) + 0.5) * cell_size if finite else math.nan)
            cells = (high - origin[-1]) / cell_size
            shape.append(math.ceil(cells) if math.isfinite(cells) else math.inf)
        if not math.prod(shape) <= MAX_PLANNER_CELLS:
            raise ValueError(
                f"planner grid of {shape[0]:g} x {shape[1]:g} cells exceeds the "
                f"limit of {MAX_PLANNER_CELLS} cells"
            )
        far = [max(abs(o), abs(o + n * cell_size)) for o, n in zip(origin, shape)]   # the farthest corner
        if not math.isfinite(far[0] * far[0] + far[1] * far[1]):
            raise ValueError(f"planner grid reaches ({far[0]:g}, {far[1]:g}), whose squared length overflows")
        return cls(
            cell_size=cell_size,
            origin=(origin[0], origin[1]),
            shape=(shape[0], shape[1]),
        )

    def cell_of(self, point) -> tuple[int, int]:
        x, y = np.asarray(point, dtype=float).tolist()   # Python floats: no numpy scalars
        ix = math.floor((x - self.origin[0]) / self.cell_size)
        iy = math.floor((y - self.origin[1]) / self.cell_size)
        ix = min(max(ix, 0), self.shape[0] - 1)
        iy = min(max(iy, 0), self.shape[1] - 1)
        return ix, iy

    def center(self, cell: tuple[int, int]) -> np.ndarray:
        return np.array(
            [
                self.origin[0] + (cell[0] + 0.5) * self.cell_size,
                self.origin[1] + (cell[1] + 0.5) * self.cell_size,
            ]
        )


def astar(
    grid: PlannerGrid, start: tuple[int, int], goal: tuple[int, int], steps: Optional[int] = None
) -> Optional[list[tuple[int, int]]]:
    """4-connected shortest path from start to goal, or None if unreachable.

    Unit step costs with a Manhattan heuristic. Among equally short paths the
    search prefers cells near the straight start-goal segment, so free-space
    paths form a balanced staircase instead of an arbitrary L. That staircase
    comes in closed form (a = |dx|, b = |dy|), and the search runs only if one
    of its cells is blocked. After i x-steps and j y-steps, the line bias is
    |u|, u = j*a - i*b; the step rule below keeps u in [-(a+b)/2, (a+b)/2),
    one cell per level. Until the goal pops, the next staircase cell waits
    with f = a + b and bias <= (a+b)/2, so each popped cell has those. The
    other predecessor of staircase cell g_k has u = u(g_k-1) +- (a+b): it
    never pops, or its bias ties at (a+b)/2, and then g_k-2 pushed both,
    x-move first, so g_k-1 pops first. Blocked cells off the staircase only
    remove competitors. With no blocked cell but the start, only `steps` moves are built.
    """
    (sx, sy), (gx, gy), (width, height) = start, goal, grid.shape
    if not (0 <= sx < width and 0 <= gx < width and 0 <= sy < height and 0 <= gy < height):
        return None
    blocked = grid.blocked - {start}   # a blocked start is still expanded, also as the goal
    if goal in blocked:
        return None
    dx, dy = sx - gx, sy - gy
    a, b, x, y, u = abs(dx), abs(dy), sx, sy, 0
    path = [start]
    for _ in range(a + b if blocked or steps is None else min(steps, a + b)):
        if y == gy or (x != gx and 2 * u >= b - a):
            x, u = x - (dx > 0) + (dx < 0), u - b   # one step toward gx
        else:
            y, u = y - (dy > 0) + (dy < 0), u + a   # one step toward gy
        path.append((x, y))
    if blocked.isdisjoint(path):
        return path
    closed = bytearray(width * height)   # by cell id x * height + y; blocked cells too
    for x, y in blocked:
        if 0 <= x < width and 0 <= y < height:
            closed[x * height + y] = 1
    source, target = sx * height + sy, gx * height + gy
    best_g, parent = {source: 0}, {}
    counter = 0
    # entries (f, line bias, push counter, cell, x, y) pop in the order of the first three;
    # the bias |(cell - goal) x (start - goal)| is zero on the start-goal line
    frontier = [(abs(dx) + abs(dy), 0, counter, source, sx, sy)]
    moves = ((height, 1, 0), (-height, -1, 0), (1, 0, 1), (-1, 0, -1))   # (id step, dx, dy)
    while frontier:
        _, _, _, cell, x, y = heapq.heappop(frontier)
        if cell == target:
            path = [goal]
            while cell in parent:
                cell = parent[cell]
                path.append(divmod(cell, height))
            path.reverse()
            return path
        if closed[cell]:
            continue
        closed[cell] = 1
        g = best_g[cell] + 1
        for step, mx, my in moves:
            nxt, nx, ny = cell + step, x + mx, y + my
            if not (0 <= nx < width and 0 <= ny < height) or closed[nxt] or g >= best_g.get(nxt, g + 1):
                continue
            best_g[nxt] = g
            parent[nxt] = cell
            counter += 1
            f = g + abs(nx - gx) + abs(ny - gy)
            heapq.heappush(frontier, (f, abs((nx - gx) * dy - dx * (ny - gy)), counter, nxt, nx, ny))
    return None


def make_distance_reward(waypoint, current_pose) -> Callable[[np.ndarray], np.ndarray]:
    """Reward each candidate displacement g by -|| (pose + g) - waypoint ||."""

    def score(outcomes) -> np.ndarray:
        diff = (current_pose + np.asarray(outcomes, dtype=float)) - waypoint
        # vecdot runs the BLAS dot that np.linalg.norm uses on one vector, so
        # each score equals the per-row norm bit for bit and argmax ties hold
        return -np.sqrt(np.vecdot(diff, diff))

    return score


def build_waypoint_reward(
    grid: PlannerGrid,
    pose,
    goal,
    goal_cell: tuple[int, int],
    lookahead_cells: int,
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-step reward refresh: plan pose -> `goal_cell` (`grid.cell_of(goal)`,
    which a mission derives once) and chase the path cell `lookahead_cells` on
    (the last cell if the path is shorter). A waypoint on the goal cell is the
    exact goal point, not the cell center, so the final approach aims at it.
    """
    if lookahead_cells < 1:
        raise ValueError("lookahead_cells must be at least 1")
    start_cell, (width, height) = grid.cell_of(pose), grid.shape
    start = start_cell[0] * height + start_cell[1]
    cells = grid.waypoints.get((goal_cell, lookahead_cells))
    if cells is None:
        cells = grid.waypoints[goal_cell, lookahead_cells] = array("i", [-1]) * (width * height)
    if (cell := cells[start]) < 0:
        path = astar(grid, start_cell, goal_cell, lookahead_cells)
        if path is None:
            raise UnreachableGoalError(f"no grid path from cell {start_cell} to cell {goal_cell}")
        x, y = path[min(lookahead_cells, len(path) - 1)]
        cell = cells[start] = x * height + y
    cell = divmod(cell, height)
    waypoint = goal if cell == goal_cell else grid.center(cell)
    return make_distance_reward(waypoint, pose)
