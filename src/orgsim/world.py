"""Arena grid, wall power sockets, and the socket on/off schedule.

The arena is a rectangular cell grid. Map files are plain text: one character
per cell ('.' plain, 'r' rough, 's' slope, 'h' small hole, '#' obstacle,
'G' graveyard), an optional ``cellsize`` directive, then one ``socket`` line
per wall socket. Lines starting with ';' are comments; '#' could not be the
comment character because it draws walls. Poses live in continuous metres on
top of the grid; a cell is ``cell_size`` metres on a side and cell (0, 0)
starts at the map text's top-left corner with y growing downward.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from typing import Iterator, NamedTuple

from .errors import ConfigError
from .geometry import Pose
from .rng import Rng

DEFAULT_CELL_SIZE = 0.25
_PATH_SAMPLE_STEP = 0.05  # m; half a module edge, prevents wall tunnelling
# the most path_clear answers an arena keeps; no pinned workload asks more
# than about a thousand distinct queries, so none of them evicts one
PATH_MEMO_SIZE = 4096


class TerrainClass(enum.Enum):
    PLAIN = "plain"
    ROUGH = "rough"
    SLOPE = "slope"
    SMALL_HOLE = "small_hole"
    OBSTACLE = "obstacle"


_CHAR_TERRAIN = {
    ".": TerrainClass.PLAIN,
    "r": TerrainClass.ROUGH,
    "s": TerrainClass.SLOPE,
    "h": TerrainClass.SMALL_HOLE,
    "#": TerrainClass.OBSTACLE,
    "G": TerrainClass.PLAIN,  # graveyard floor is plain ground
}


@dataclass(frozen=True)
class Socket:
    """Wall power socket, anchored to the free cell in front of its wall. A
    map line gives the first four fields; the arena that loads it keeps a
    new record with the last two worked out (see Arena)."""

    id: int
    cell: tuple[int, int]
    height: float  # metres above the floor
    rating: float  # watts while active
    approach_deg: float = 0.0  # direction from the wall into the room
    centre: tuple[float, float] | None = None  # the anchor cell's, in metres


class Arena:
    """Terrain grid plus sockets and an optional graveyard region.

    The graveyard is the bounding rectangle of the 'G' cells and must be
    completely filled by them; a run uses it as the drop zone for dead
    modules. Every socket anchor must sit on a walkable cell that touches an
    obstacle cell, because sockets are mounted on walls. `sockets` holds,
    in id order, a new record of each socket handed in, with its approach
    direction and anchor centre; the records handed in are left as they are.

    Nothing changes an arena once it is validated: its lazy wall-count table
    and its `path_clear` memo are pure functions of the grid. A loaded
    scenario parses its map once, and every run of it shares that arena;
    which sockets are on belongs to each run (see SocketScheduler).
    """

    def __init__(self, cells: list[list[TerrainClass]], sockets: list[Socket],
                 graveyard: tuple[int, int, int, int] | None,
                 cell_size: float = DEFAULT_CELL_SIZE):
        if not cells or not cells[0]:
            raise ConfigError("arena grid is empty")
        width = len(cells[0])
        for row in cells:
            if len(row) != width:
                raise ConfigError("arena grid rows differ in length")
        if not cell_size > 0:       # NaN included
            raise ConfigError(f"cell_size must be positive, got {cell_size}")
        if cell_size == math.inf:
            raise ConfigError(f"cell_size must be finite, got {cell_size}")
        self.cells = cells
        self.width = width
        self.height = len(cells)
        self.cell_size = cell_size
        self.graveyard = graveyard
        # the graveyard in metres, the one rectangle in_yard reads
        self.yard = None if graveyard is None else (
            graveyard[0] * cell_size, graveyard[1] * cell_size,
            (graveyard[2] + 1) * cell_size, (graveyard[3] + 1) * cell_size)
        # summed-area table of obstacle cells, built on the first in-grid
        # rectangle query (see rect_is_open and _wall_table)
        self._walls: list[int] | None = None
        # this arena's path answers, least recently asked evicted first; the
        # memo wraps a function of the grid, not a bound method, so it holds
        # no reference back to the arena, and a dropped arena is freed
        # without waiting for the cyclic collector
        self.path_clear = lru_cache(maxsize=PATH_MEMO_SIZE)(
            partial(self._path_clear, cells, cell_size))
        self._socket_ids: dict[int, Socket] = {}
        for s in sorted(sockets, key=lambda s: s.id):
            if s.id in self._socket_ids:
                raise ConfigError(f"duplicate socket id {s.id}")
            self._socket_ids[s.id] = self._mounted(s)
        self.sockets = list(self._socket_ids.values())
        if graveyard is not None:
            x0, y0, x1, y1 = graveyard
            if not (self.cell_in_bounds(x0, y0) and self.cell_in_bounds(x1, y1)):
                raise ConfigError("graveyard rectangle outside arena")
        # counted without building the cell list, so that no per-cell list
        # is made or stays resident
        self.walkable_count = sum(1 for _ in self._walkable())

    def _mounted(self, s: Socket) -> Socket:
        """A new record of socket `s`, checked against this grid, with its
        approach direction and anchor cell centre."""
        cx, cy = s.cell
        if not self.cell_in_bounds(cx, cy):
            raise ConfigError(f"socket {s.id} anchor {s.cell} outside arena")
        if self.terrain_at_cell(cx, cy) is TerrainClass.OBSTACLE:
            raise ConfigError(f"socket {s.id} anchor {s.cell} is inside a wall")
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if (self.cell_in_bounds(cx + dx, cy + dy)
                    and self.terrain_at_cell(cx + dx, cy + dy) is TerrainClass.OBSTACLE):
                # with the anchor wedged against several walls the first
                # match in +x, -x, +y, -y order decides, so the answer
                # never depends on iteration luck
                approach = math.degrees(math.atan2(-dy, -dx)) % 360.0
                break
        else:
            raise ConfigError(f"socket {s.id} anchor {s.cell} does not touch a wall")
        if not s.height >= 0:
            raise ConfigError(f"socket {s.id} height {s.height} is negative "
                              f"or not a number")
        if not s.rating > 0:
            raise ConfigError(f"socket {s.id} rating {s.rating} must be positive")
        if s.rating == math.inf:
            raise ConfigError(f"socket {s.id} rating {s.rating} must be finite")
        return replace(s, approach_deg=approach, centre=self.cell_center(cx, cy))

    # -- cell level access ------------------------------------------------

    def cell_in_bounds(self, cx: int, cy: int) -> bool:
        return 0 <= cx < self.width and 0 <= cy < self.height

    def terrain_at_cell(self, cx: int, cy: int) -> TerrainClass:
        return self.cells[cy][cx]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return int(x // self.cell_size), int(y // self.cell_size)

    def cell_center(self, cx: int, cy: int) -> tuple[float, float]:
        return (cx + 0.5) * self.cell_size, (cy + 0.5) * self.cell_size

    def in_bounds(self, x: float, y: float) -> bool:
        return (0.0 <= x < self.width * self.cell_size
                and 0.0 <= y < self.height * self.cell_size)

    def terrain_at(self, x: float, y: float) -> TerrainClass | None:
        """Terrain under a metric point, or None outside the arena."""
        if not self.in_bounds(x, y):
            return None
        cx, cy = self.cell_of(x, y)
        return self.cells[cy][cx]

    def socket_by_id(self, socket_id: int) -> Socket | None:
        return self._socket_ids.get(socket_id)

    @staticmethod
    def _path_clear(cells: list[list[TerrainClass]], size: float, x0: float,
                    y0: float, x1: float, y1: float,
                    passable: tuple[TerrainClass, ...]) -> bool:
        """`path_clear` on the grid `cells` of `size`-metre cells: True when
        a straight move from (x0, y0) to (x1, y1) crosses only `passable`
        terrain inside the arena.

        The path is sampled at t = i / steps for i = 1..steps, with steps =
        max(1, ceil(length / 0.05 m)), so no sample gap is wider than 0.05 m
        and the start point is never sampled. A sample outside the arena, or
        on a cell whose terrain is not in `passable`, blocks the move.

        The grid never changes after validation, so an answer holds for
        good: each arena keeps the answers to its PATH_MEMO_SIZE latest
        distinct queries in a `functools.lru_cache`, keyed by value. Equal
        `passable` tuples share an answer, -0.0 and 0.0 share a key and are
        sampled alike, and a NaN raises before anything is stored. Each
        sample's cell is worked out inline, the way `terrain_at` would, and a
        run of consecutive samples in one cell reads its terrain once.
        """
        dx, dy = x1 - x0, y1 - y0
        steps = max(1, math.ceil(math.hypot(dx, dy) / _PATH_SAMPLE_STEP))
        x_end, y_end = len(cells[0]) * size, len(cells) * size
        last_cx = last_cy = -1
        for i in range(1, steps + 1):
            t = i / steps
            x = x0 + dx * t
            y = y0 + dy * t
            if not (0.0 <= x < x_end and 0.0 <= y < y_end):
                return False
            cx, cy = int(x // size), int(y // size)
            if cx != last_cx or cy != last_cy:
                if cells[cy][cx] not in passable:
                    return False
                last_cx, last_cy = cx, cy
        return True

    def _walkable(self) -> Iterator[tuple[int, int]]:
        """The cells that are not walls, in row order: the one rule that
        free_cells and walkable_count share."""
        wall = TerrainClass.OBSTACLE
        return ((cx, cy) for cy, row in enumerate(self.cells)
                for cx, terrain in enumerate(row) if terrain is not wall)

    def free_cells(self) -> list[tuple[int, int]]:
        """The walkable cells outside the graveyard, in row order: where a
        seeded run places its modules."""
        if self.graveyard is None:
            return list(self._walkable())
        x0, y0, x1, y1 = self.graveyard
        return [(cx, cy) for cx, cy in self._walkable()
                if not (x0 <= cx <= x1 and y0 <= cy <= y1)]

    # -- line of sight ----------------------------------------------------

    def line_of_sight(self, cell_a: tuple[int, int], cell_b: tuple[int, int]) -> bool:
        """True when no obstacle cell lies strictly between the two cells.

        Grid walk between the cell centers (Amanatides-Woo stepping). Exact
        corner crossings test both corner-adjacent cells, so a ray cannot
        slip diagonally between two wall blocks. Endpoint cells never block.

        The walk never leaves the bounding rectangle of its two end cells,
        so a pair whose rectangle is open (see `rect_is_open`) is visible
        without a walk. Any other pair, off-grid cells included, is walked
        on every query.
        """
        ax, ay = cell_a
        bx, by = cell_b
        x0, x1 = (ax, bx) if ax <= bx else (bx, ax)
        y0, y1 = (ay, by) if ay <= by else (by, ay)
        return self.rect_is_open(x0, y0, x1, y1) or self._trace(cell_a, cell_b)

    def rect_is_open(self, x0: int, y0: int, x1: int, y1: int) -> bool:
        """True when the cells (cx, cy) with x0 <= cx <= x1 and y0 <= cy <= y1
        all lie on the grid and none of them is an obstacle; the corners
        must be ordered, x0 <= x1 and y0 <= y1. The wall-count table answers
        in four lookups, whatever the rectangle's size."""
        width = self.width
        if not (0 <= x0 and x1 < width and 0 <= y0 and y1 < self.height):
            return False
        walls = self._walls
        if walls is None:
            walls = self._wall_table()
        x1 += 1
        r0 = y0 * (width + 1)
        r1 = (y1 + 1) * (width + 1)
        return not (walls[r1 + x1] - walls[r0 + x1]
                    - walls[r1 + x0] + walls[r0 + x0])

    def _wall_table(self) -> list[int]:
        """Build the flat (width+1) x (height+1) summed-area table: entry
        y * (width+1) + x counts the obstacle cells with cx < x and cy < y."""
        stride = self.width + 1
        walls = [0] * (stride * (self.height + 1))
        blocked = TerrainClass.OBSTACLE
        for cy, row in enumerate(self.cells):
            above = cy * stride
            here = above + stride
            run = 0
            for cx, terrain in enumerate(row):
                if terrain is blocked:
                    run += 1
                walls[here + cx + 1] = walls[above + cx + 1] + run
        self._walls = walls
        return walls

    def _trace(self, cell_a: tuple[int, int], cell_b: tuple[int, int]) -> bool:
        ax, ay = cell_a
        bx, by = cell_b
        if (ax, ay) == (bx, by):
            return True
        x0, y0 = ax + 0.5, ay + 0.5
        dx, dy = bx - ax, by - ay
        step_x = 1 if dx > 0 else (-1 if dx < 0 else 0)
        step_y = 1 if dy > 0 else (-1 if dy < 0 else 0)
        # Each crossing parameter comes from one fresh division: numerator
        # is an exact half-integer and the divisor an exact integer, so a
        # ray through a grid vertex produces equal floats from either end.
        # Accumulating t_max += t_delta drifts by an ulp and then misses
        # the corner ties the flanking check depends on.
        next_x = ax + (1 if step_x > 0 else 0)
        next_y = ay + (1 if step_y > 0 else 0)
        cx, cy = ax, ay
        blocked = TerrainClass.OBSTACLE
        while (cx, cy) != (bx, by):
            t_max_x = (next_x - x0) / dx if dx else math.inf
            t_max_y = (next_y - y0) / dy if dy else math.inf
            if t_max_x < t_max_y:
                cx += step_x
                next_x += step_x
            elif t_max_y < t_max_x:
                cy += step_y
                next_y += step_y
            else:
                # corner: either flanking cell blocks the ray
                for px, py in ((cx + step_x, cy), (cx, cy + step_y)):
                    if (px, py) != (bx, by) and self.cell_in_bounds(px, py) \
                            and self.cells[py][px] is blocked:
                        return False
                cx += step_x
                cy += step_y
                next_x += step_x
                next_y += step_y
            if (cx, cy) == (bx, by):
                break
            if not self.cell_in_bounds(cx, cy) or self.cells[cy][cx] is blocked:
                return False
        return True


# -- map file parsing -----------------------------------------------------


def parse_arena(text: str) -> Arena:
    cell_size = DEFAULT_CELL_SIZE
    grid_rows: list[str] = []
    sockets: list[Socket] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line or line.lstrip().startswith(";"):
            continue
        parts = line.split()
        if parts[0] == "cellsize":
            if grid_rows:
                raise ConfigError(f"map line {lineno}: cellsize must precede the grid")
            try:
                cell_size = float(parts[1])
            except (IndexError, ValueError):
                raise ConfigError(f"map line {lineno}: bad cellsize directive") from None
        elif parts[0] == "socket":
            try:
                sid, cx, cy = int(parts[1]), int(parts[2]), int(parts[3])
                height, rating = float(parts[4]), float(parts[5])
            except (IndexError, ValueError):
                raise ConfigError(
                    f"map line {lineno}: socket wants 'socket ID CX CY HEIGHT RATING'") from None
            sockets.append(Socket(id=sid, cell=(cx, cy), height=height, rating=rating))
        else:
            bad = set(line) - set(_CHAR_TERRAIN)
            if bad:
                raise ConfigError(
                    f"map line {lineno}: unknown terrain characters {sorted(bad)}")
            grid_rows.append(line)
    if not grid_rows:
        raise ConfigError("map has no terrain grid")
    cells = [[_CHAR_TERRAIN[ch] for ch in row] for row in grid_rows]

    grave_cells = [(cx, cy) for cy, row in enumerate(grid_rows)
                   for cx, ch in enumerate(row) if ch == "G"]
    graveyard = None
    if grave_cells:
        xs = [c[0] for c in grave_cells]
        ys = [c[1] for c in grave_cells]
        graveyard = (min(xs), min(ys), max(xs), max(ys))
        x0, y0, x1, y1 = graveyard
        expected = (x1 - x0 + 1) * (y1 - y0 + 1)
        if len(grave_cells) != expected:
            raise ConfigError("graveyard cells do not fill a rectangle")
    return Arena(cells, sockets, graveyard, cell_size)


# -- socket schedule ------------------------------------------------------


def schedule_findings(socket_count: int, dwell_min: int, dwell_max: int,
                      active_count: int) -> list[str]:
    """What breaks the rotating schedule's bounds over `socket_count`
    sockets: 0 < active_count <= socket_count and 0 < dwell_min <=
    dwell_max. Empty when the schedule can run."""
    findings = []
    if active_count <= 0:
        findings.append("rotating schedule needs active_count > 0")
    if active_count > socket_count:
        findings.append(f"active_count {active_count} exceeds the "
                        f"{socket_count} sockets on the map")
    if not 0 < dwell_min <= dwell_max:
        findings.append(f"dwell bounds must satisfy 0 < min <= max, got "
                        f"[{dwell_min}, {dwell_max}]")
    return findings


class SocketScheduler:
    """Drives one run's socket on/off flags tick by tick, deterministically
    per seed: `active` maps each socket id to its flag, in id order.

    Exactly `active_count` sockets are on. When an active socket's dwell,
    drawn from [dwell_min, dwell_max] ticks, expires it switches off and a
    pseudo-random inactive socket switches on with a fresh dwell. With
    every socket active the expiring one simply renews. Bounds that
    `schedule_findings` reports raise ConfigError.
    """

    def __init__(self, socket_ids, rng: Rng, dwell_min: int, dwell_max: int,
                 active_count: int):
        self.active: dict[int, bool] = dict.fromkeys(sorted(socket_ids), False)
        findings = schedule_findings(len(self.active), dwell_min, dwell_max,
                                     active_count)
        if findings:
            raise ConfigError("; ".join(findings))
        self.dwell_min, self.dwell_max = dwell_min, dwell_max
        self.rng = rng
        self._expiry: dict[int, int] = {}
        pool = list(self.active)
        for _ in range(active_count):
            sid = pool.pop(self.rng.randrange(len(pool)))
            self._activate(sid, 0)

    def _activate(self, sid: int, tick: int) -> None:
        self.active[sid] = True
        dwell = self.rng.randint(self.dwell_min, self.dwell_max)
        self._expiry[sid] = tick + dwell

    def step(self, tick: int) -> list[tuple[int, bool]]:
        """Advance to `tick`; returns (socket_id, active) changes in id order."""
        changes: list[tuple[int, bool]] = []
        expired = sorted(sid for sid, t in self._expiry.items() if t <= tick)
        for sid in expired:
            del self._expiry[sid]
            inactive = [i for i, on in self.active.items() if not on]
            if not inactive:
                self._activate(sid, tick)  # renew in place, no change visible
                continue
            self.active[sid] = False
            changes.append((sid, False))
            replacement = inactive[self.rng.randrange(len(inactive))]
            self._activate(replacement, tick)
            changes.append((replacement, True))
        return changes


# -- sensing --------------------------------------------------------------


class SensedSocket(NamedTuple):
    id: int
    position: tuple[float, float]
    active: bool
    rating: float
    distance: float
    height: float
    approach_deg: float   # direction from the wall into the room


# builds a SensedSocket in C from one tuple of every field, as
# orgsim.control builds its per-tick records
_sensed_socket = partial(tuple.__new__, SensedSocket)


def sense_sockets(pose: Pose, range_m: float, arena: Arena,
                  active: dict[int, bool]) -> list[SensedSocket]:
    """Sockets within Euclidean range and grid line of sight, sorted by id,
    each with its flag in `active` (socket id -> on). A socket's position
    is the centre of its anchor cell."""
    if not range_m >= 0:
        raise ValueError(f"sensing range must not be negative, got {range_m}")
    x, y = pose.x, pose.y
    origin = arena.cell_of(x, y)
    out = []
    for s in arena.sockets:
        px, py = centre = s.centre
        d = math.hypot(px - x, py - y)
        if d > range_m or not arena.line_of_sight(origin, s.cell):
            continue
        out.append(_sensed_socket((s.id, centre, active[s.id], s.rating, d,
                                   s.height, s.approach_deg)))
    return out


def in_yard(yard: tuple[float, float, float, float], x: float, y: float) -> bool:
    """Whether (x, y) lies in the graveyard rectangle `yard` (Arena.yard,
    in metres). Its near edges are in it; its far edges, which border the
    next cells, are not. The harness disposes by this rule and the
    disposal controller hauls by it."""
    x0, y0, x1, y1 = yard
    return x0 <= x < x1 and y0 <= y < y1
