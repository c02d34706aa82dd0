"""What an observer senses: the sight table, the view of the modules in
sight, and the reuse of local channels between decide phases. The harness
builds one `Sight` per run, only when some module has controllers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat
from typing import NamedTuple

from .control import LocalChannel
from .geometry import Pose
from .robot_model import Health, ModuleClass

_OK = Health.OK


class SensedModule(NamedTuple):
    """Another module as one observer sees it this tick. A named tuple, not
    a frozen dataclass: a crowded run builds one per pair in sight per tick,
    and a tuple is several times cheaper to construct."""

    id: int
    module_class: ModuleClass
    pose: Pose
    health: Health
    distance: float


class SensedModules:
    """The modules one observer sees, as a read-only view in ascending id
    order: `get` reads one module, `select` lists the modules in sight,
    every one of them when called without filters, and `len` counts them.

    The view reads immutable tables indexed by module id: `table`, one
    `(module_class, pose, health)` entry per module, and `unwell`, the
    ascending ids whose health is not OK, both shared by every view of one
    decide phase; and `row`, this observer's distance to each id in sight,
    else None, a sequence that nothing else holds or changes. Records are
    built only when read: `get` and `select` build the ones they return.
    """

    __slots__ = ("_table", "_unwell", "_row")

    def __init__(self,
                 table: tuple[tuple[ModuleClass, Pose, Health] | None, ...],
                 unwell: tuple[int, ...], row: Sequence[float | None]):
        self._table = table
        self._unwell = unwell
        self._row = row

    @classmethod
    def of(cls, records) -> "SensedModules":
        """A view of exactly these records, for an observation built by hand."""
        records = sorted(records, key=lambda m: m.id)
        n = records[-1].id + 1 if records else 0
        table: list = [None] * n
        row: list = [None] * n
        for m in records:
            if m.id < 0 or row[m.id] is not None:
                raise ValueError(f"sensed module id {m.id} is negative "
                                 f"or repeated")
            table[m.id] = (m.module_class, m.pose, m.health)
            row[m.id] = m.distance
        unwell = tuple(m.id for m in records if m.health is not _OK)
        return cls(tuple(table), unwell, tuple(row))

    def get(self, module_id: int) -> SensedModule | None:
        """Module `module_id` as sensed, or None when it is out of sight."""
        row = self._row
        if 0 <= module_id < len(row):
            d = row[module_id]
            if d is not None:
                return SensedModule(module_id, *self._table[module_id], d)
        return None

    def select(self, module_class: ModuleClass | None = None,
               healthy: bool | None = None) -> list[SensedModule]:
        """The modules in sight of `module_class` (any when None) whose
        health is OK (healthy=True), not OK (False) or either (None), in
        ascending id order. The filter reads the tables, so only the records
        returned are built, and healthy=False visits only the unwell ids."""
        table, row = self._table, self._row
        out = []
        for j in self._unwell if healthy is False else range(len(row)):
            d = row[j]
            if d is None:
                continue
            mc, pose, health = table[j]
            if ((module_class is None or mc is module_class)
                    and (healthy is None or (health is _OK) is healthy)):
                out.append(SensedModule(j, mc, pose, health, d))
        return out

    def __len__(self) -> int:
        return len(self._row) - self._row.count(None)


class Sight:
    """What every observer senses, kept from one decide phase to the next.

    Indexed by module id: each Pose (immutable, so an unchanged Pose object
    is an unmoved module), its x, its y, its (x, y) point and its cell as of
    the last refresh;
    `dist`, the flat n x n table whose entry j * n + k is the distance
    between modules j and k when in range and in line of sight, else None
    (None for j == k); each live observer's sensed sockets, read with the
    run's socket flags `active` (socket id -> on); and the local channel its
    last observation handed out, which goes stale on a move, a socket toggle
    or a death. `table` and `unwell`, shared by one decide
    phase's local channels, hold (module_class, pose, health) per id and
    the ids whose health is not OK.
    """

    def __init__(self, arena, active: dict[int, bool], range_m: float, n: int,
                 observers: tuple[int, ...]):
        self.arena = arena
        self.active = active
        self.range_m = range_m
        self.observers = observers          # live ids with controllers
        self.poses: list[Pose | None] = [None] * n
        self.xs = [0.0] * n
        self.ys = [0.0] * n
        self.points: list[tuple[float, float]] = [(0.0, 0.0)] * n
        self.cells: list[tuple[int, int] | None] = [None] * n
        self.dist: list[float | None] = [None] * (n * n)
        self.sockets: list[tuple] = [()] * n
        self.table: tuple[tuple, ...] = ()
        self.unwell: tuple[int, ...] = ()
        self.deaths = -1            # deaths counted when the table was built
        self.actives: tuple[bool, ...] | None = None  # at the last refresh
        self.local_stale = True
        self.local: list[LocalChannel | None] = [None] * n
        cs = arena.cell_size
        self.arena_size = (arena.width * cs, arena.height * cs)
        self.yard = arena.yard

    def refresh(self, states: dict, deaths: int,
                sense_sockets) -> tuple[int, ...]:
        """Drop the dead observers, bring the tables and the observers'
        sockets up to date with the current poses, decide whether the local
        channels are stale, and return the live observers in id order.
        `deaths` counts every death so far; `sense_sockets` reads one
        observer's sockets.

        Each moved module j gets its distances to every id in one pass,
        written as row j and, distance and line of sight being symmetric,
        as column j of the table. Line of sight is decided for the whole
        fleet first: when every module's cell is on the grid and the
        rectangle spanning them all holds no wall, it spans every pair's
        rectangle, so every pair is in sight. Otherwise each moved module
        asks the arena about each pair in range from its own end; a pair
        whose ends both moved is asked from both, and gets the same
        answer, as line of sight is symmetric too.

        A row is `math.dist` from the moved module's point to every point.
        It equals `hypot(xk - xj, yk - yj)` bit for bit, as both run
        CPython's one vector norm over the same differences, and the
        difference from either end differs only in sign, so either end
        computes the same distance."""
        observers = self.observers
        alive = [i for i in observers if states[i].health is _OK]
        if len(alive) < len(observers):
            # death is final: the dead never observe again
            for i in set(observers).difference(alive):
                self.local[i] = None
            observers = self.observers = tuple(alive)
        if not observers:
            return observers
        arena, range_m = self.arena, self.range_m
        poses, xs, ys, cells = self.poses, self.xs, self.ys, self.cells
        points = self.points
        moved = []
        for j, st in states.items():
            pose = st.pose
            if pose is not poses[j]:
                poses[j] = pose
                x = xs[j] = pose.x
                y = ys[j] = pose.y
                points[j] = (x, y)
                cells[j] = arena.cell_of(x, y)
                moved.append(j)
        if moved:
            # cell_of floors x / cell_size, which keeps order, so the corner
            # cells of the fleet come from its extreme coordinates
            x0, y0 = arena.cell_of(min(xs), min(ys))
            x1, y1 = arena.cell_of(max(xs), max(ys))
            all_in_sight = arena.rect_is_open(x0, y0, x1, y1)
            line_of_sight = arena.line_of_sight
            distance = math.dist
            dist = self.dist
            n = len(poses)
            for j in moved:
                row = list(map(distance, points, repeat(points[j])))
                if max(row) > range_m:
                    row = [d if d <= range_m else None for d in row]
                row[j] = None
                if not all_in_sight:
                    cell = cells[j]
                    for k, d in enumerate(row):
                        if d is not None and not line_of_sight(cell, cells[k]):
                            row[k] = None
                dist[j * n:(j + 1) * n] = row
                dist[j::n] = row

        active = self.active
        actives = tuple(active.values())
        toggled = actives != self.actives
        self.actives = actives
        for i in (observers if toggled
                  else set(moved).intersection(observers)):
            self.sockets[i] = tuple(sense_sockets(poses[i], range_m, arena,
                                                  active))
        if moved or deaths != self.deaths:
            states = states.values()
            self.table = tuple([(st.module_class, st.pose, st.health)
                                for st in states])
            self.unwell = tuple([st.id for st in states
                                 if st.health is not _OK])
            self.deaths = deaths
            self.local_stale = True
        else:
            self.local_stale = toggled
        return observers

    def local_channel(self, i: int) -> LocalChannel:
        """Observer i's local channel for this decide phase: built from i's
        row of the sight table and this phase's module table when stale,
        else the last one, as nothing it reads has changed."""
        if not self.local_stale:
            return self.local[i]
        # the row's refresh put the cell of this very pose in `cells`
        cx, cy = self.cells[i]
        arena = self.arena
        terrain = (arena.terrain_at_cell(cx, cy)
                   if arena.cell_in_bounds(cx, cy) else None)
        n = len(self.poses)
        # positional arguments, in field order: a keyword call costs about
        # twice as much. The slice is the view's own copy of row i
        local = self.local[i] = LocalChannel(
            terrain, self.sockets[i],
            SensedModules(self.table, self.unwell,
                          self.dist[i * n:(i + 1) * n]),
            self.arena_size, self.yard)
        return local
