"""What an observer senses: the sight table, the view of the modules in
sight, and the reuse of local channels between decide phases. The harness
builds one `Sight` per run, only when some module has controllers.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from numbers import Real
from typing import NamedTuple

from .control import LocalChannel
from .geometry import Pose
from .robot_model import Health, ModuleClass

_OK = Health.OK
_NAN = math.nan


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
    order: `get` reads one module, None when it is out of sight; `select`
    lists the modules in sight, every one of them when called without
    filters; and `len` counts them.

    The view reads immutable tables indexed by module id: `table`, one
    `(module_class, pose, health)` entry per module, and `unwell`, the
    ascending ids whose health is not OK, both shared by every view of one
    decide phase; and `row`, this observer's distance to each id as an
    `array('d')` that nothing else holds or changes, NaN for an id out of
    sight. NaN is only this internal mark: no record carries it. Records
    are built only when read: `get` and `select` build the ones they
    return.

    `table` hands out the shared module table itself. A `Sight` rebuilds
    it on every move and every death, and rewrites a row only on a move,
    so while an observer's view shares last phase's table object, its row
    equals last phase's too: a controller may key a memo on the table
    object in place of the view, whose row is a private copy.
    """

    __slots__ = ("_table", "_unwell", "_row")

    def __init__(self,
                 table: tuple[tuple[ModuleClass, Pose, Health] | None, ...],
                 unwell: tuple[int, ...], row: array):
        self._table = table
        self._unwell = unwell
        self._row = row

    @property
    def table(self) -> tuple[tuple[ModuleClass, Pose, Health] | None, ...]:
        """The module table this view reads, shared by every view of one
        decide phase."""
        return self._table

    @classmethod
    def of(cls, records) -> "SensedModules":
        """A view of exactly these records, for an observation built by
        hand. Each id must be new and not negative, and each distance a
        real number that is neither NaN nor negative."""
        records = sorted(records, key=lambda m: m.id)
        n = records[-1].id + 1 if records else 0
        table: list = [None] * n
        row = array("d", (_NAN,)) * n
        for m in records:
            if m.id < 0 or row[m.id] == row[m.id]:
                raise ValueError(f"sensed module id {m.id} is negative "
                                 f"or repeated")
            d = m.distance
            # NaN fails `d >= 0` too
            if not isinstance(d, Real) or not d >= 0:
                raise ValueError(f"sensed module id {m.id} has distance "
                                 f"{d!r}: not a real number, NaN or "
                                 f"negative")
            table[m.id] = (m.module_class, m.pose, m.health)
            row[m.id] = d
        unwell = tuple(m.id for m in records if m.health is not _OK)
        return cls(tuple(table), unwell, row)

    def get(self, module_id: int) -> SensedModule | None:
        """Module `module_id` as sensed, or None when it is out of sight."""
        row = self._row
        if 0 <= module_id < len(row):
            d = row[module_id]
            if d == d:
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
            if d != d:
                continue
            mc, pose, health = table[j]
            if ((module_class is None or mc is module_class)
                    and (healthy is None or (health is _OK) is healthy)):
                out.append(SensedModule(j, mc, pose, health, d))
        return out

    def __len__(self) -> int:
        row = self._row
        return len(row) - sum(map(math.isnan, row))


class Sight:
    """What every observer senses, kept from one decide phase to the next.

    Indexed by module id: each Pose (immutable, so an unchanged Pose object
    is an unmoved module), its x, its y, its (x, y) point and its cell as of
    the last refresh;
    `dist`, the flat n x n table of doubles, an `array('d')`, whose entry
    j * n + k is the distance between modules j and k when in range and in
    line of sight, else NaN (NaN for j == k): NaN is the table's internal
    mark, and SensedModules keeps the public contract, None from `get` and
    absent from `select` and `len`; each live observer's sensed sockets,
    read with the run's socket flags `active` (socket id -> on); and the
    local channel its last observation handed out, with its own copy of the
    observer's row. A move, a socket toggle or a death makes every channel
    stale, and refresh drops them all before it rewrites any row, so one
    generation of rows is held. `table` and `unwell`, shared by one decide
    phase's local channels, hold (module_class, pose, health) per id and
    the ids whose health is not OK.

    A refresh builds a new `table` on every move and every death, and
    rewrites a row only on a move. So while an observer's local channel
    shares last phase's `table` object, its row equals last phase's, and
    so do its sockets unless a socket toggled: a toggle gives the
    observers new sockets tuples and keeps the table.
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
        self.dist = array("d", (_NAN,)) * (n * n)
        self.sockets: list[tuple] = [()] * n
        self.table: tuple[tuple, ...] = ()
        self.unwell: tuple[int, ...] = ()
        self.deaths = -1            # deaths counted when the table was built
        self.actives: tuple[bool, ...] | None = None  # at the last refresh
        self.local: list[LocalChannel | None] = [None] * n
        cs = arena.cell_size
        self.arena_size = (arena.width * cs, arena.height * cs)
        self.yard = arena.yard

    def refresh(self, states: dict, deaths: int,
                sense_sockets) -> tuple[int, ...]:
        """Drop the dead observers and, when stale, every local channel;
        bring the tables and the observers' sockets up to date with the
        current poses, and return the live observers in id order.
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
            observers = self.observers = tuple(alive)
        if not observers:
            self.local = []
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
        n = len(poses)
        active = self.active
        actives = tuple(active.values())
        toggled = actives != self.actives
        self.actives = actives
        if moved or toggled or deaths != self.deaths:
            # every channel handed out is stale: drop them all before any
            # row is rewritten, so the rows of one decide phase are held,
            # never those of two
            self.local = [None] * n
        if moved:
            # cell_of floors x / cell_size, which keeps order, so the corner
            # cells of the fleet come from its extreme coordinates
            x0, y0 = arena.cell_of(min(xs), min(ys))
            x1, y1 = arena.cell_of(max(xs), max(ys))
            all_in_sight = arena.rect_is_open(x0, y0, x1, y1)
            line_of_sight = arena.line_of_sight
            distance = math.dist
            dist = self.dist
            for j in moved:
                row = list(map(distance, points, repeat(points[j])))
                if max(row) > range_m:
                    row = [d if d <= range_m else _NAN for d in row]
                row[j] = _NAN
                if not all_in_sight:
                    cell = cells[j]
                    for k, d in enumerate(row):
                        if d == d and not line_of_sight(cell, cells[k]):
                            row[k] = _NAN
                row = array("d", row)
                dist[j * n:(j + 1) * n] = row
                dist[j::n] = row

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
        return observers

    def local_channel(self, i: int) -> LocalChannel:
        """Observer i's local channel for this decide phase: the last one
        handed out while refresh has not dropped it, as nothing it reads
        has changed, else built from i's row of the sight table and this
        phase's module table."""
        local = self.local[i]
        if local is not None:
            return local
        # the row's refresh put the cell of this very pose in `cells`
        cx, cy = self.cells[i]
        arena = self.arena
        terrain = (arena.terrain_at_cell(cx, cy)
                   if arena.cell_in_bounds(cx, cy) else None)
        n = len(self.poses)
        # positional arguments, in field order: a keyword call costs about
        # twice as much. The slice is the view's own copy of row i, an
        # array of n doubles
        local = self.local[i] = LocalChannel(
            terrain, self.sockets[i],
            SensedModules(self.table, self.unwell,
                          self.dist[i * n:(i + 1) * n]),
            self.arena_size, self.yard)
        return local
