"""What an observer senses: the per-phase snapshot of the fleet, the view
of the modules in sight, measured only when read, and the reuse of local
channels between decide phases. The harness builds one `Sight` per run,
only when some module has controllers.
"""

from __future__ import annotations

from functools import partial
from numbers import Real
from typing import NamedTuple

from .control import LocalChannel
from .geometry import Pose
from .robot_model import Health, ModuleClass

_OK = Health.OK
# the entry of a module no refresh has seen yet: no pose is None, so every
# module is new to the first refresh
_UNSEEN = (None, None, None, None)


class SensedModule(NamedTuple):
    """Another module as one observer sees it this tick. A named tuple, not
    a frozen dataclass: a crowded run builds one per pair in sight per tick,
    and a tuple is several times cheaper to construct."""

    id: int
    module_class: ModuleClass
    pose: Pose
    health: Health
    distance: float


def _measure(arena, range_m: float, table: tuple, i: int,
             j: int) -> float | None:
    """Observer i's distance to module j of the snapshot `table`, or None
    when j is i, out of range or out of line of sight from i's cell. The
    distance is `Pose.distance_to` from i, as a fresh scan measures it."""
    if j == i:
        return None
    _, pose, _, cell = table[i]
    _, other, _, other_cell = table[j]
    d = pose.distance_to(other)
    if d > range_m or not arena.line_of_sight(cell, other_cell):
        return None
    return d


class SensedModules:
    """The modules one observer sees, as a read-only view in ascending id
    order: `get` reads one module, None when it is out of sight; `select`
    lists the modules in sight, every one of them when called without
    filters; and `len` counts them.

    The view reads an immutable snapshot shared by every view of one
    decide phase: one entry per id that starts `(module_class, pose,
    health)`, None for an id that holds no module, and `unwell`, the
    ascending ids whose health is not OK. A module is measured only when
    read, by `distance` (id -> distance, or None when out of sight): `get`
    measures the one id it is asked about, and `select` only the ids that
    pass its class and health filters. Records are built only when read
    too: `get` and `select` build the ones they return.
    """

    __slots__ = ("_table", "_unwell", "_distance")

    def __init__(self, table: tuple, unwell: tuple[int, ...], distance):
        self._table = table
        self._unwell = unwell
        self._distance = distance

    @classmethod
    def of(cls, records) -> "SensedModules":
        """A view of exactly these records, for an observation built by
        hand: it reads the distances it is handed. Each id must be new and
        not negative, and each distance a real number that is neither NaN
        nor negative."""
        records = sorted(records, key=lambda m: m.id)
        n = records[-1].id + 1 if records else 0
        table: list = [None] * n
        given: dict[int, float] = {}
        for m in records:
            if m.id < 0 or m.id in given:
                raise ValueError(f"sensed module id {m.id} is negative "
                                 f"or repeated")
            d = m.distance
            # NaN fails `d >= 0` too
            if not isinstance(d, Real) or not d >= 0:
                raise ValueError(f"sensed module id {m.id} has distance "
                                 f"{d!r}: not a real number, NaN or "
                                 f"negative")
            table[m.id] = (m.module_class, m.pose, m.health)
            given[m.id] = float(d)
        unwell = tuple(m.id for m in records if m.health is not _OK)
        return cls(tuple(table), unwell, given.get)

    def get(self, module_id: int) -> SensedModule | None:
        """Module `module_id` as sensed, or None when it is out of sight."""
        table = self._table
        if 0 <= module_id < len(table):
            entry = table[module_id]
            if entry is not None:
                d = self._distance(module_id)
                if d is not None:
                    return SensedModule(module_id, entry[0], entry[1],
                                        entry[2], d)
        return None

    def select(self, module_class: ModuleClass | None = None,
               healthy: bool | None = None) -> list[SensedModule]:
        """The modules in sight of `module_class` (any when None) whose
        health is OK (healthy=True), not OK (False) or either (None), in
        ascending id order. The filters read the snapshot, so only the ids
        that pass them are measured, and healthy=False visits only the
        unwell ids."""
        table, distance = self._table, self._distance
        out = []
        for j in self._unwell if healthy is False else range(len(table)):
            entry = table[j]
            if entry is None:
                continue
            mc, pose, health = entry[0], entry[1], entry[2]
            if ((module_class is None or mc is module_class)
                    and (healthy is None or (health is _OK) is healthy)):
                d = distance(j)
                if d is not None:
                    out.append(SensedModule(j, mc, pose, health, d))
        return out

    def __len__(self) -> int:
        table, distance = self._table, self._distance
        return sum(1 for j, entry in enumerate(table)
                   if entry is not None and distance(j) is not None)


class Sight:
    """What every observer senses, kept from one decide phase to the next.

    `table` is the snapshot of the last refresh, one immutable
    (module_class, pose, health, cell) entry per id, and `unwell` the
    ascending ids whose health is not OK; both are replaced, never changed,
    when a module moves or dies, so every view of one decide phase reads
    the same snapshot, and a view kept from an earlier phase reads its
    own. For each live observer the sight keeps its sensed sockets, read
    with the run's socket flags `active` (socket id -> on), and the local
    channel its last observation handed out. A move, a socket toggle or a
    death makes every channel stale, and refresh drops them all; until
    then an observer's channel goes out again. Nothing is kept per pair: a
    view measures a pair only when it is read.
    """

    def __init__(self, arena, active: dict[int, bool], range_m: float, n: int,
                 observers: tuple[int, ...]):
        self.arena = arena
        self.active = active
        self.range_m = range_m
        self.observers = observers          # live ids with controllers
        self.table: tuple[tuple, ...] = (_UNSEEN,) * n
        self.unwell: tuple[int, ...] = ()
        self.sockets: list[tuple] = [()] * n
        self.actives: tuple[bool, ...] | None = None  # at the last refresh
        self.local: list[LocalChannel | None] = [None] * n
        cs = arena.cell_size
        self.arena_size = (arena.width * cs, arena.height * cs)
        self.yard = arena.yard

    def refresh(self, states: dict, sense_sockets) -> tuple[int, ...]:
        """Drop the dead observers and, when stale, every local channel;
        bring the snapshot and the observers' sockets up to date with the
        current poses and health, and return the live observers in id
        order. `sense_sockets` reads one observer's sockets."""
        observers = self.observers
        alive = [i for i in observers if states[i].health is _OK]
        if len(alive) < len(observers):
            # death is final: the dead never observe again
            observers = self.observers = tuple(alive)
        if not observers:
            self.local = []
            return observers
        arena = self.arena
        table = self.table
        changed = [st for st, (_, pose, health, _) in zip(states.values(),
                                                          table)
                   if st.pose is not pose or st.health is not health]
        actives = tuple(self.active.values())
        toggled = actives != self.actives
        self.actives = actives
        if changed or toggled:
            self.local = [None] * len(table)
        if changed:
            table = list(table)
            cell_of = arena.cell_of
            for st in changed:
                pose = st.pose
                table[st.id] = (st.module_class, pose, st.health,
                                cell_of(pose.x, pose.y))
            self.table = tuple(table)
            self.unwell = tuple([j for j, entry in enumerate(table)
                                 if entry[2] is not _OK])
        # health changes only by a death, which is final, so a live
        # observer that changed has moved
        for i in (observers if toggled
                  else {st.id for st in changed}.intersection(observers)):
            self.sockets[i] = tuple(sense_sockets(self.table[i][1],
                                                  self.range_m, arena,
                                                  self.active))
        return observers

    def local_channel(self, i: int) -> LocalChannel:
        """Observer i's local channel for this decide phase: the last one
        handed out while refresh has not dropped it, as nothing it reads
        has changed, else built over this phase's snapshot."""
        local = self.local[i]
        if local is not None:
            return local
        table, arena = self.table, self.arena
        cx, cy = table[i][3]
        terrain = (arena.terrain_at_cell(cx, cy)
                   if arena.cell_in_bounds(cx, cy) else None)
        # positional arguments, in field order: a keyword call costs about
        # twice as much
        local = self.local[i] = LocalChannel(
            terrain, self.sockets[i],
            SensedModules(table, self.unwell,
                          partial(_measure, arena, self.range_m, table, i)),
            self.arena_size, self.yard)
        return local
