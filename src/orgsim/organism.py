"""Organism topology: docked modules acting as one rigid body.

An organism is a connected graph of modules joined by docked port pairs. The
registry tracks every organism in the run; registering an edge merges, a
removed bridge edge splits, and modules left alone fall back to being plain
singletons. Organism ids equal the smallest member id, which keeps them
stable and reproducible without a counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .docking import DockPhase, DockPort
from .errors import CommandError, ProtocolError
from .geometry import Pose, rotate_about, rotate_vec
from .robot_model import (DriveKind, Health, ModuleClass, ModuleSpec, ModuleState,
                          passable_terrain)

if TYPE_CHECKING:
    from .control import Drive

G = 9.81  # m/s^2

Endpoint = tuple[int, str]          # (module id, face letter)
EdgeKey = tuple[Endpoint, Endpoint]


def edge_key(port_a: DockPort, port_b: DockPort) -> EdgeKey:
    ea = (port_a.owner, port_a.face.value)
    eb = (port_b.owner, port_b.face.value)
    return (ea, eb) if ea <= eb else (eb, ea)


@dataclass
class Organism:
    """One connected body. The registry never edits an organism it has
    published: every merge, split or loop-closing edge builds a new one, so
    facts derived from the shape, such as `reach`, can live on the object.
    """

    id: int
    nodes: set[int] = field(default_factory=set)
    edges: set[EdgeKey] = field(default_factory=set)
    # reach_height of this shape, filled by whoever first asks for it
    reach: float | None = field(default=None, compare=False, repr=False)

    def sorted_nodes(self) -> list[int]:
        return sorted(self.nodes)

    def adjacency(self) -> dict[int, list[int]]:
        """Each member's neighbours in ascending id, each once however many
        edges join the two, keyed in ascending id."""
        return _adjacency(self.nodes, self.edges)


def _adjacency(nodes: set[int], edges: set[EdgeKey]) -> dict[int, list[int]]:
    adj: dict[int, set[int]] = {n: set() for n in sorted(nodes)}
    for (a, _), (b, _) in edges:
        adj[a].add(b)
        adj[b].add(a)
    return {n: sorted(nbs) for n, nbs in adj.items()}


@dataclass(frozen=True)
class MergeEvent:
    organism_id: int
    absorbed: tuple[int, ...]   # previous organism ids folded in, if any
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class SplitEvent:
    organism_id: int            # organism the edge was removed from
    survivors: tuple[int, ...]  # organism ids existing afterwards
    dissolved: tuple[int, ...]  # modules that became singletons
    nodes: tuple[int, ...]      # the members it had


class OrganismRegistry:
    """All organisms of a run, updated as docked edges come and go. Every
    change follows one rule: the organisms an edge touches give way to new
    ones."""

    def __init__(self):
        self.organisms: dict[int, Organism] = {}
        self._member_of: dict[int, int] = {}

    def organism_of(self, module_id: int) -> Organism | None:
        org_id = self._member_of.get(module_id)
        return self.organisms[org_id] if org_id is not None else None

    def register_edge(self, port_a: DockPort, port_b: DockPort) -> MergeEvent:
        """Record a freshly docked connection: the organisms of its two
        ends, none, one or two, give way to one holding them and the edge."""
        if port_a.phase is not DockPhase.DOCKED or port_b.phase is not DockPhase.DOCKED:
            raise ProtocolError("register_edge wants two docked ports")
        if port_a.peer is not port_b or port_b.peer is not port_a:
            raise ProtocolError("register_edge wants mutually peered ports")
        nodes = {port_a.owner, port_b.owner}
        edges = {edge_key(port_a, port_b)}
        gone = {self._member_of[n] for n in nodes if n in self._member_of}
        for org_id in sorted(gone):
            org = self.organisms.pop(org_id)
            nodes |= org.nodes
            edges |= org.edges
        self._publish(nodes, edges)
        return MergeEvent(min(nodes), tuple(sorted(gone - {min(nodes)})),
                          tuple(sorted(nodes)))

    def remove_edge(self, key: EdgeKey) -> SplitEvent:
        """Drop a separated connection. What is left of its organism is one
        part or, when the edge was a bridge, two; a lone module falls back
        to being a plain singleton."""
        (a, _), (b, _) = key
        org = self.organism_of(a)
        if org is None or key not in org.edges:
            raise ValueError(f"edge {key} is not registered")
        del self.organisms[org.id]
        edges = org.edges - {key}
        adj = _adjacency(org.nodes, edges)
        part = {a}
        frontier = [a]
        while frontier:
            for m in adj[frontier.pop()]:
                if m not in part:
                    part.add(m)
                    frontier.append(m)
        parts = [part] if b in part else sorted((part, org.nodes - part), key=min)
        survivors, dissolved = [], []
        for nodes in parts:
            kept = self._publish(nodes, {e for e in edges if e[0][0] in nodes})
            (survivors if kept else dissolved).append(min(nodes))
        return SplitEvent(org.id, tuple(survivors), tuple(dissolved),
                          tuple(org.sorted_nodes()))

    def _publish(self, nodes: set[int], edges: set[EdgeKey]) -> bool:
        """Make `nodes` one new organism, True, or a lone module a plain
        singleton again, False."""
        if len(nodes) == 1:
            del self._member_of[min(nodes)]
            return False
        org = Organism(id=min(nodes), nodes=nodes, edges=edges)
        self.organisms[org.id] = org
        for n in nodes:
            self._member_of[n] = org.id
        return True


# -- mass and lift queries ------------------------------------------------


def center_of_mass(members, states: dict[int, ModuleState],
                   specs: dict[int, ModuleSpec]) -> tuple[float, float]:
    """Mass-weighted mean position of the given module ids."""
    members = list(members)
    if not members:
        raise ValueError("center_of_mass of no modules")
    total = 0.0
    sx = sy = 0.0
    for mid in members:
        m = specs[mid].mass
        p = states[mid].pose
        total += m
        sx += m * p.x
        sy += m * p.y
    return sx / total, sy / total


def lift_torque_nm(pivot: int, chain: tuple[int, ...],
                   specs: dict[int, ModuleSpec]) -> float:
    """Gravity torque about `pivot`'s joint of `chain`, ordered outward.

    Link i (1-based) hangs i edge lengths out, so the requirement is
    g * sum(mass_i * i * edge)."""
    edge = specs[pivot].edge_length
    torque = 0.0
    for i, mid in enumerate(chain, start=1):
        torque += specs[mid].mass * G * i * edge
    return torque


def lift_feasible(pivot: int, chain: tuple[int, ...],
                  specs: dict[int, ModuleSpec]) -> bool:
    """The lift rule: `pivot` can raise `chain` when the chain's torque is
    at most the pivot's `max_torque`. The guard's overload check and reach
    both judge by it."""
    return lift_torque_nm(pivot, chain, specs) <= specs[pivot].max_torque


# the most modules a searched chain may hold
_CHAIN_LIMIT = 24


def _longest_chain(adj: dict[int, list[int]], pivot: int, limit: int,
                   specs: dict[int, ModuleSpec],
                   max_torque: float) -> tuple[int, ...]:
    """The first longest simple chain hanging off `pivot`, pivot excluded,
    of at most `limit` modules whose torque about the pivot is at most
    `max_torque`: paths are walked depth first over `adj` (see
    Organism.adjacency), neighbours in ascending id, each once.

    The walk carries the chain's torque as the running sum
    `lift_torque_nm` computes, term for term, and stops a branch as soon
    as that sum exceeds `max_torque`: masses are positive, and a float sum
    of non-negative terms never falls, so no longer chain through it could
    be lifted either. The walk ends once a chain is as long as any could
    be."""
    limit = min(limit, len(adj) - 1)
    if limit == 0:
        return ()
    edge = specs[pivot].edge_length
    path: list[int] = []
    on_path = {pivot}
    best: list[int] = []
    # the recursion of the walk, unrolled: one (neighbours left, torque so
    # far) frame per module on the path, pivot first, so that no closure
    # ties the walk into a reference cycle
    frames = [(iter(adj[pivot]), 0.0)]
    while frames:
        neighbours, torque = frames[-1]
        link = len(frames)      # `nxt` would be link `link` of the chain
        for nxt in neighbours:
            if nxt in on_path:
                continue
            # in lift_torque_nm's term order
            t = torque + specs[nxt].mass * G * link * edge
            if t > max_torque:
                continue
            path.append(nxt)
            on_path.add(nxt)
            if len(path) > len(best):
                best = path[:]
                if len(best) == limit:
                    return tuple(best)
            frames.append((iter(adj[nxt]), t))
            break
        else:
            frames.pop()
            if path:
                on_path.discard(path.pop())
    return tuple(best)


def reach_height(org: Organism, specs: dict[int, ModuleSpec],
                 stack: tuple[int, ...] | None = None) -> float:
    """Vertical reach of an organism in metres.

    With a designated stack (base first) the answer is all or nothing: if
    `lift_feasible` lets the base lift everything above it the stack stands
    n * edge tall, otherwise the modules stay on the ground at one edge
    length. Without a designated stack the organism gets credit for the
    tallest chain any of its simple paths (of at most 24 modules, pivot
    included) could erect with the path's first module as the pivot,
    searched by `_longest_chain` bounded by that pivot's `max_torque`.
    """
    edge = specs[org.sorted_nodes()[0]].edge_length
    if stack is not None:
        if not stack:
            raise ValueError("designated stack is empty")
        feasible = lift_feasible(stack[0], tuple(stack[1:]), specs)
        return len(stack) * edge if feasible else edge

    adj = org.adjacency()
    best = max(len(_longest_chain(adj, pivot, _CHAIN_LIMIT - 1, specs,
                                  specs[pivot].max_torque))
               for pivot in adj)
    return (best + 1) * edge


def worst_case_chain(org: Organism, module_id: int,
                     specs: dict[int, ModuleSpec]) -> tuple[int, ...]:
    """Longest simple path hanging off a module, of at most 24 modules
    besides it and the first such in ascending id: the load its joint might
    have to swing. Used by the action guard's torque check."""
    return _longest_chain(org.adjacency(), module_id, _CHAIN_LIMIT, specs,
                          math.inf)


# -- rigid body motion ----------------------------------------------------


@dataclass(frozen=True)
class OrganismMoveResult:
    poses: dict[int, Pose]
    energy_j: dict[int, float]
    blocked: bool


def scout_carry_configuration(org: Organism, states: dict[int, ModuleState]) -> bool:
    """Scouts doing the walking with every other class riding on top."""
    ground_scouts = 0
    for mid in org.nodes:
        st = states[mid]
        if st.module_class is ModuleClass.SCOUT:
            if not st.carried:
                ground_scouts += 1
        elif not st.carried:
            return False
    return ground_scouts >= 2


def plan_organism_move(org: Organism, states: dict[int, ModuleState],
                       specs: dict[int, ModuleSpec], drive: Drive, driver: int,
                       dt: float, path_clear
                       ) -> tuple[dict[int, Pose] | None, int | None]:
    """The organism motion rule: where member `driver`'s `control.Drive`,
    read in the driver's body frame, takes the whole rigid body in dt. Pure
    and unbilled: the guard judges organism drives with it and
    `organism_move` executes them.

    Under 1e-12 m/s of linear and lateral speed the drive turns the body
    about its center of mass, or asks for no motion when `angular` is 0;
    otherwise it translates and `angular` is ignored. The slowest ground
    member caps the speed, of a turn at the member farthest out. Moving
    sideways against a tracked ground member needs the scout-carry
    configuration. One blocked swept path, judged by
    `path_clear(x0, y0, x1, y1, passable)` as `world.Arena.path_clear`
    does, stops the whole body. Returns `(poses, None)`, `(None, mid)` for
    the first blocked member in id order, or `(None, None)` for no motion.
    A dead member on the ground, no ground contact or a refused sideways
    move raise CommandError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    linear, lateral, angular = drive
    turn = math.hypot(linear, lateral) < 1e-12
    if turn and angular == 0.0:
        return None, None
    members = org.sorted_nodes()
    ground = [mid for mid in members if not states[mid].carried]
    for mid in ground:
        if states[mid].health is not Health.OK:
            raise CommandError(
                f"module {mid} is {states[mid].health.value} and not "
                f"carried; the organism cannot move")
    if not ground:
        raise CommandError("organism has no ground-contact members")
    cap = min(specs[mid].max_speed for mid in ground)

    old = {mid: states[mid].pose for mid in members}
    if turn:
        theta = angular * dt
        cx, cy = center_of_mass(members, states, specs)
        r_max = max(old[mid].distance_to(Pose(cx, cy)) for mid in members)
        if r_max > 0:
            arc_cap = math.degrees(cap * dt / r_max)
            theta = max(-arc_cap, min(arc_cap, theta))
        # a Pose normalizes its own heading
        new = {mid: Pose(*rotate_about(old[mid].x, old[mid].y, cx, cy, theta),
                         old[mid].heading + theta) for mid in members}
    else:
        vx, vy = rotate_vec(linear, lateral, old[driver].heading)
        speed = math.hypot(vx, vy)
        if speed > cap:
            vx *= cap / speed
            vy *= cap / speed
        move_dir = math.degrees(math.atan2(vy, vx))
        carry = scout_carry_configuration(org, states)
        for mid in ground:
            if specs[mid].drive_kind is DriveKind.TRACKED and not carry:
                rel = abs(math.sin(math.radians(move_dir - old[mid].heading)))
                if rel > 1e-9:
                    raise CommandError(
                        f"sideways translation against tracked module {mid} "
                        f"outside a scout-carry configuration")
        dx, dy = vx * dt, vy * dt
        new = {mid: old[mid].translated(dx, dy) for mid in members}

    for mid in members:
        if not path_clear(old[mid].x, old[mid].y, new[mid].x, new[mid].y,
                          passable_terrain(states[mid])):
            return None, mid
    return new, None


def organism_move(org: Organism, states: dict[int, ModuleState],
                  specs: dict[int, ModuleSpec], drive: Drive, driver: int,
                  dt: float, path_clear, tariff) -> OrganismMoveResult:
    """Move the whole organism by `plan_organism_move` and bill it: the
    locomotion tariff over each member's displacement and mass, carried
    members' share split over the ground crew. No motion costs nothing."""
    new, blocked = plan_organism_move(org, states, specs, drive, driver, dt,
                                      path_clear)
    members = org.sorted_nodes()
    if new is None:
        return OrganismMoveResult({m: states[m].pose for m in members},
                                  {m: 0.0 for m in members},
                                  blocked is not None)
    raw = {mid: tariff.locomotion_j_per_m_kg
           * states[mid].pose.distance_to(new[mid]) * specs[mid].mass
           for mid in members}
    carried = [mid for mid in members if states[mid].carried]
    extra = sum(raw[mid] for mid in carried) / (len(members) - len(carried))
    energy = {mid: 0.0 if mid in carried else raw[mid] + extra
              for mid in members}
    return OrganismMoveResult(new, energy, False)
