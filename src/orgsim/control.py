"""Controller interface: observations in, prioritized action proposals out.

Controllers are plain callables registered per module. Every tick each one
sees the same four-channel observation and may propose actions tagged with a
priority byte (lower wins). The framework arbitrates, then a guard checks
the winning action against physics and protocol before anything executes.
Urgency bands, by convention: 0-31 self protection, 32-95 energy, 96-159
scenario tasks, 160-255 exploration and idling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from .docking import DockPhase, Face
from .errors import CommandError, FrameworkError
from .geometry import Pose, rotate_vec
from .organism import (Organism, lift_feasible, lift_torque_nm,
                       plan_organism_move, worst_case_chain)
from .robot_model import (DriveKind, Health, ModuleClass, ModuleSpec,
                          ModuleState, dof_range, passable_terrain)
from .world import SensedSocket, TerrainClass

if TYPE_CHECKING:
    from .sensing import SensedModules

PRIORITY_MIN = 0
PRIORITY_MAX = 255
MAX_PROPOSALS_PER_CONTROLLER = 16
_OK = Health.OK


# -- observation ----------------------------------------------------------


class SelfChannel(NamedTuple):
    id: int
    module_class: ModuleClass
    pose: Pose
    battery_fraction: float
    health: Health
    joint_angles: tuple[float, ...]
    coprocessor_on: bool
    carried: bool


_self_channel = partial(tuple.__new__, SelfChannel)


class LocalChannel(NamedTuple):
    """What the observer senses around it during one decide phase.

    `modules` is a `SensedModules` view (`orgsim.sensing`) of the modules
    in range and in line of sight: `get(id)` reads one module (None when
    out of sight), and `select()` lists every module in sight, in
    ascending id order. `sockets` are the sockets in sight, in id order.
    Like every channel, this is a snapshot of its tick's decide phase: it
    keeps reading the same poses, health and distances however the run goes
    on. An observation built by hand wraps its records in
    `SensedModules.of`.
    """

    terrain: TerrainClass | None
    sockets: tuple[SensedSocket, ...]
    modules: SensedModules
    arena_size: tuple[float, float]                      # metres (w, h)
    graveyard: tuple[float, float, float, float] | None  # x0, y0, x1, y1


class InteractionChannel(NamedTuple):
    docked_faces: tuple[str, ...]
    port_phases: tuple[str, str, str, str]               # N, E, S, W
    port_peers: tuple[tuple[int, str] | None, ...]       # (module id, face) or None
    organism_id: int | None
    organism_size: int          # 1 when alone
    organism_reach: float
    messages: tuple["Message", ...]


class InternalChannel(NamedTuple):
    tick: int
    dt: float
    bus_load: int               # messages the radio delivered fleet-wide this tick
    outbox: "Mailbox | None" = None


_internal_channel = partial(tuple.__new__, InternalChannel)


class Observation(NamedTuple):
    """The four channels one module reads in one decide phase. The channels
    are named tuples: the harness builds one observation per observer per
    tick."""

    me: SelfChannel
    local: LocalChannel
    interaction: InteractionChannel
    internal: InternalChannel


_observation = partial(tuple.__new__, Observation)


# -- actions --------------------------------------------------------------
#
# Actions, proposals and verdicts are named tuples: every module builds
# several of them per tick, and a tuple is several times cheaper to
# construct than a frozen dataclass. Their reprs reach the log,
# because a Rejected detail may embed an action's repr.
#
# The records built on every observer tick or guard call (the self and
# internal channels, the observation and a Rejected) have a private
# builder beside their class, `partial(tuple.__new__, X)`, called with one
# tuple of every field, defaults included. It builds the record in C;
# `X(...)` would run the Python-level __new__ that NamedTuple generates. A
# builder checks no arity, so a missing field gives a short record. Every
# other record is built with its class.


class Drive(NamedTuple):
    """Body-frame velocity request: linear along the heading and lateral to
    its left in m/s, angular in deg/s. Becomes a whole-organism move if
    docked."""
    linear: float = 0.0
    lateral: float = 0.0
    angular: float = 0.0


class Actuate(NamedTuple):
    dof_index: int
    target_deg: float


class Dock(NamedTuple):
    face: Face
    target_id: int
    target_face: Face


class Tow(Dock):
    """Dock variant that accepts a dead partner for hauling."""

    __slots__ = ()   # no instance dict: a Tow is as immutable as a Dock


class Undock(NamedTuple):
    face: Face


class Recharge(NamedTuple):
    socket_id: int


class ToggleCoprocessor(NamedTuple):
    on: bool


class Idle(NamedTuple):
    pass


IDLE = Idle()   # an Idle has no fields: every idle action can be this one


Action = Drive | Actuate | Dock | Undock | Recharge | ToggleCoprocessor | Idle


class ActionProposal(NamedTuple):
    priority: int
    action: Action
    source: str = ""   # controller name, stamped by the framework


IDLE_PROPOSAL = ActionProposal(PRIORITY_MAX, IDLE, "framework")


def step_controllers(controllers, obs: Observation) -> list[ActionProposal]:
    """Run a module's controllers in registration order, collect proposals.

    `controllers` is an ordered mapping name -> callable(obs). A controller
    may return None, one proposal or an iterable of proposals. Bad
    priorities, oversized batches, bare actions and controller crashes are
    framework errors, not silent drops. Every proposal is checked on every
    call, a batch handed out again included. Each one goes out with the
    controller's name as its source: an ActionProposal that already
    carries it is passed on as it is, any other is restamped.
    """
    out: list[ActionProposal] = []
    for name, fn in controllers.items():
        try:
            result = fn(obs)
        except Exception as exc:
            raise FrameworkError(f"controller {name!r} raised {exc!r}") from exc
        # the stock controllers return None or a tuple, often the same
        # tuple as last tick; a list or a plain tuple is read as it is,
        # with no copy
        if result is None:
            continue
        kind = type(result)
        if kind is list or kind is tuple:
            batch = result
        elif isinstance(result, ActionProposal):
            batch = (result,)
        elif isinstance(result, tuple) and isinstance(result, Action):
            # an action is a tuple too: iterating it would read its fields
            # as proposals, and Idle() as none at all. The tuple test comes
            # first because a union isinstance costs about five times more
            raise FrameworkError(
                f"controller {name!r} returned {result!r}, "
                f"expected ActionProposal")
        else:
            # a generator controller runs its body here, so what listing
            # raises is the controller's failure as well
            try:
                batch = list(result)
            except Exception as exc:
                raise FrameworkError(
                    f"controller {name!r} raised {exc!r} while its "
                    f"{type(result).__name__} result was listed") from exc
        if len(batch) > MAX_PROPOSALS_PER_CONTROLLER:
            raise FrameworkError(
                f"controller {name!r} proposed {len(batch)} actions, "
                f"limit is {MAX_PROPOSALS_PER_CONTROLLER}")
        for prop in batch:
            if not isinstance(prop, ActionProposal):
                raise FrameworkError(
                    f"controller {name!r} returned {prop!r}, "
                    f"expected ActionProposal")
            priority, action, source = prop
            # the type first: comparing a str or None with an int raises.
            # A bool is an int as well, but no priority
            if not (isinstance(priority, int) and type(priority) is not bool
                    and PRIORITY_MIN <= priority <= PRIORITY_MAX):
                raise FrameworkError(
                    f"controller {name!r} used priority {priority!r}, "
                    f"must be an int in [{PRIORITY_MIN}, {PRIORITY_MAX}]")
            if source != name or type(prop) is not ActionProposal:
                prop = ActionProposal(priority, action, name)
            out.append(prop)
    return out


def select_action(proposals) -> ActionProposal:
    """Pick the first proposal with the lowest priority number.

    Ties go to the earlier proposal in list order; step_controllers lists
    proposals in registration order, so the controller registered first
    wins. With no proposals at all the module idles. One pass keeps the
    first proposal of strictly lower priority, as `min` does, without the
    keyword-argument call `min(..., key=, default=)` costs.
    """
    it = iter(proposals)
    for best in it:
        low = best.priority
        for prop in it:
            if prop.priority < low:
                best, low = prop, prop.priority
        return best
    return IDLE_PROPOSAL


# -- the guard ------------------------------------------------------------


class Rejected(NamedTuple):
    reason: str    # collision | overload | protocol
    detail: str


_rejected = partial(tuple.__new__, Rejected)


class GuardContext(NamedTuple):
    """What the guard reads that is fixed for the whole run; the module's
    id and organism come with each call."""

    states: dict[int, ModuleState]
    specs: dict[int, ModuleSpec]
    path_clear: object          # callable (x0, y0, x1, y1, passable) -> bool,
                                # see world.Arena.path_clear
    dt: float
    socket_by_id: object        # callable id -> Socket | None


def guard_action(action: Action, module_id: int, organism: Organism | None,
                 ctx: GuardContext) -> Action | Rejected:
    """Admit, adjust or reject module `module_id`'s action before execution.

    `organism` is the module's current organism, None when it is alone.
    Actuation targets are clamped into the joint's range instead of being
    bounced; a NaN target has no place in it and is rejected. A drive with
    a NaN or infinite field, and a coprocessor flag that is not a bool, are
    rejected too, as is every action with a field of the wrong type: a
    face that is not a Face, an id or joint index that is not an int, or a
    drive field or joint target that is not a number. Everything else
    either passes through unchanged or comes back as a Rejected with a
    machine-readable reason.
    """
    if isinstance(action, Idle):
        return action
    st = ctx.states[module_id]
    if st.health is not _OK:
        return _rejected(("protocol", f"module {st.id} is {st.health.value}"))

    if isinstance(action, Drive):
        if st.carried:
            return _rejected(("protocol", "carried modules do not drive"))
        linear, lateral, angular = action
        try:
            finite = (math.isfinite(linear) and math.isfinite(lateral)
                      and math.isfinite(angular))
        except TypeError:
            return _rejected(("protocol", f"{action!r} is not a number"))
        if not finite:
            return _rejected(("protocol", f"{action!r} is not finite"))
        if organism is None:
            return _guard_drive(action, st, ctx)
        return _guard_organism_drive(action, st, organism, ctx)
    if isinstance(action, Actuate):
        return _guard_actuate(action, st, organism, ctx)
    if isinstance(action, Dock):    # Tow included
        return _guard_dock(action, st, ctx)
    if isinstance(action, Undock):
        if type(action.face) is not Face:
            return _rejected(("protocol", f"{action!r} names no face"))
        port = st.port(action.face)
        if port.phase is not DockPhase.DOCKED:
            return _rejected(("protocol",
                              f"face {action.face.value} is "
                              f"{port.phase.value}, "
                              f"only a docked face can release"))
        return action
    if isinstance(action, Recharge):
        if type(action.socket_id) is not int:
            return _rejected(("protocol", f"socket id {action.socket_id!r} "
                                          f"is not an int"))
        if ctx.socket_by_id(action.socket_id) is None:
            return _rejected(("protocol",
                              f"unknown socket {action.socket_id}"))
        return action
    if isinstance(action, ToggleCoprocessor):
        if type(action.on) is not bool:
            return _rejected(("protocol", f"coprocessor flag {action.on!r} "
                                          f"is not a bool"))
        return action
    return _rejected(("protocol", f"unrecognized action {action!r}"))


def _guard_drive(action: Drive, st: ModuleState,
                 ctx: GuardContext) -> Action | Rejected:
    if st.is_docked:
        # a port is mid-lock or mid-release; the body is pinned until the
        # coupling either registers as an organism edge or lets go
        return _rejected(("protocol", "docking in progress pins this module"))
    spec = ctx.specs[st.id]
    if spec.drive_kind is DriveKind.TRACKED and action.lateral != 0.0:
        return _rejected(("protocol", "tracked drive cannot move sideways"))
    # scale the way execution will, then look where we would end up
    vx, vy = action.linear, action.lateral
    speed = math.hypot(vx, vy)
    cap = spec.max_speed
    if speed > cap:
        vx, vy = vx * cap / speed, vy * cap / speed
    wx, wy = rotate_vec(vx, vy, st.pose.heading)
    moved = math.hypot(wx, wy) * ctx.dt
    if moved > 0:
        p = st.pose
        if not ctx.path_clear(p.x, p.y, p.x + wx * ctx.dt,
                              p.y + wy * ctx.dt, passable_terrain(st)):
            return _rejected(("collision",
                              f"path of module {st.id} is blocked"))
    return action


def _guard_organism_drive(action: Drive, st: ModuleState, organism: Organism,
                          ctx: GuardContext) -> Action | Rejected:
    for mid in organism.nodes:
        if any(p.phase is DockPhase.LOCKING for p in ctx.states[mid].ports):
            return _rejected(("protocol",
                              f"module {mid} is mid-lock; the organism "
                              f"holds still until the latch lands"))
    # the organism motion rule itself judges the drive, turns included
    try:
        _, blocked = plan_organism_move(organism, ctx.states, ctx.specs,
                                        action, st.id, ctx.dt, ctx.path_clear)
    except CommandError as exc:
        return _rejected(("protocol", str(exc)))
    if blocked is not None:
        return _rejected(("collision", f"path of module {blocked} is blocked"))
    return action


def _guard_actuate(action: Actuate, st: ModuleState,
                   organism: Organism | None,
                   ctx: GuardContext) -> Action | Rejected:
    spec = ctx.specs[st.id]
    try:
        limit = dof_range(spec, action.dof_index)
    except ValueError:
        return _rejected(("protocol", f"{spec.module_class.value} has no dof "
                                      f"{action.dof_index}"))
    target = action.target_deg
    if not isinstance(target, (int, float)) or target != target:
        return _rejected(("protocol",
                          f"joint target {target!r} is not a number"))
    clamped = max(-limit, min(limit, target))
    if organism is not None:
        chain = worst_case_chain(organism, st.id, ctx.specs)
        if not lift_feasible(st.id, chain, ctx.specs):
            load = lift_torque_nm(st.id, chain, ctx.specs)
            return _rejected(("overload",
                              f"lifting {len(chain)} modules needs "
                              f"{load:.2f} N*m, joint rated {spec.max_torque}"))
    if clamped != target:
        return Actuate(action.dof_index, clamped)
    return action


def _guard_dock(action: Dock, st: ModuleState,
                ctx: GuardContext) -> Action | Rejected:
    if not (type(action.face) is Face and type(action.target_face) is Face
            and type(action.target_id) is int):
        return _rejected(("protocol", f"{action!r} has a field of the "
                                      f"wrong type"))
    if action.target_id == st.id:
        return _rejected(("protocol", "cannot dock to self"))
    other = ctx.states.get(action.target_id)
    if other is None:
        return _rejected(("protocol", f"unknown module {action.target_id}"))
    if other.health is not _OK and not isinstance(action, Tow):
        return _rejected(("protocol",
                          f"module {action.target_id} is {other.health.value}; "
                          f"towing requires a tow dock"))
    mine = st.port(action.face)
    theirs = other.port(action.target_face)
    if mine.phase is not DockPhase.FREE:
        return _rejected(("protocol",
                          f"own face {action.face.value} is {mine.phase.value}"))
    if theirs.phase is not DockPhase.FREE:
        return _rejected(("protocol",
                          f"target face {action.target_face.value} is "
                          f"{theirs.phase.value}"))
    return action


# -- messaging ------------------------------------------------------------


@dataclass(frozen=True)
class Message:
    sender: int
    dest: int
    kind: str
    payload: tuple = ()


class Mailbox:
    """A module's fixed-sender handle on the radio, handed out in the
    observation so controllers can talk without touching the bus itself."""

    __slots__ = ("_bus", "sender")

    def __init__(self, bus: "MessageBus", sender: int):
        self._bus = bus
        self.sender = sender

    def post(self, dest: int, kind: str, payload: tuple = ()) -> bool:
        return self._bus.post(Message(self.sender, dest, kind, payload))


class MessageBus:
    """Store-and-forward radio with per-destination backpressure.

    Messages posted during tick t arrive at t+1, and only if sender and
    receiver are within radio range at delivery time. A destination accepts
    at most 64 pending messages per tick; the newest overflowing message is
    the one dropped.
    """

    PER_DEST_LIMIT = 64

    def __init__(self, range_m: float):
        if not range_m >= 0:
            raise ValueError("radio range must be >= 0")
        self.range_m = range_m
        self._pending: dict[int, list[Message]] = {}
        self.dropped = 0
        self.posted = 0

    @property
    def load(self) -> int:
        return sum(len(v) for v in self._pending.values())

    def post(self, msg: Message) -> bool:
        box = self._pending.setdefault(msg.dest, [])
        if len(box) >= self.PER_DEST_LIMIT:
            self.dropped += 1
            return False
        box.append(msg)
        self.posted += 1
        return True

    def deliver(self, positions: dict[int, Pose]) -> dict[int, list[Message]]:
        """Flush last tick's traffic; distance is the only obstacle radio
        cares about."""
        out: dict[int, list[Message]] = {}
        for dest in sorted(self._pending):
            dest_pos = positions.get(dest)
            if dest_pos is None:
                continue
            kept = []
            for msg in self._pending[dest]:
                src_pos = positions.get(msg.sender)
                if src_pos is None:
                    continue
                if src_pos.distance_to(dest_pos) <= self.range_m:
                    kept.append(msg)
            if kept:
                out[dest] = kept
        self._pending.clear()
        return out
