"""Baseline controllers: exploration, socket stacking, hauling the dead.

Everything here is decentralized. A module only ever uses its own id, its
observation and (for exploration) its private noise stream, yet the fleet
converges on a coherent plan because every module runs the same arithmetic
on the same sensed facts. Socket assignment is literally `id modulo sockets`;
nobody negotiates.

Priorities used by the baseline, within the framework's urgency bands:
emergencies press 10, recharging 40, docking 45, holding formation 50,
abandoning a dark socket 58, travelling to a socket 60, hauling dead modules
to the graveyard 100, wandering 200.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .control import (IDLE, ActionProposal, Dock, Drive, Observation,
                      Recharge, Tow, Undock)
from .docking import FACES, _EAST, _NORTH, _SOUTH, _WEST, attempt_align
from .errors import ConfigError
from .geometry import Pose, ang_diff_deg, heading_vec, norm_deg, rotate_vec
from .rng import Rng
from .robot_model import (DriveKind, Health, ModuleClass, ModuleSpec,
                          pair_tolerance)
from .world import SensedSocket, in_yard

EMERGENCY_PRIORITY = 10
RECHARGE_PRIORITY = 40
DOCK_PRIORITY = 45
HOLD_PRIORITY = 50
LEAVE_SOCKET_PRIORITY = 58
SEEK_PRIORITY = 60
DISPOSAL_PRIORITY = 100
EXPLORE_PRIORITY = 200

EMERGENCY_FRACTION = 0.15
ARRIVE_TOL = 0.004        # snug inside the tightest docking tolerance
HEADING_TOL = 1.0
AT_SLOT_RADIUS = 0.05     # close enough to call a slot "mine"

# per-call code reads these members bound once: an Enum class attribute
# lookup goes through a slow-path __getattr__
_OK = Health.OK
_ACTIVE_WHEEL = ModuleClass.ACTIVE_WHEEL
_TRACKED = DriveKind.TRACKED
_SOUTH_PORT = FACES.index(_SOUTH)    # the index of its port phase


# -- navigation servos ----------------------------------------------------


def servo_drive(pose: Pose, drive_kind: DriveKind, max_speed: float,
                tx: float, ty: float, dt: float,
                target_heading: float | None = None) -> Drive | None:
    """One tick of closed-loop driving toward a point, None once parked.

    Holonomic drives head straight there while swinging onto the target
    heading. Tracked drives turn in place first, crawling backwards when the
    goal is behind them, because a u-turn costs more ticks than a reverse.
    """
    dx, dy = tx - pose.x, ty - pose.y
    dist = math.hypot(dx, dy)
    if dist < ARRIVE_TOL:
        if target_heading is not None:
            err = ang_diff_deg(target_heading, pose.heading)
            if abs(err) > HEADING_TOL:
                return Drive(0.0, 0.0, err / dt)
        return None

    if drive_kind is not _TRACKED:
        bx, by = rotate_vec(dx, dy, -pose.heading)   # world -> body frame
        want = target_heading if target_heading is not None else pose.heading
        err = ang_diff_deg(want, pose.heading)
        v = min(max_speed, dist / dt) / dist
        return Drive(bx * v, by * v, err / dt)

    bearing = math.degrees(math.atan2(dy, dx))
    err_fwd = ang_diff_deg(bearing, pose.heading)
    if abs(err_fwd) <= 90.0:
        want, sign = bearing, 1.0
    else:
        want, sign = norm_deg(bearing + 180.0), -1.0
    err = ang_diff_deg(want, pose.heading)
    if abs(err) > HEADING_TOL:
        return Drive(0.0, 0.0, err / dt)    # swing first, then roll
    speed = min(max_speed, dist / dt)
    return Drive(sign * speed, 0.0, err / dt)


# -- socket stacking arithmetic -------------------------------------------


class StackSlot(NamedTuple):
    socket: SensedSocket
    rank: int                  # 0 touches the socket
    position: tuple[float, float]
    heading: float
    predecessor: int | None    # module id expected one step closer to the wall


def assigned_slot(module_id: int, sockets: Sequence[SensedSocket],
                  pitch: float) -> StackSlot | None:
    """Where this module belongs, from shared arithmetic on sensed sockets.

    Modules stack on the active sockets when any are lit, otherwise they
    pre-position over the full known set. Fleet ids are dense and 0-based,
    so `id - socket_count` names the module one rank below. Ranks are
    `pitch` metres apart: one module edge.
    """
    pool = [s for s in sockets if s.active] or list(sockets)
    if not pool:
        return None
    pool.sort(key=lambda s: s.id)
    n = len(pool)
    sock = pool[module_id % n]
    rank = module_id // n
    ax, ay = heading_vec(sock.approach_deg)
    px = sock.position[0] + pitch * rank * ax
    py = sock.position[1] + pitch * rank * ay
    pred = module_id - n if rank > 0 else None
    return StackSlot(sock, rank, (px, py), sock.approach_deg, pred)


class _Controller:
    """Base of the baseline controllers. A controller serves one module
    and holds its ModuleSpec, the hardware envelope it drives and docks by:
    speed, drive kind and edge length. A class that draws random numbers
    sets `draws_noise`; only such a class is handed a noise stream, the
    others get None. Controllers share no state, not even the controllers
    of one module: each works out what it reads from its own observation.

    A controller returns None or a tuple of proposals stamped with `name`,
    the name build_controllers registers it under ("" for one built alone,
    whose proposals step_controllers restamps). It keeps one memo: its last
    answer in `_answer` and the objects it read to work it out in `_key`.
    It hands back that same tuple while every input it reads is the same
    object as on its last call, and works an answer out, proposals and
    their actions built anew, only when some input is a new object.
    Every such input is immutable: a frozen Pose, a float, a bool, a tuple
    or an Enum member, or the `local` channel, which the sight hands out
    again only while nothing it holds has changed (see Sight). So an
    identity match is exact, for -0.0 and NaN too."""

    __slots__ = ("module_id", "spec", "name", "_key", "_answer")
    draws_noise = False

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng | None,
                 params: dict | None = None):
        self.module_id = module_id
        self.spec = spec
        self.name = ""
        self._key: tuple | None = None
        self._answer: tuple[ActionProposal, ...] | None = None

    def _servo(self, obs: Observation, tx: float, ty: float,
               target_heading: float | None = None) -> Drive | None:
        """servo_drive from the module's pose at its drive and speed."""
        spec = self.spec
        return servo_drive(obs.me.pose, spec.drive_kind, spec.max_speed,
                           tx, ty, obs.internal.dt, target_heading)


class SeekEnergyController(_Controller):
    """Walk to the assigned stack slot and draw wall power at rank zero.

    Battery below the emergency fraction promotes every proposal into the
    self-protection band. A module docked at a slot that no longer matches
    its assignment unplugs one face per tick until free to walk again.

    The answer is keyed on `local.sockets`, `me.pose`, whether the battery
    is below the emergency fraction, `interaction.docked_faces`,
    `me.carried` and `internal.dt`. The stack slot is worked out afresh
    from `local.sockets` each time the answer is.
    """

    __slots__ = ("emergency_fraction",)

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng | None,
                 params: dict | None = None):
        super().__init__(module_id, spec, rng)
        p = params or {}
        self.emergency_fraction = float(p.get("emergency_fraction",
                                              EMERGENCY_FRACTION))

    def __call__(self, obs: Observation):
        me = obs.me
        sockets, pose, carried = obs.local.sockets, me.pose, me.carried
        urgent = me.battery_fraction < self.emergency_fraction
        docked_faces, dt = obs.interaction.docked_faces, obs.internal.dt
        key = self._key
        if (key is not None and key[0] is sockets and key[1] is pose
                and key[2] is urgent and key[3] is docked_faces
                and key[4] is carried and key[5] is dt):
            return self._answer
        self._key = (sockets, pose, urgent, docked_faces, carried, dt)
        answer = self._answer = self._propose(obs, urgent)
        return answer

    def _propose(self, obs: Observation, urgent: bool):
        slot = assigned_slot(self.module_id, obs.local.sockets,
                             self.spec.edge_length)
        if slot is None:
            return None
        name = self.name
        seek_pri = EMERGENCY_PRIORITY if urgent else SEEK_PRIORITY
        pose = obs.me.pose
        at_slot = (math.hypot(pose.x - slot.position[0],
                              pose.y - slot.position[1]) < AT_SLOT_RADIUS)
        docked_faces = obs.interaction.docked_faces

        if docked_faces and not at_slot:
            # wrong place for the current assignment; let go before walking
            face = next(f for f in FACES if f.value in docked_faces)
            pri = EMERGENCY_PRIORITY if urgent else LEAVE_SOCKET_PRIORITY
            return (ActionProposal(pri, Undock(face), name),)

        if not docked_faces and not obs.me.carried:
            # drive all the way down to servo tolerance; dock latches need
            # millimetres, not the loose at-slot radius
            cmd = self._servo(obs, slot.position[0], slot.position[1],
                              target_heading=slot.heading)
            if cmd is not None:
                return (ActionProposal(seek_pri, cmd, name),)

        if slot.rank == 0 and slot.socket.active:
            pri = EMERGENCY_PRIORITY if urgent else RECHARGE_PRIORITY
            return (ActionProposal(pri, Recharge(slot.socket.id), name),)
        return None


class AggregateController(_Controller):
    """Form and hold the stack: dock onto the predecessor, then stand still.

    The answer is keyed on the `local` channel, the `interaction` channel,
    `me.pose`, `me.module_class` and `internal.dt`. The controller keeps
    the last `local.sockets` tuple it read and its stack slot, and works
    the slot out again only for another tuple object: the sight hands out
    the same tuple until the module moves or a socket toggles.
    """

    __slots__ = ("_sockets", "_slot")

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng | None,
                 params: dict | None = None):
        super().__init__(module_id, spec, rng)
        self._sockets: tuple[SensedSocket, ...] | None = None
        self._slot: StackSlot | None = None

    def __call__(self, obs: Observation):
        me = obs.me
        local, interaction = obs.local, obs.interaction
        pose, dt, module_class = me.pose, obs.internal.dt, me.module_class
        key = self._key
        if (key is not None and key[0] is local and key[1] is interaction
                and key[2] is pose and key[3] is dt
                and key[4] is module_class):
            return self._answer
        self._key = (local, interaction, pose, dt, module_class)
        answer = self._answer = self._propose(obs)
        return answer

    def _propose(self, obs: Observation):
        sockets = obs.local.sockets
        if sockets is not self._sockets:
            self._sockets = sockets
            self._slot = assigned_slot(self.module_id, sockets,
                                       self.spec.edge_length)
        slot = self._slot
        if slot is None:
            return None
        pose = obs.me.pose
        at_slot = (math.hypot(pose.x - slot.position[0],
                              pose.y - slot.position[1]) < AT_SLOT_RADIUS)
        if not at_slot:
            return None
        if not obs.interaction.docked_faces and self._servo(
                obs, *slot.position, slot.heading) is not None:
            # the seek servo is still driving; holding any earlier would
            # freeze the module before it is latch-accurate
            return None
        hold = ActionProposal(HOLD_PRIORITY, IDLE, self.name)

        if (slot.predecessor is not None
                and obs.interaction.port_phases[_SOUTH_PORT] == "free"):
            pred = obs.local.modules.get(slot.predecessor)
            if pred is not None and pred.health is _OK:
                tol = pair_tolerance(obs.me.module_class, pred.module_class)
                if attempt_align(pose, _SOUTH, pred.pose, _NORTH,
                                 tol, self.spec.edge_length):
                    return (hold, ActionProposal(
                        DOCK_PRIORITY, Dock(_SOUTH, pred.id, _NORTH),
                        self.name))
        return (hold,)


class ExploreController(_Controller):
    """Random waypoint wandering; the only stochastic baseline behavior.

    The stuck count, the waypoint and its draws are worked out on every
    call. The answer is keyed on `me.pose`, the `waypoint` tuple and
    `internal.dt`.
    """

    __slots__ = ("rng", "waypoint", "last_pos", "stuck")
    draws_noise = True

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng,
                 params: dict | None = None):
        super().__init__(module_id, spec, rng)
        self.rng = rng
        self.waypoint: tuple[float, float] | None = None
        self.last_pos: tuple[float, float] | None = None
        self.stuck = 0

    def __call__(self, obs: Observation):
        if obs.me.carried:
            return None
        pose = obs.me.pose
        w, h = obs.local.arena_size
        margin = 0.15
        pos = (pose.x, pose.y)
        if self.last_pos is not None and math.dist(pos, self.last_pos) < 1e-6:
            self.stuck += 1
        else:
            self.stuck = 0
        self.last_pos = pos

        if (self.waypoint is None or self.stuck >= 20
                or math.dist(pos, self.waypoint) < 0.05):
            self.waypoint = (self.rng.uniform(margin, w - margin),
                             self.rng.uniform(margin, h - margin))
            self.stuck = 0
        waypoint, dt = self.waypoint, obs.internal.dt
        key = self._key
        if (key is not None and key[0] is pose and key[1] is waypoint
                and key[2] is dt):
            return self._answer
        self._key = (pose, waypoint, dt)
        cmd = self._servo(obs, *waypoint)
        answer = self._answer = (
            None if cmd is None
            else (ActionProposal(EXPLORE_PRIORITY, cmd, self.name),))
        return answer


class DisposalController(_Controller):
    """Two wheeled haulers drag each dead module into the graveyard.

    Recomputed from observation, no internal state: the two
    lowest-id undocked healthy wheeled modules in sensor range answer for
    the lowest-id corpse outside the graveyard. One grabs the east face,
    the other the west, and once all three bodies form one organism they
    drive it home, unplug and back away.

    A wheeled module's answer is keyed on the `local` channel, the
    `interaction` channel, `me.pose` and `internal.dt`.
    """

    __slots__ = ()

    def __call__(self, obs: Observation):
        me = obs.me
        if me.module_class is not _ACTIVE_WHEEL:
            return None
        local, interaction = obs.local, obs.interaction
        pose, dt = me.pose, obs.internal.dt
        key = self._key
        if (key is not None and key[0] is local and key[1] is interaction
                and key[2] is pose and key[3] is dt):
            return self._answer
        self._key = (local, interaction, pose, dt)
        answer = self._answer = self._propose(obs)
        return answer

    def _propose(self, obs: Observation):
        yard = obs.local.graveyard
        if yard is None:
            return None
        pose = obs.me.pose
        name = self.name

        # backing off after a drop: finish separating before anything else
        mid_release = any(ph in ("unlocking", "separating")
                          for ph in obs.interaction.port_phases)
        corpse_peer = self._docked_corpse(obs)
        if mid_release and corpse_peer is None:
            near = [m for m in obs.local.modules.select(healthy=False)
                    if m.distance < 0.3]
            if near:
                # steer to a spot a hand's width past the release distance,
                # clamped into the room so a wall-side drop cannot wedge us
                away = math.atan2(pose.y - near[0].pose.y,
                                  pose.x - near[0].pose.x)
                margin = 0.15
                w, h = obs.local.arena_size
                tx = min(max(near[0].pose.x + 0.35 * math.cos(away), margin),
                         w - margin)
                ty = min(max(near[0].pose.y + 0.35 * math.sin(away), margin),
                         h - margin)
                cmd = self._servo(obs, tx, ty)
                if cmd is not None:
                    return (ActionProposal(DISPOSAL_PRIORITY, cmd, name),)
            return None

        if corpse_peer is not None:
            return self._haul(obs, corpse_peer)

        corpse = self._target_corpse(obs)
        if corpse is None:
            return None
        rank = self._my_rank(obs)
        if rank is None:
            return None
        # rank 0 takes the corpse's east flank, rank 1 the west
        side, grab = (_EAST, _WEST) if rank == 0 else (_WEST, _EAST)
        nx, ny = heading_vec(norm_deg(corpse.pose.heading + side.offset_deg))
        edge = self.spec.edge_length
        px = corpse.pose.x + edge * nx
        py = corpse.pose.y + edge * ny
        cmd = self._servo(obs, px, py, target_heading=corpse.pose.heading)
        if cmd is not None:
            return (ActionProposal(DISPOSAL_PRIORITY, cmd, name),)
        if obs.interaction.port_phases[FACES.index(grab)] == "free":
            tol = pair_tolerance(obs.me.module_class, corpse.module_class)
            if attempt_align(pose, grab, corpse.pose, side, tol, edge):
                return (ActionProposal(DISPOSAL_PRIORITY,
                                       Tow(grab, corpse.id, side), name),)
        return (ActionProposal(DISPOSAL_PRIORITY, IDLE, name),)

    def _docked_corpse(self, obs: Observation):
        for i, peer in enumerate(obs.interaction.port_peers):
            if peer is None:
                continue
            sensed = obs.local.modules.get(peer[0])
            if sensed is not None and sensed.health is not _OK:
                return FACES[i], sensed
        return None

    def _haul(self, obs: Observation, corpse_peer):
        face, corpse = corpse_peer
        yard = obs.local.graveyard
        pose = obs.me.pose
        name = self.name
        if in_yard(yard, corpse.pose.x, corpse.pose.y):
            return (ActionProposal(DISPOSAL_PRIORITY, Undock(face), name),)
        if obs.interaction.organism_size < 3:
            # partner inbound
            return (ActionProposal(DISPOSAL_PRIORITY, IDLE, name),)
        gx = (yard[0] + yard[2]) / 2.0
        gy = (yard[1] + yard[3]) / 2.0
        dx, dy = gx - corpse.pose.x, gy - corpse.pose.y
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return (ActionProposal(DISPOSAL_PRIORITY, IDLE, name),)
        v = min(self.spec.max_speed, dist / obs.internal.dt) / dist
        bx, by = rotate_vec(dx * v, dy * v, -pose.heading)
        return (ActionProposal(DISPOSAL_PRIORITY, Drive(bx, by, 0.0), name),)

    def _target_corpse(self, obs: Observation):
        yard = obs.local.graveyard
        # select lists in ascending id order, so the first is the lowest id
        return next((m for m in obs.local.modules.select(healthy=False)
                     if not in_yard(yard, m.pose.x, m.pose.y)), None)

    def _my_rank(self, obs: Observation) -> int | None:
        if obs.interaction.docked_faces:
            return None
        crew = [self.module_id]
        crew += [m.id for m in obs.local.modules.select(_ACTIVE_WHEEL,
                                                        healthy=True)]
        crew.sort()
        # sensing cannot tell whether others are docked; ids keep it stable
        if self.module_id in crew[:2]:
            return crew[:2].index(self.module_id)
        return None


# -- registry -------------------------------------------------------------


REGISTRY = {
    "explore": ExploreController,
    "seek_energy": SeekEnergyController,
    "aggregate": AggregateController,
    "disposal": DisposalController,
}


def build_controllers(names, module_id: int, spec: ModuleSpec, rng: Rng,
                      params: dict | None = None) -> dict:
    """Instantiate named controllers for one module, in the given order,
    each holding the module's own ModuleSpec and stamping its proposals
    with its name. A controller class that draws gets the substream
    `<name>/<module_id>` of `rng`; the others get None, so no stream is
    derived for them."""
    out = {}
    for name in names:
        factory = REGISTRY.get(name)
        if factory is None:
            raise ConfigError(f"unknown controller {name!r}; "
                              f"known: {', '.join(sorted(REGISTRY))}")
        ctl = out[name] = factory(module_id, spec,
                                  rng.substream(f"{name}/{module_id}")
                                  if factory.draws_noise else None, params)
        ctl.name = name
    return out
