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
from typing import NamedTuple

from .control import (IDLE, Dock, Drive, Observation, Tow, Undock, _drive,
                      _proposal, _recharge)
from .docking import FACES, Face, attempt_align
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

# proposals are built in C by orgsim.control's builders; a hold proposal
# never changes, so every hold is this one
HOLD_PROPOSAL = _proposal((HOLD_PRIORITY, IDLE, ""))

# per-call code reads these members bound once: an Enum class attribute
# lookup goes through a slow-path __getattr__
_OK = Health.OK
_ACTIVE_WHEEL = ModuleClass.ACTIVE_WHEEL
_TRACKED = DriveKind.TRACKED


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
                return _drive((0.0, 0.0, err / dt))
        return None

    if drive_kind is not _TRACKED:
        bx, by = rotate_vec(dx, dy, -pose.heading)   # world -> body frame
        want = target_heading if target_heading is not None else pose.heading
        err = ang_diff_deg(want, pose.heading)
        v = min(max_speed, dist / dt) / dist
        return _drive((bx * v, by * v, err / dt))

    bearing = math.degrees(math.atan2(dy, dx))
    err_fwd = ang_diff_deg(bearing, pose.heading)
    if abs(err_fwd) <= 90.0:
        want, sign = bearing, 1.0
    else:
        want, sign = norm_deg(bearing + 180.0), -1.0
    err = ang_diff_deg(want, pose.heading)
    if abs(err) > HEADING_TOL:
        return _drive((0.0, 0.0, err / dt))    # swing first, then roll
    speed = min(max_speed, dist / dt)
    return _drive((sign * speed, 0.0, err / dt))


# -- socket stacking arithmetic -------------------------------------------


class StackSlot(NamedTuple):
    socket: SensedSocket
    rank: int                  # 0 touches the socket
    position: tuple[float, float]
    heading: float
    predecessor: int | None    # module id expected one step closer to the wall


def assigned_slot(module_id: int, sockets: list[SensedSocket],
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
    others get None."""

    draws_noise = False
    _slot_sockets: tuple[SensedSocket, ...] | None = None
    _slot: StackSlot | None = None
    # the last servo call: (pose, tx, ty, target_heading, dt, its Drive)
    _servo_memo: tuple | None = None

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng | None,
                 params: dict | None = None):
        self.module_id = module_id
        self.spec = spec

    def _assigned_slot(self, obs: Observation) -> StackSlot | None:
        """assigned_slot of this module, worked out again only for another
        sockets tuple: the harness hands out the same tuple object until the
        module moves or a socket toggles, and a tuple cannot change."""
        sockets = obs.local.sockets
        if sockets is not self._slot_sockets:
            self._slot = assigned_slot(self.module_id, list(sockets),
                                       self.spec.edge_length)
            self._slot_sockets = sockets
        return self._slot

    def _servo(self, obs: Observation, tx: float, ty: float,
               target_heading: float | None = None) -> Drive | None:
        """servo_drive from the module's pose at its drive and speed.

        The last call is remembered and answered again for the same pose
        object and the same target, heading and dt objects: a Pose is
        frozen, a float cannot change, and servo_drive is a pure function
        of them. Matching by identity is exact even for -0.0 and NaN; a
        controller that keeps its target (a slot, a waypoint) passes the
        same floats tick after tick, and an unmoved module the same pose."""
        pose, dt = obs.me.pose, obs.internal.dt
        memo = self._servo_memo
        if (memo is not None and memo[0] is pose and memo[1] is tx
                and memo[2] is ty and memo[3] is target_heading
                and memo[4] is dt):
            return memo[5]
        spec = self.spec
        drive = servo_drive(pose, spec.drive_kind, spec.max_speed,
                            tx, ty, dt, target_heading)
        self._servo_memo = (pose, tx, ty, target_heading, dt, drive)
        return drive


class SeekEnergyController(_Controller):
    """Walk to the assigned stack slot and draw wall power at rank zero.

    Battery below the emergency fraction promotes every proposal into the
    self-protection band. A module docked at a slot that no longer matches
    its assignment unplugs one face per tick until free to walk again.
    """

    def __init__(self, module_id: int, spec: ModuleSpec, rng: Rng | None,
                 params: dict | None = None):
        super().__init__(module_id, spec, rng)
        p = params or {}
        self.emergency_fraction = float(p.get("emergency_fraction",
                                              EMERGENCY_FRACTION))

    def __call__(self, obs: Observation):
        slot = self._assigned_slot(obs)
        if slot is None:
            return None
        urgent = obs.me.battery_fraction < self.emergency_fraction
        seek_pri = EMERGENCY_PRIORITY if urgent else SEEK_PRIORITY
        pose = obs.me.pose
        at_slot = (math.hypot(pose.x - slot.position[0],
                              pose.y - slot.position[1]) < AT_SLOT_RADIUS)
        docked = bool(obs.interaction.docked_faces)
        out = []

        if docked and not at_slot:
            # wrong place for the current assignment; let go before walking
            face = next(f for f in FACES
                        if f.value in obs.interaction.docked_faces)
            pri = EMERGENCY_PRIORITY if urgent else LEAVE_SOCKET_PRIORITY
            out.append(_proposal((pri, Undock(face), "")))
            return out

        parked = True
        if not docked and not obs.me.carried:
            # drive all the way down to servo tolerance; dock latches need
            # millimetres, not the loose at-slot radius
            cmd = self._servo(obs, slot.position[0], slot.position[1],
                              target_heading=slot.heading)
            if cmd is not None:
                parked = False
                out.append(_proposal((seek_pri, cmd, "")))

        if parked and slot.rank == 0 and slot.socket.active:
            pri = EMERGENCY_PRIORITY if urgent else RECHARGE_PRIORITY
            out.append(_proposal((pri, _recharge((slot.socket.id,)), "")))
        return out or None


class AggregateController(_Controller):
    """Form and hold the stack: dock onto the predecessor, then stand still."""

    def __call__(self, obs: Observation):
        slot = self._assigned_slot(obs)
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
        out = [HOLD_PROPOSAL]

        if slot.predecessor is not None:
            south = FACES.index(Face.SOUTH)
            south_free = obs.interaction.port_phases[south] == "free"
            if south_free:
                pred = obs.local.modules.get(slot.predecessor)
                if pred is not None and pred.health is _OK:
                    tol = pair_tolerance(obs.me.module_class, pred.module_class)
                    if attempt_align(pose, Face.SOUTH, pred.pose, Face.NORTH,
                                     tol, self.spec.edge_length):
                        out.append(_proposal((
                            DOCK_PRIORITY,
                            Dock(Face.SOUTH, pred.id, Face.NORTH), "")))
        return out


class ExploreController(_Controller):
    """Random waypoint wandering; the only stochastic baseline behavior."""

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
        cmd = self._servo(obs, self.waypoint[0], self.waypoint[1])
        if cmd is None:
            return None
        return [_proposal((EXPLORE_PRIORITY, cmd, ""))]


class DisposalController(_Controller):
    """Two wheeled haulers drag each dead module into the graveyard.

    Recomputed from observation every tick, no internal state: the two
    lowest-id undocked healthy wheeled modules in sensor range answer for
    the lowest-id corpse outside the graveyard. One grabs the east face,
    the other the west, and once all three bodies form one organism they
    drive it home, unplug and back away.
    """

    def __call__(self, obs: Observation):
        if obs.me.module_class is not _ACTIVE_WHEEL:
            return None
        yard = obs.local.graveyard
        if yard is None:
            return None
        pose = obs.me.pose

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
                    return [_proposal((DISPOSAL_PRIORITY, cmd, ""))]
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
        side = Face.EAST if rank == 0 else Face.WEST
        grab = Face.WEST if rank == 0 else Face.EAST
        nx, ny = heading_vec(norm_deg(corpse.pose.heading + side.offset_deg))
        edge = self.spec.edge_length
        px = corpse.pose.x + edge * nx
        py = corpse.pose.y + edge * ny
        cmd = self._servo(obs, px, py, target_heading=corpse.pose.heading)
        if cmd is not None:
            return [_proposal((DISPOSAL_PRIORITY, cmd, ""))]
        if obs.interaction.port_phases[FACES.index(grab)] == "free":
            tol = pair_tolerance(obs.me.module_class, corpse.module_class)
            if attempt_align(pose, grab, corpse.pose, side, tol, edge):
                return [_proposal((DISPOSAL_PRIORITY,
                                   Tow(grab, corpse.id, side), ""))]
        return [_proposal((DISPOSAL_PRIORITY, IDLE, ""))]

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
        if in_yard(yard, corpse.pose.x, corpse.pose.y):
            return [_proposal((DISPOSAL_PRIORITY, Undock(face), ""))]
        if obs.interaction.organism_size < 3:
            return [_proposal((DISPOSAL_PRIORITY, IDLE, ""))]  # partner inbound
        gx = (yard[0] + yard[2]) / 2.0
        gy = (yard[1] + yard[3]) / 2.0
        dx, dy = gx - corpse.pose.x, gy - corpse.pose.y
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            return [_proposal((DISPOSAL_PRIORITY, IDLE, ""))]
        v = min(self.spec.max_speed, dist / obs.internal.dt) / dist
        bx, by = rotate_vec(dx * v, dy * v, -pose.heading)
        return [_proposal((DISPOSAL_PRIORITY, _drive((bx, by, 0.0)), ""))]

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
    each holding the module's own ModuleSpec. A controller class that
    draws gets the substream `<name>/<module_id>` of `rng`; the others get
    None, so no stream is derived for them."""
    out = {}
    for name in names:
        factory = REGISTRY.get(name)
        if factory is None:
            raise ConfigError(f"unknown controller {name!r}; "
                              f"known: {', '.join(sorted(REGISTRY))}")
        out[name] = factory(module_id, spec,
                            rng.substream(f"{name}/{module_id}")
                            if factory.draws_noise else None, params)
    return out
