"""Module classes, their capability envelopes, and single-module kinematics.

Three hardware classes exist and their capability numbers are fixed: a config
may override only the invented defaults (mass, edge_length, battery_capacity).
Batteries are stored internally in integer picojoules so that energy transfers
can be conserved exactly; the `battery` property reads plain joules.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from .docking import (DockPort, PEERED_PHASES, ACCURATE_TOLERANCE, ROUGH_TOLERANCE,
                      FACES, AlignmentTolerance, Face, make_ports)
from .errors import CommandError, ConfigError
from .geometry import Pose, norm_deg, rotate_vec
from .world import TerrainClass

if TYPE_CHECKING:
    from .control import Drive

PJ = 10 ** 12  # picojoules per joule


def to_pj(joules: float) -> int:
    return round(joules * PJ)


def to_j(pj: int) -> float:
    return pj / PJ


class ModuleClass(enum.Enum):
    SCOUT = "scout"
    BACKBONE = "backbone"
    ACTIVE_WHEEL = "active_wheel"


class DriveKind(enum.Enum):
    TRACKED = "tracked"            # differential tracks, no sideways motion
    SCREW = "screw"                # screw drive, near omnidirectional
    OMNIDIRECTIONAL = "omni"


class Health(enum.Enum):
    OK = "ok"
    ENERGY_DEAD = "energy_dead"
    HARDWARE_DEAD = "hardware_dead"


@dataclass(frozen=True)
class ModuleSpec:
    module_class: ModuleClass
    max_speed: float               # m/s
    drive_kind: DriveKind
    dof_count: int
    bend_range: float              # +- degrees, joint 0
    rot_range: float | None        # +- degrees, joint 1; None for the single shared joint
    max_torque: float              # N*m
    max_joint_speed: float         # deg/s
    rough_terrain_capable: bool
    mass: float = 1.0              # kg
    edge_length: float = 0.10      # m
    battery_capacity: float = 20000.0  # J


_CAPABILITIES = {
    ModuleClass.SCOUT: dict(
        max_speed=0.125, drive_kind=DriveKind.TRACKED, dof_count=2,
        bend_range=90.0, rot_range=180.0, max_torque=3.0,
        max_joint_speed=37.2, rough_terrain_capable=True),
    ModuleClass.BACKBONE: dict(
        max_speed=0.06, drive_kind=DriveKind.SCREW, dof_count=1,
        bend_range=90.0, rot_range=None, max_torque=7.0,
        max_joint_speed=180.0, rough_terrain_capable=False),
    ModuleClass.ACTIVE_WHEEL: dict(
        max_speed=0.31, drive_kind=DriveKind.OMNIDIRECTIONAL, dof_count=2,
        bend_range=90.0, rot_range=180.0, max_torque=5.0,
        max_joint_speed=50.0, rough_terrain_capable=False),
}

# the ModuleSpec fields a scenario's [modules] section may set
OVERRIDABLE = ("mass", "edge_length", "battery_capacity")


def make_module_spec(module_class: ModuleClass,
                     overrides: dict | None = None) -> ModuleSpec:
    """Build the ModuleSpec for a class. Only mass, edge_length and
    battery_capacity accept overrides; the capability envelope is hardware."""
    fields = dict(_CAPABILITIES[module_class])
    if overrides:
        for key, value in overrides.items():
            if key not in OVERRIDABLE:
                raise ConfigError(
                    f"field {key!r} of {module_class.value} is fixed hardware "
                    f"capability and cannot be overridden")
            if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
                raise ConfigError(f"override {key}={value!r} must be a positive number")
            fields[key] = float(value)
    return ModuleSpec(module_class=module_class, **fields)


def dof_range(spec: ModuleSpec, dof_index: int) -> float:
    """Symmetric limit in degrees for one joint."""
    if not 0 <= dof_index < spec.dof_count:
        raise ValueError(
            f"{spec.module_class.value} has {spec.dof_count} joint(s), "
            f"index {dof_index} invalid")
    if dof_index == 0:
        return spec.bend_range
    assert spec.rot_range is not None
    return spec.rot_range


def alignment_tolerance(module_class: ModuleClass) -> AlignmentTolerance:
    """Scouts only manage rough alignment; the others dock accurately."""
    if module_class is ModuleClass.SCOUT:
        return ROUGH_TOLERANCE
    return ACCURATE_TOLERANCE


def pair_tolerance(class_a: ModuleClass, class_b: ModuleClass) -> AlignmentTolerance:
    """A pair docks within the looser of its two members' tolerances."""
    ta, tb = alignment_tolerance(class_a), alignment_tolerance(class_b)
    return ta if ta.max_offset >= tb.max_offset else tb


# a carried module rides clear of the floor; only solid walls stop it
_ABOVE_GROUND = tuple(t for t in TerrainClass if t is not TerrainClass.OBSTACLE)

# what a class's tracks cross: all but walls if it is rough-capable, else
# plain ground. Tuples keyed by value, as in docking.PEERED_PHASES, so that
# `in` and the lookup stay in C, clear of Enum.__hash__
_TRAVERSABLE = {
    mc.value: _ABOVE_GROUND if caps["rough_terrain_capable"]
    else (TerrainClass.PLAIN,)
    for mc, caps in _CAPABILITIES.items()}

# bound once: an Enum class attribute lookup goes through a slow-path
# __getattr__ on CPython 3.11
_OK = Health.OK


@dataclass(slots=True)
class ModuleState:
    """Mutable per-module simulation state. Slotted: the run reads every
    module's `health` every tick, and with its default left on the class
    CPython 3.11 could not specialize those reads."""

    id: int
    module_class: ModuleClass
    pose: Pose
    battery_pj: int
    capacity_pj: int
    health: Health = Health.OK
    joint_angles: list[float] = field(default_factory=list)
    ports: list[DockPort] = field(default_factory=list)
    coprocessor_on: bool = False
    carried: bool = False          # riding on an organism, not touching ground

    @property
    def battery(self) -> float:
        return to_j(self.battery_pj)

    @property
    def battery_fraction(self) -> float:
        return self.battery_pj / self.capacity_pj if self.capacity_pj else 0.0

    def port(self, face: Face) -> DockPort:
        return self.ports[FACES.index(face)]

    @property
    def is_docked(self) -> bool:
        """True while any port holds a peered connection."""
        # the four ports inline: a generator costs more than the tests
        n, e, s, w = self.ports
        return (n.phase in PEERED_PHASES or e.phase in PEERED_PHASES
                or s.phase in PEERED_PHASES or w.phase in PEERED_PHASES)


def new_module_state(module_id: int, spec: ModuleSpec, pose: Pose,
                     battery_fraction: float = 1.0) -> ModuleState:
    if not 0.0 <= battery_fraction <= 1.0:
        raise ConfigError(f"battery fraction {battery_fraction} outside [0, 1]")
    cap_pj = to_pj(spec.battery_capacity)
    # positional, in field order: id, module_class, pose, battery_pj,
    # capacity_pj, health, joint_angles, ports
    return ModuleState(module_id, spec.module_class, pose,
                       round(cap_pj * battery_fraction), cap_pj, _OK,
                       [0.0] * spec.dof_count, make_ports(module_id))


# -- locomotion -----------------------------------------------------------


class MoveResult(NamedTuple):
    pose: Pose
    energy_j: float
    blocked: bool


def passable_terrain(state: ModuleState) -> tuple[TerrainClass, ...]:
    """Terrain a module's swept path may cross: its class's table, or
    everything but walls while it rides on an organism."""
    return (_ABOVE_GROUND if state.carried
            else _TRAVERSABLE[state.module_class._value_])


def locomotion_step(state: ModuleState, spec: ModuleSpec, cmd: Drive,
                    path_clear, dt: float, tariff) -> MoveResult:
    """Integrate one `control.Drive` over dt. Pure: the caller applies the
    pose. Speeds beyond the class cap are scaled down without changing
    direction.

    The reported energy is what a module doing nothing but this for dt would
    burn: idle draw, coprocessor included when it is on, plus the distance
    tariff. `path_clear(x0, y0, x1, y1, passable)` judges the swept path,
    as `world.Arena.path_clear` does; a move whose path crosses a cell this
    class cannot traverse is blocked and leaves the pose unchanged.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if state.health is not Health.OK:
        raise CommandError(f"module {state.id} is {state.health.value}, cannot drive")
    if state.is_docked:
        raise CommandError(
            f"module {state.id} is docked; organisms move as one body")
    if spec.drive_kind is DriveKind.TRACKED and cmd.lateral != 0.0:
        raise CommandError(
            f"{spec.module_class.value} tracks cannot slide sideways")

    vx_b, vy_b = cmd.linear, cmd.lateral
    speed = math.hypot(vx_b, vy_b)
    if speed > spec.max_speed:
        scale = spec.max_speed / speed
        vx_b *= scale
        vy_b *= scale
    vx_w, vy_w = rotate_vec(vx_b, vy_b, state.pose.heading)
    dx, dy = vx_w * dt, vy_w * dt

    idle_j = tariff.idle_draw_j(dt, state.coprocessor_on)
    if dx == 0.0 and dy == 0.0:
        heading = norm_deg(state.pose.heading + cmd.angular * dt)
        return MoveResult(Pose(state.pose.x, state.pose.y, heading), idle_j, False)

    nx, ny = state.pose.x + dx, state.pose.y + dy
    if not path_clear(state.pose.x, state.pose.y, nx, ny,
                      passable_terrain(state)):
        return MoveResult(state.pose, idle_j, True)
    dist = math.hypot(dx, dy)
    energy = idle_j + tariff.locomotion_j_per_m_kg * dist * spec.mass
    heading = norm_deg(state.pose.heading + cmd.angular * dt)
    return MoveResult(Pose(nx, ny, heading), energy, False)


# -- joint actuation ------------------------------------------------------


class JointResult(NamedTuple):
    angle: float
    energy_j: float


def actuate_joint(state: ModuleState, spec: ModuleSpec, dof_index: int,
                  target_deg: float, dt: float, tariff) -> JointResult:
    """Slew one joint toward a target at the class joint speed.

    The target is clamped into the joint range first, then approached at up
    to max_joint_speed for dt. Energy charges the class peak torque over the
    swept angle; an already-satisfied target costs nothing. Pure: the caller
    stores the returned angle.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if state.health is not Health.OK:
        raise CommandError(f"module {state.id} is {state.health.value}, cannot actuate")
    limit = dof_range(spec, dof_index)
    current = state.joint_angles[dof_index]
    goal = max(-limit, min(limit, target_deg))
    max_step = spec.max_joint_speed * dt
    delta = max(-max_step, min(max_step, goal - current))
    new_angle = current + delta
    energy = tariff.actuation_j_per_nm_rad * spec.max_torque * math.radians(abs(delta))
    return JointResult(new_angle, energy)
