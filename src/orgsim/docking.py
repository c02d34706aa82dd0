"""Hermaphroditic docking ports and their lifecycle state machine.

A dock progresses Free > Approaching > Aligning > Locking > Docked and back
out through Unlocking > Separating > Free. Both ports of a pairing always
sit in the same phase; peers are recorded exactly while the connection is
electrically real (Locking, Docked, Unlocking). Abort is honoured strictly
before Locking. Either side alone can initiate undocking, which is what lets
live modules shed a dead neighbour.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ProtocolError
from .geometry import Pose, ang_diff_deg, heading_vec, norm_deg


class Face(enum.Enum):
    NORTH = "N"
    EAST = "E"
    SOUTH = "S"
    WEST = "W"

    @property
    def offset_deg(self) -> float:
        return _FACE_OFFSET[self._value_]


# keyed by value: a member key would run the pure-Python Enum.__hash__
_FACE_OFFSET = {"N": 0.0, "E": 270.0, "S": 180.0, "W": 90.0}

FACES = (Face.NORTH, Face.EAST, Face.SOUTH, Face.WEST)
_NORTH, _EAST, _SOUTH, _WEST = FACES


class DockPhase(enum.Enum):
    FREE = "free"
    APPROACHING = "approaching"
    ALIGNING = "aligning"
    LOCKING = "locking"
    DOCKED = "docked"
    UNLOCKING = "unlocking"
    SEPARATING = "separating"


# Tuples, not sets: `in` on a tuple compares members by identity in C, where
# a set would call the pure-Python Enum.__hash__ on every test.
PEERED_PHASES = (DockPhase.LOCKING, DockPhase.DOCKED, DockPhase.UNLOCKING)
# Phases where an abort input still cancels the attempt.
ABORTABLE_PHASES = (DockPhase.FREE, DockPhase.APPROACHING, DockPhase.ALIGNING)


@dataclass(eq=False, slots=True)
class DockPort:
    """One of a module's four connectors. Identity matters, not value.
    Slotted, like ModuleState, so that `phase` reads specialize."""

    owner: int
    face: Face
    phase: DockPhase = DockPhase.FREE
    peer: "DockPort | None" = None


def make_ports(owner: int) -> list[DockPort]:
    """A module's four free, unpeered ports in FACES order."""
    return [DockPort(owner, _NORTH), DockPort(owner, _EAST),
            DockPort(owner, _SOUTH), DockPort(owner, _WEST)]


@dataclass(frozen=True)
class AlignmentTolerance:
    max_offset: float        # metres between face centers
    max_heading_error: float  # degrees away from exact opposition


ACCURATE_TOLERANCE = AlignmentTolerance(0.01, 5.0)
ROUGH_TOLERANCE = AlignmentTolerance(0.02, 10.0)


def face_normal_deg(pose: Pose, face: Face) -> float:
    return norm_deg(pose.heading + face.offset_deg)


def face_center(pose: Pose, face: Face,
                edge_length: float) -> tuple[float, float]:
    nx, ny = heading_vec(face_normal_deg(pose, face))
    half = edge_length / 2.0
    return pose.x + nx * half, pose.y + ny * half


def attempt_align(pose_a: Pose, face_a: Face, pose_b: Pose, face_b: Face,
                  tol: AlignmentTolerance, edge_length: float) -> bool:
    """True when the two faces oppose each other within tolerance.

    Opposition means the outward normals differ by 180 degrees up to
    max_heading_error, and the face centers, half an `edge_length` out
    from each pose, sit within max_offset metres.
    """
    na = face_normal_deg(pose_a, face_a)
    nb = face_normal_deg(pose_b, face_b)
    if abs(ang_diff_deg(na, nb + 180.0)) > tol.max_heading_error:
        return False
    ax, ay = face_center(pose_a, face_a, edge_length)
    bx, by = face_center(pose_b, face_b, edge_length)
    return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 <= tol.max_offset


class TickInput(NamedTuple):
    """Per-tick inputs to advance_dock.

    `aligned` reports the attempt_align verdict while the pair is Aligning;
    `separated` reports whether the faces have cleared one edge length while
    Separating. Abort only has teeth before Locking.
    """

    aligned: bool = False
    abort: bool = False
    separated: bool = False


def _both(port_a: DockPort, port_b: DockPort, phase: DockPhase) -> None:
    port_a.phase = phase
    port_b.phase = phase


def _clear_peers(port_a: DockPort, port_b: DockPort) -> None:
    port_a.peer = None
    port_b.peer = None


def advance_dock(port_a: DockPort, port_b: DockPort, inp: TickInput, *,
                 healthy_a: bool = True, healthy_b: bool = True,
                 tow: bool = False) -> tuple[DockPhase, DockPhase]:
    """Advance a port pairing one legal step.

    Ports must belong to different modules and sit in the same phase. A dead
    participant aborts any attempt still short of Docked unless the pairing
    was opened with the tow flag, which is how carriers grab a dead module.
    Calling this on a Docked pair is a protocol error; a docked connection
    only moves again via undock().
    """
    if port_a.owner == port_b.owner:
        raise ProtocolError(f"port pair on the same module {port_a.owner}")
    if port_a.phase is not port_b.phase:
        raise ProtocolError(
            f"port phases diverged: {port_a.phase.value} vs {port_b.phase.value}")
    phase = port_a.phase

    if phase is DockPhase.DOCKED:
        raise ProtocolError("advance on a docked pair; use undock() to release it")

    if not tow and not (healthy_a and healthy_b):
        if phase in (DockPhase.APPROACHING, DockPhase.ALIGNING, DockPhase.LOCKING):
            _clear_peers(port_a, port_b)
            _both(port_a, port_b, DockPhase.FREE)
            return port_a.phase, port_b.phase
        if phase is DockPhase.FREE:
            raise ProtocolError(
                "docking with a dead module requires the tow flag")
        # Unlocking/Separating proceed regardless: release must always work.

    if inp.abort and phase in ABORTABLE_PHASES:
        _clear_peers(port_a, port_b)
        _both(port_a, port_b, DockPhase.FREE)
        return port_a.phase, port_b.phase

    if phase is DockPhase.FREE:
        _both(port_a, port_b, DockPhase.APPROACHING)
    elif phase is DockPhase.APPROACHING:
        _both(port_a, port_b, DockPhase.ALIGNING)
    elif phase is DockPhase.ALIGNING:
        if inp.aligned:
            port_a.peer = port_b
            port_b.peer = port_a
            _both(port_a, port_b, DockPhase.LOCKING)
    elif phase is DockPhase.LOCKING:
        _both(port_a, port_b, DockPhase.DOCKED)
    elif phase is DockPhase.UNLOCKING:
        _clear_peers(port_a, port_b)
        _both(port_a, port_b, DockPhase.SEPARATING)
    elif phase is DockPhase.SEPARATING:
        if inp.separated:
            _both(port_a, port_b, DockPhase.FREE)
    return port_a.phase, port_b.phase


def undock(port: DockPort) -> tuple[DockPhase, DockPhase]:
    """One-sided release: both ports of a docked pair enter Unlocking.

    Works identically no matter which side calls it and no matter whether
    the peer module is still alive.
    """
    if port.phase is not DockPhase.DOCKED:
        raise ProtocolError(f"undock on a port in phase {port.phase.value}")
    peer = port.peer
    if peer is None:
        raise ProtocolError("docked port has no recorded peer")
    port.phase = DockPhase.UNLOCKING
    peer.phase = DockPhase.UNLOCKING
    return port.phase, peer.phase

