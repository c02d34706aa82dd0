"""Port lifecycle tests. The core is an exhaustive cross-check of
advance_dock against an independently written transition table covering
every phase, input combination, health combination, and the tow flag."""

import itertools

import pytest

from orgsim.docking import (ACCURATE_TOLERANCE, DEFAULT_EDGE_LENGTH, FACES,
                            ROUGH_TOLERANCE, DockPhase, DockPort, Face,
                            TickInput, advance_dock, attempt_align,
                            face_center, face_normal_deg, make_ports, undock)
from orgsim.errors import ProtocolError
from orgsim.geometry import Pose

P = DockPhase


def fresh_pair(phase: P, peered: bool):
    a = DockPort(owner=0, face=Face.NORTH, phase=phase)
    b = DockPort(owner=1, face=Face.SOUTH, phase=phase)
    if peered:
        a.peer, b.peer = b, a
    return a, b


def oracle(phase: P, inp: TickInput, healthy: bool, tow: bool):
    """Independent statement of the lifecycle rules.

    Returns (next_phase, peered_after) or the string "raise".
    """
    if phase is P.DOCKED:
        return "raise"
    if not tow and not healthy:
        if phase in (P.APPROACHING, P.ALIGNING, P.LOCKING):
            return (P.FREE, False)
        if phase is P.FREE:
            return "raise"
        # Unlocking and Separating fall through to the normal rules.
    if inp.abort and phase in (P.FREE, P.APPROACHING, P.ALIGNING):
        return (P.FREE, False)
    if phase is P.FREE:
        return (P.APPROACHING, False)
    if phase is P.APPROACHING:
        return (P.ALIGNING, False)
    if phase is P.ALIGNING:
        return (P.LOCKING, True) if inp.aligned else (P.ALIGNING, False)
    if phase is P.LOCKING:
        return (P.DOCKED, True)
    if phase is P.UNLOCKING:
        return (P.SEPARATING, False)
    if phase is P.SEPARATING:
        return (P.FREE, False) if inp.separated else (P.SEPARATING, False)
    raise AssertionError(phase)


def test_every_transition_matches_the_oracle():
    cases = 0
    for phase, aligned, abort, separated, ha, hb, tow in itertools.product(
            P, (False, True), (False, True), (False, True),
            (False, True), (False, True), (False, True)):
        peered_before = phase in (P.LOCKING, P.DOCKED, P.UNLOCKING)
        a, b = fresh_pair(phase, peered_before)
        inp = TickInput(aligned=aligned, abort=abort, separated=separated)
        want = oracle(phase, inp, ha and hb, tow)
        if want == "raise":
            with pytest.raises(ProtocolError):
                advance_dock(a, b, inp, healthy_a=ha, healthy_b=hb, tow=tow)
        else:
            got = advance_dock(a, b, inp, healthy_a=ha, healthy_b=hb, tow=tow)
            want_phase, want_peered = want
            assert got == (want_phase, want_phase), (phase, inp, ha, hb, tow)
            assert a.phase is want_phase and b.phase is want_phase
            assert (a.peer is b) == want_peered
            assert (b.peer is a) == want_peered
        cases += 1
    assert cases == 7 * 2 ** 6


def test_peers_set_exactly_in_electrical_phases():
    a, b = fresh_pair(P.FREE, False)
    seen = {}
    for _ in range(10):
        advance_dock(a, b, TickInput(aligned=True))
        seen[a.phase] = a.peer is not None
        if a.phase is P.DOCKED:
            break
    undock(a)
    seen[a.phase] = a.peer is not None
    advance_dock(a, b, TickInput())
    seen[a.phase] = a.peer is not None
    advance_dock(a, b, TickInput(separated=True))
    seen[a.phase] = a.peer is not None
    assert seen == {
        P.APPROACHING: False, P.ALIGNING: False, P.LOCKING: True,
        P.DOCKED: True, P.UNLOCKING: True, P.SEPARATING: False, P.FREE: False,
    }


def test_same_module_pair_rejected():
    a = DockPort(owner=3, face=Face.NORTH)
    b = DockPort(owner=3, face=Face.SOUTH)
    with pytest.raises(ProtocolError):
        advance_dock(a, b, TickInput())


def test_phase_divergence_rejected():
    a, b = fresh_pair(P.FREE, False)
    b.phase = P.ALIGNING
    with pytest.raises(ProtocolError):
        advance_dock(a, b, TickInput())


def test_undock_is_one_sided_and_symmetric():
    for caller in (0, 1):
        a, b = fresh_pair(P.DOCKED, True)
        undock((a, b)[caller])
        assert a.phase is P.UNLOCKING and b.phase is P.UNLOCKING
        assert a.peer is b and b.peer is a  # still electrically real


def test_undock_requires_docked():
    a, b = fresh_pair(P.ALIGNING, False)
    with pytest.raises(ProtocolError):
        undock(a)
    lone = DockPort(owner=9, face=Face.EAST, phase=P.DOCKED, peer=None)
    with pytest.raises(ProtocolError):
        undock(lone)


def test_release_works_with_a_dead_peer():
    a, b = fresh_pair(P.DOCKED, True)
    undock(a)
    advance_dock(a, b, TickInput(), healthy_b=False)
    assert a.phase is P.SEPARATING
    advance_dock(a, b, TickInput(separated=True), healthy_b=False)
    assert a.phase is P.FREE and a.peer is None and b.peer is None


def test_tow_pairing_reaches_docked_with_dead_partner():
    a, b = fresh_pair(P.FREE, False)
    phases = []
    for _ in range(4):
        advance_dock(a, b, TickInput(aligned=True), healthy_b=False, tow=True)
        phases.append(a.phase)
    assert phases == [P.APPROACHING, P.ALIGNING, P.LOCKING, P.DOCKED]


# -- geometry helpers -----------------------------------------------------


def test_face_enum_layout():
    assert [f.value for f in FACES] == ["N", "E", "S", "W"]
    assert Face.NORTH.offset_deg == 0.0
    assert Face.EAST.offset_deg == 270.0
    assert Face.SOUTH.offset_deg == 180.0
    assert Face.WEST.offset_deg == 90.0


def test_face_normal_follows_heading():
    pose = Pose(0, 0, 30.0)
    assert face_normal_deg(pose, Face.NORTH) == pytest.approx(30.0)
    assert face_normal_deg(pose, Face.WEST) == pytest.approx(120.0)


def test_face_centers_sit_half_an_edge_out():
    pose = Pose(1.0, 1.0, 0.0)
    assert face_center(pose, Face.NORTH) == pytest.approx((1.05, 1.0))
    assert face_center(pose, Face.SOUTH) == pytest.approx((0.95, 1.0))
    assert face_center(pose, Face.EAST) == pytest.approx((1.0, 0.95))
    assert face_center(pose, Face.WEST) == pytest.approx((1.0, 1.05))


def test_attempt_align_on_perfectly_mated_faces():
    # module at (0,0) heading 90 offers NORTH (+y); partner directly above
    # at one edge length offers SOUTH, headings equal so normals oppose
    a = Pose(0.0, 0.0, 90.0)
    b = Pose(0.0, DEFAULT_EDGE_LENGTH, 90.0)
    assert attempt_align(a, Face.NORTH, b, Face.SOUTH, ACCURATE_TOLERANCE)


def test_attempt_align_tolerances_bound_offset_and_angle():
    a = Pose(0.0, 0.0, 90.0)
    almost = Pose(0.015, DEFAULT_EDGE_LENGTH, 90.0)
    assert not attempt_align(a, Face.NORTH, almost, Face.SOUTH, ACCURATE_TOLERANCE)
    assert attempt_align(a, Face.NORTH, almost, Face.SOUTH, ROUGH_TOLERANCE)
    skewed = Pose(0.0, DEFAULT_EDGE_LENGTH, 97.0)
    assert not attempt_align(a, Face.NORTH, skewed, Face.SOUTH, ACCURATE_TOLERANCE)
    assert attempt_align(a, Face.NORTH, skewed, Face.SOUTH, ROUGH_TOLERANCE)


def test_attempt_align_rejects_same_direction_faces():
    # both heading 90, both offering NORTH: normals are parallel, not opposed
    a = Pose(0.0, 0.0, 90.0)
    b = Pose(0.0, DEFAULT_EDGE_LENGTH, 90.0)
    assert not attempt_align(a, Face.NORTH, b, Face.NORTH, ROUGH_TOLERANCE)


def test_make_ports_order():
    ports = make_ports(4)
    assert [p.face for p in ports] == list(FACES)
