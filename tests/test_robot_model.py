import math

import pytest
from hypothesis import given, strategies as st

from orgsim.docking import DockPhase
from orgsim.energy import Tariff
from orgsim.errors import CommandError, ConfigError
from orgsim.geometry import Pose
from orgsim.robot_model import (PJ, DriveCommand, DriveKind, Health,
                                ModuleClass, actuate_joint, alignment_tolerance,
                                can_traverse, dof_range, locomotion_step,
                                make_module_spec, new_module_state, to_j, to_pj)
from orgsim.world import TerrainClass
from tests.path_reference import sampled

TARIFF = Tariff()


@sampled
def open_floor(x, y):
    return TerrainClass.PLAIN


# -- capability envelope: the hardware table is fixed ---------------------


def test_scout_envelope():
    s = make_module_spec(ModuleClass.SCOUT)
    assert s.max_speed == 0.125
    assert s.drive_kind is DriveKind.TRACKED
    assert s.dof_count == 2
    assert s.bend_range == 90.0
    assert s.rot_range == 180.0
    assert s.max_torque == 3.0
    assert s.max_joint_speed == 37.2
    assert s.rough_terrain_capable


def test_backbone_envelope():
    s = make_module_spec(ModuleClass.BACKBONE)
    assert s.max_speed == 0.06
    assert s.drive_kind is DriveKind.SCREW
    assert s.dof_count == 1
    assert s.bend_range == 90.0
    assert s.rot_range is None
    assert s.max_torque == 7.0
    assert s.max_joint_speed == 180.0
    assert not s.rough_terrain_capable


def test_active_wheel_envelope():
    s = make_module_spec(ModuleClass.ACTIVE_WHEEL)
    assert s.max_speed == 0.31
    assert s.drive_kind is DriveKind.OMNIDIRECTIONAL
    assert s.dof_count == 2
    assert s.bend_range == 90.0
    assert s.rot_range == 180.0
    assert s.max_torque == 5.0
    assert s.max_joint_speed == 50.0
    assert not s.rough_terrain_capable


def test_shared_defaults():
    for mc in ModuleClass:
        s = make_module_spec(mc)
        assert (s.mass, s.edge_length, s.battery_capacity) == (1.0, 0.10, 20000.0)


def test_only_invented_defaults_can_be_overridden():
    s = make_module_spec(ModuleClass.SCOUT,
                        {"mass": 1.2, "edge_length": 0.15,
                         "battery_capacity": 500.0})
    assert (s.mass, s.edge_length, s.battery_capacity) == (1.2, 0.15, 500.0)
    with pytest.raises(ConfigError):
        make_module_spec(ModuleClass.SCOUT, {"max_speed": 9.0})
    with pytest.raises(ConfigError):
        make_module_spec(ModuleClass.SCOUT, {"max_torque": 50.0})
    with pytest.raises(ConfigError):
        make_module_spec(ModuleClass.SCOUT, {"mass": -1.0})
    with pytest.raises(ConfigError):
        make_module_spec(ModuleClass.SCOUT, {"mass": float("nan")})


def test_dof_range_lookup():
    scout = make_module_spec(ModuleClass.SCOUT)
    assert dof_range(scout, 0) == 90.0
    assert dof_range(scout, 1) == 180.0
    backbone = make_module_spec(ModuleClass.BACKBONE)
    assert dof_range(backbone, 0) == 90.0
    with pytest.raises(ValueError):
        dof_range(backbone, 1)
    with pytest.raises(ValueError):
        dof_range(scout, -1)


def test_alignment_tolerance_per_class():
    rough = alignment_tolerance(ModuleClass.SCOUT)
    fine = alignment_tolerance(ModuleClass.BACKBONE)
    assert rough.max_offset > fine.max_offset
    assert alignment_tolerance(ModuleClass.ACTIVE_WHEEL) == fine


def test_traversability_table():
    rough_set = {TerrainClass.PLAIN, TerrainClass.ROUGH, TerrainClass.SLOPE,
                 TerrainClass.SMALL_HOLE}
    for t in TerrainClass:
        assert can_traverse(ModuleClass.SCOUT, t) == (t in rough_set)
        assert can_traverse(ModuleClass.BACKBONE, t) == (t is TerrainClass.PLAIN)
        assert can_traverse(ModuleClass.ACTIVE_WHEEL, t) == (t is TerrainClass.PLAIN)


# -- state construction ---------------------------------------------------


def test_new_state_battery_is_integer_picojoules():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(1, spec, Pose(0, 0, 0), battery_fraction=0.5)
    assert st_.battery_pj == 10000 * PJ
    assert st_.capacity_pj == 20000 * PJ
    assert st_.battery == 10000.0
    assert st_.battery_fraction == 0.5
    assert len(st_.joint_angles) == 2
    assert len(st_.ports) == 4
    assert all(p.owner == 1 and p.phase is DockPhase.FREE for p in st_.ports)
    with pytest.raises(ConfigError):
        new_module_state(2, spec, Pose(0, 0, 0), battery_fraction=1.5)


def test_pj_round_trip():
    assert to_j(to_pj(123.456)) == pytest.approx(123.456, abs=1e-9)
    assert to_pj(1.0) == PJ


# -- locomotion -----------------------------------------------------------


def test_straight_drive_distance_and_energy():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(1.0, 1.0, 0.0))
    mr = locomotion_step(st_, spec, DriveCommand(linear=0.1),
                         open_floor, 10.0, TARIFF)
    assert mr.pose.x == pytest.approx(2.0)
    assert mr.pose.y == pytest.approx(1.0)
    assert not mr.blocked
    # energy oracle: idle + tariff * distance * mass
    assert mr.energy_j == pytest.approx(0.5 * 10.0 + 2.0 * 1.0 * 1.0)


def test_speed_is_capped_not_rejected():
    spec = make_module_spec(ModuleClass.BACKBONE)
    st_ = new_module_state(0, spec, Pose(0, 0, 90.0))
    mr = locomotion_step(st_, spec, DriveCommand(linear=5.0),
                         open_floor, 10.0, TARIFF)
    assert math.hypot(mr.pose.x, mr.pose.y) == pytest.approx(0.06 * 10.0)


def test_lateral_drive_obeys_drive_kind():
    scout = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, scout, Pose(0, 0, 0))
    with pytest.raises(CommandError):
        locomotion_step(st_, scout, DriveCommand(lateral=0.05),
                        open_floor, 10.0, TARIFF)
    wheel = make_module_spec(ModuleClass.ACTIVE_WHEEL)
    sw = new_module_state(1, wheel, Pose(0, 0, 0))
    mr = locomotion_step(sw, wheel, DriveCommand(lateral=0.1),
                         open_floor, 10.0, TARIFF)
    # lateral is to the left of heading 0, so +y
    assert mr.pose.y == pytest.approx(1.0)
    assert mr.pose.x == pytest.approx(0.0, abs=1e-12)


def test_turn_in_place_costs_idle_only():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0, 0, 10.0))
    mr = locomotion_step(st_, spec, DriveCommand(angular=3.0),
                         open_floor, 10.0, TARIFF)
    assert mr.pose.heading == pytest.approx(40.0)
    assert mr.energy_j == pytest.approx(0.5 * 10.0)
    assert not mr.blocked


def test_blocked_path_freezes_pose_and_heading():
    @sampled
    def wall_east(x, y):
        return TerrainClass.OBSTACLE if x > 0.5 else TerrainClass.PLAIN
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0.4, 0.0, 0.0))
    mr = locomotion_step(st_, spec, DriveCommand(linear=0.1, angular=5.0),
                         wall_east, 10.0, TARIFF)
    assert mr.blocked
    assert mr.pose == st_.pose              # heading does not slew either
    assert mr.energy_j == pytest.approx(5.0)  # idle only


def test_terrain_rules_apply_to_path():
    @sampled
    def rough_east(x, y):
        return TerrainClass.ROUGH if x > 0.5 else TerrainClass.PLAIN
    scout = make_module_spec(ModuleClass.SCOUT)
    s = new_module_state(0, scout, Pose(0.4, 0, 0))
    assert not locomotion_step(s, scout, DriveCommand(linear=0.1),
                               rough_east, 10.0, TARIFF).blocked
    bb = make_module_spec(ModuleClass.BACKBONE)
    b = new_module_state(1, bb, Pose(0.4, 0, 0))
    assert locomotion_step(b, bb, DriveCommand(linear=0.06),
                           rough_east, 10.0, TARIFF).blocked


def test_dead_or_docked_modules_refuse_commands():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0, 0, 0))
    st_.health = Health.ENERGY_DEAD
    with pytest.raises(CommandError):
        locomotion_step(st_, spec, DriveCommand(linear=0.1),
                        open_floor, 10.0, TARIFF)
    st_.health = Health.OK
    st_.ports[0].phase = DockPhase.DOCKED
    with pytest.raises(CommandError):
        locomotion_step(st_, spec, DriveCommand(linear=0.1),
                        open_floor, 10.0, TARIFF)


@given(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
       st.floats(0, 359.99), st.floats(-30, 30))
def test_move_never_exceeds_speed_budget(linear, lateral, heading, angular):
    wheel = make_module_spec(ModuleClass.ACTIVE_WHEEL)
    s = new_module_state(0, wheel, Pose(5.0, 5.0, heading))
    mr = locomotion_step(s, wheel, DriveCommand(linear, lateral, angular),
                         open_floor, 10.0, TARIFF)
    assert s.pose.distance_to(mr.pose) <= wheel.max_speed * 10.0 + 1e-9


# -- joints ---------------------------------------------------------------


def test_joint_slew_is_rate_limited():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0, 0, 0))
    jr = actuate_joint(st_, spec, 0, 90.0, 1.0, TARIFF)
    assert jr.angle == pytest.approx(37.2)  # one second at the class rate
    # energy oracle: tariff * torque rating * radians swept
    assert jr.energy_j == pytest.approx(1.0 * 3.0 * math.radians(37.2))


def test_joint_target_clamped_to_range():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0, 0, 0))
    jr = actuate_joint(st_, spec, 0, 500.0, 100.0, TARIFF)
    assert jr.angle == 90.0
    jr2 = actuate_joint(st_, spec, 1, -700.0, 100.0, TARIFF)
    assert jr2.angle == -180.0


def test_satisfied_joint_costs_nothing():
    spec = make_module_spec(ModuleClass.BACKBONE)
    st_ = new_module_state(0, spec, Pose(0, 0, 0))
    st_.joint_angles[0] = 45.0
    jr = actuate_joint(st_, spec, 0, 45.0, 10.0, TARIFF)
    assert jr.angle == 45.0
    assert jr.energy_j == 0.0


def test_dead_module_cannot_actuate():
    spec = make_module_spec(ModuleClass.SCOUT)
    st_ = new_module_state(0, spec, Pose(0, 0, 0))
    st_.health = Health.HARDWARE_DEAD
    with pytest.raises(CommandError):
        actuate_joint(st_, spec, 0, 10.0, 1.0, TARIFF)
