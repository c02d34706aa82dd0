"""Stock controllers: slot arithmetic, the point servo, stacking choreography.

The servo tests close the loop through the real locomotion integrator, so
"converges" means the hardware model actually lands on the spot, not that
the controller merely keeps emitting plausible commands.
"""

import copy
import dataclasses
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from orgsim import behaviors
from orgsim.behaviors import (ARRIVE_TOL, AT_SLOT_RADIUS, DISPOSAL_PRIORITY,
                              DOCK_PRIORITY, EMERGENCY_PRIORITY,
                              EXPLORE_PRIORITY, HEADING_TOL, HOLD_PRIORITY,
                              LEAVE_SOCKET_PRIORITY, RECHARGE_PRIORITY,
                              SEEK_PRIORITY,
                              AggregateController, DisposalController,
                              ExploreController, REGISTRY,
                              SeekEnergyController, StackSlot, assigned_slot,
                              build_controllers, servo_drive)
from orgsim.config import load_scenario_file
from orgsim.control import (ActionProposal, Dock, Drive, Idle,
                            InteractionChannel, InternalChannel, LocalChannel,
                            Observation, Recharge, SelfChannel, Undock)
from orgsim.docking import ACCURATE_TOLERANCE, ROUGH_TOLERANCE, Face
from orgsim.errors import ConfigError
from orgsim.energy import Tariff
from orgsim.geometry import Pose, ang_diff_deg
from orgsim.harness import Simulation
from orgsim.rng import Rng
from orgsim.robot_model import (DriveKind, Health, ModuleClass,
                                locomotion_step, make_module_spec,
                                new_module_state, pair_tolerance)
from orgsim.sensing import SensedModule, SensedModules
from orgsim.world import SensedSocket, TerrainClass
from tests.path_reference import sampled
from tests.pinned_runs import COLONY, DISPOSAL_OPEN, PinnedRun

TARIFF = Tariff()
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EDGE = 0.10     # metres, the default edge_length of every module class
SCOUT_SPEC = make_module_spec(ModuleClass.SCOUT)
WHEEL_SPEC = make_module_spec(ModuleClass.ACTIVE_WHEEL)


@sampled
def open_floor(x, y):
    return TerrainClass.PLAIN


def socket(sid, x, y, active=True, approach=90.0, height=0.3):
    return SensedSocket(sid, (x, y), active, 20.0, 0.5, height, approach)


def obs_for(mid=0, pose=Pose(0, 0, 0), sockets=(), modules=(), docked=(),
            phases=("free",) * 4, battery=1.0, carried=False,
            mc=ModuleClass.SCOUT):
    me = SelfChannel(id=mid, module_class=mc, pose=pose,
                     battery_fraction=battery, health=Health.OK,
                     joint_angles=(0.0, 0.0), coprocessor_on=False,
                     carried=carried)
    local = LocalChannel(terrain=TerrainClass.PLAIN, sockets=tuple(sockets),
                         modules=SensedModules.of(modules),
                         arena_size=(4.0, 3.0),
                         graveyard=(3.0, 2.0, 3.9, 2.9))
    inter = InteractionChannel(docked_faces=tuple(docked), port_phases=phases,
                               port_peers=(None,) * 4, organism_id=None,
                               organism_size=1, organism_reach=0.1,
                               messages=())
    return Observation(me, local, inter,
                       InternalChannel(tick=5, dt=10.0, bus_load=0))


# -- slot arithmetic ------------------------------------------------------


THREE = [socket(0, 1.0, 0.25), socket(1, 2.0, 0.25), socket(2, 3.0, 0.25)]


def test_assigned_slot_distributes_a_fleet_evenly():
    per_socket = {0: 0, 1: 0, 2: 0}
    for mid in range(10):
        slot = assigned_slot(mid, list(THREE), EDGE)
        per_socket[slot.socket.id] += 1
        assert slot.socket.id == mid % 3
        assert slot.rank == mid // 3
        assert slot.predecessor == (mid - 3 if mid >= 3 else None)
    assert per_socket == {0: 4, 1: 3, 2: 3}


def test_assigned_slot_geometry():
    slot = assigned_slot(7, list(THREE), EDGE)   # socket 1, rank 2
    assert slot.position == (pytest.approx(2.0), pytest.approx(0.45))
    assert slot.heading == 90.0
    side = assigned_slot(0, [socket(0, 1.0, 0.25, approach=0.0)], EDGE)
    assert side.position == (pytest.approx(1.0), pytest.approx(0.25))
    third = assigned_slot(2, [socket(0, 1.0, 0.25, approach=0.0)], EDGE)
    assert third.position == (pytest.approx(1.2), pytest.approx(0.25))


def test_assigned_slot_pool_prefers_active_sockets():
    socks = [socket(0, 1.0, 0.25, active=False), socket(1, 2.0, 0.25)]
    assert assigned_slot(0, socks, EDGE).socket.id == 1
    assert assigned_slot(1, socks, EDGE).rank == 1
    # nothing lit: pre-position over the whole known set
    dark = [socket(0, 1.0, 0.25, active=False),
            socket(1, 2.0, 0.25, active=False)]
    assert assigned_slot(0, dark, EDGE).socket.id == 0
    assert assigned_slot(1, dark, EDGE).socket.id == 1
    assert assigned_slot(0, [], EDGE) is None


# -- point servo ----------------------------------------------------------


SPEC_OF_KIND = {
    DriveKind.TRACKED: make_module_spec(ModuleClass.SCOUT),
    DriveKind.SCREW: make_module_spec(ModuleClass.BACKBONE),
    DriveKind.OMNIDIRECTIONAL: make_module_spec(ModuleClass.ACTIVE_WHEEL),
}


def drive_until_parked(start: Pose, kind: DriveKind, tx, ty, target_heading,
                       max_ticks=10):
    spec = SPEC_OF_KIND[kind]
    pose = start
    for _ in range(max_ticks):
        cmd = servo_drive(pose, kind, spec.max_speed, tx, ty, 10.0,
                          target_heading=target_heading)
        if cmd is None:
            return pose
        state = new_module_state(0, spec, pose)
        res = locomotion_step(state, spec, cmd, open_floor, 10.0, TARIFF)
        assert not res.blocked
        pose = res.pose
    pytest.fail(f"servo never parked, ended at {pose}")


@given(st.floats(0.3, 3.7), st.floats(0.3, 2.7),
       st.sampled_from([0.0, 37.0, 90.0, 135.0, 241.0, 359.0]),
       st.sampled_from([None, 90.0, 180.0]),
       st.sampled_from(list(DriveKind)))
def test_servo_parks_on_target(tx, ty, heading, target_heading, kind):
    end = drive_until_parked(Pose(2.0, 1.5, heading), kind, tx, ty,
                             target_heading)
    assert math.hypot(end.x - tx, end.y - ty) < ARRIVE_TOL
    if target_heading is not None:
        assert abs(ang_diff_deg(target_heading, end.heading)) <= HEADING_TOL


def test_tracked_servo_reverses_instead_of_turning_around():
    cmd = servo_drive(Pose(1.5, 1.2, 0.0), DriveKind.TRACKED, 0.125,
                      0.5, 1.2, 10.0)
    assert cmd.linear < 0.0  # goal dead astern: crawl backwards
    end = drive_until_parked(Pose(1.5, 1.2, 0.0), DriveKind.TRACKED,
                             0.5, 1.2, None)
    assert end.heading == pytest.approx(0.0)  # never swung the body


def test_tracked_servo_swings_before_rolling():
    cmd = servo_drive(Pose(1.0, 1.0, 0.0), DriveKind.TRACKED, 0.125,
                      1.0, 2.0, 10.0)
    assert cmd.linear == 0.0 and cmd.angular != 0.0


def test_servo_refines_heading_after_arriving():
    cmd = servo_drive(Pose(1.0, 1.0, 45.0), DriveKind.TRACKED, 0.125,
                      1.0, 1.0, 10.0, target_heading=90.0)
    assert (cmd.linear, cmd.lateral) == (0.0, 0.0)
    assert cmd.angular == pytest.approx(4.5)
    assert servo_drive(Pose(1.0, 1.0, 90.0), DriveKind.TRACKED, 0.125,
                       1.0, 1.0, 10.0, target_heading=90.0) is None


# -- tolerance pairing ----------------------------------------------------


def test_pair_tolerance_takes_the_looser_side():
    s, b, w = ModuleClass.SCOUT, ModuleClass.BACKBONE, ModuleClass.ACTIVE_WHEEL
    assert pair_tolerance(s, b) is ROUGH_TOLERANCE
    assert pair_tolerance(b, s) is ROUGH_TOLERANCE
    assert pair_tolerance(b, w) is ACCURATE_TOLERANCE
    assert pair_tolerance(s, s) is ROUGH_TOLERANCE


# -- priority ladder ------------------------------------------------------


def test_priority_ladder_is_strictly_ordered():
    ladder = [EMERGENCY_PRIORITY, RECHARGE_PRIORITY, DOCK_PRIORITY,
              HOLD_PRIORITY, LEAVE_SOCKET_PRIORITY, SEEK_PRIORITY,
              EXPLORE_PRIORITY]
    assert ladder == sorted(ladder)
    assert len(set(ladder)) == len(ladder)


# -- seek controller ------------------------------------------------------


def test_seek_recharges_when_parked_at_rank_zero():
    ctl = SeekEnergyController(0, SCOUT_SPEC, Rng(1))
    obs = obs_for(pose=Pose(1.0, 0.25, 90.0), sockets=[socket(0, 1.0, 0.25)])
    props = ctl(obs)
    assert [(p.priority, p.action) for p in props] == [
        (RECHARGE_PRIORITY, Recharge(0))]


def test_seek_promotes_to_emergency_when_battery_is_low():
    ctl = SeekEnergyController(0, SCOUT_SPEC, Rng(1))
    obs = obs_for(pose=Pose(1.0, 0.25, 90.0), sockets=[socket(0, 1.0, 0.25)],
                  battery=0.1)
    assert ctl(obs)[0].priority == EMERGENCY_PRIORITY


def test_seek_walks_toward_its_slot():
    ctl = SeekEnergyController(0, SCOUT_SPEC, Rng(1))
    obs = obs_for(pose=Pose(3.0, 2.0, 0.0), sockets=[socket(0, 1.0, 0.25)])
    props = ctl(obs)
    assert props[0].priority == SEEK_PRIORITY
    assert isinstance(props[0].action, Drive)


def test_seek_releases_a_dock_that_no_longer_matches():
    ctl = SeekEnergyController(0, SCOUT_SPEC, Rng(1))
    obs = obs_for(pose=Pose(3.0, 2.0, 0.0), sockets=[socket(0, 1.0, 0.25)],
                  docked=("N",), phases=("docked", "free", "free", "free"))
    props = ctl(obs)
    assert props == (props[0],)
    assert (props[0].priority, props[0].action) == (LEAVE_SOCKET_PRIORITY,
                                                    Undock(Face.NORTH))


def test_seek_idles_without_sockets():
    assert SeekEnergyController(0, SCOUT_SPEC, Rng(1))(obs_for()) is None


def test_the_slot_is_worked_out_again_only_for_another_sockets_tuple(
        monkeypatch):
    calls = []

    def counting_slot(mid, sockets, pitch):
        calls.append(mid)
        return assigned_slot(mid, sockets, pitch)

    monkeypatch.setattr(behaviors, "assigned_slot", counting_slot)
    lit = (socket(0, 1.0, 0.25), socket(1, 2.0, 0.25))
    one_dark = (socket(0, 1.0, 0.25), socket(1, 2.0, 0.25, active=False))
    for ctl in (SeekEnergyController(1, SCOUT_SPEC, Rng(1)),
                AggregateController(1, SCOUT_SPEC, Rng(1))):
        calls.clear()
        seen = []
        for sockets in (lit, lit, list(lit), one_dark, one_dark):
            obs = obs_for(mid=1, pose=Pose(2.5, 1.5, 0.0), sockets=sockets)
            ctl(obs)
            seen.append(ctl._assigned_slot(obs))
        # the same tuple object is reused; an equal but new tuple, or a
        # changed one, is worked out again
        assert calls == [1, 1, 1]
        assert seen == [assigned_slot(1, list(s), EDGE) for s in
                        (lit, lit, lit, one_dark, one_dark)]
        assert seen[0].socket.id == 1 and seen[3].socket.id == 0


def test_a_module_works_out_its_slot_once_per_sockets_tuple(monkeypatch):
    # seek_energy and aggregate share their module's slot memo: over a run,
    # assigned_slot runs once each time a module senses a new sockets
    # tuple, not once per controller
    calls = Counter()

    def counting_slot(mid, sockets, pitch):
        calls[mid] += 1
        return assigned_slot(mid, sockets, pitch)

    monkeypatch.setattr(behaviors, "assigned_slot", counting_slot)
    cfg = load_scenario_file(CONFIG_DIR / "desk_challenge.cfg")
    # short dwells toggle sockets every few ticks, so the tuples change often
    cfg = dataclasses.replace(cfg, dwell_min=2, dwell_max=5)
    sim = Simulation(cfg, 11)
    assert all({"seek_energy", "aggregate"} <= set(ctls)
               for ctls in sim.controllers.values())
    observe = sim._observe
    last = {}                       # module id -> its last sockets tuple
    tuples = Counter()

    def observe_and_count(i, delivered):
        obs = observe(i, delivered)
        if last.get(i) is not obs.local.sockets:
            last[i] = obs.local.sockets
            tuples[i] += 1
        return obs

    sim._observe = observe_and_count
    sim.run(300)
    assert sum(tuples.values()) > 100
    assert calls == tuples


def test_two_simulations_share_no_slot_memo():
    cfg = load_scenario_file(CONFIG_DIR / "desk_challenge.cfg")
    sims = Simulation(cfg), Simulation(cfg)
    memos = []
    for sim in sims:
        for i, ctls in sim.controllers.items():
            mine = [c._slot_memo for c in ctls.values() if c.reads_slot]
            # one memo per module, shared by its controllers that read a slot
            assert len(mine) == 2 and mine[0] is mine[1]
            assert mine[0].module_id == i
            memos.append(mine[0])
    assert len({id(m) for m in memos}) == len(memos) == 20
    first, second = (sim.run(200) for sim in sims)
    assert first.digest == second.digest


# -- aggregate controller -------------------------------------------------


def test_aggregate_holds_and_docks_when_aligned():
    ctl = AggregateController(1, SCOUT_SPEC, Rng(1))
    pred = SensedModule(0, ModuleClass.SCOUT, Pose(1.0, 0.25, 90.0),
                        Health.OK, 0.1)
    obs = obs_for(mid=1, pose=Pose(1.0, 0.35, 90.0),
                  sockets=[socket(0, 1.0, 0.25)], modules=[pred])
    props = ctl(obs)
    assert [(p.priority, p.action) for p in props] == [
        (HOLD_PRIORITY, Idle()),
        (DOCK_PRIORITY, Dock(Face.SOUTH, 0, Face.NORTH))]


def test_aggregate_waits_when_misaligned_or_busy():
    ctl = AggregateController(1, SCOUT_SPEC, Rng(1))
    away = obs_for(mid=1, pose=Pose(2.5, 1.5, 0.0),
                   sockets=[socket(0, 1.0, 0.25)])
    assert ctl(away) is None

    pred = SensedModule(0, ModuleClass.SCOUT, Pose(1.0, 0.25, 90.0),
                        Health.OK, 0.1)
    busy = obs_for(mid=1, pose=Pose(1.0, 0.35, 90.0),
                   sockets=[socket(0, 1.0, 0.25)], modules=[pred],
                   docked=("S",), phases=("free", "free", "docked", "free"))
    props = ctl(busy)
    assert [(p.priority, p.action) for p in props] == [(HOLD_PRIORITY, Idle())]

    # close enough to claim the slot but not latch-accurate: keep quiet and
    # let the seek servo finish the approach
    near = obs_for(mid=1, pose=Pose(1.02, 0.33, 90.0),
                   sockets=[socket(0, 1.0, 0.25)], modules=[pred])
    assert ctl(near) is None


@given(st.floats(-2 * ARRIVE_TOL, 2 * ARRIVE_TOL),
       st.floats(-2 * ARRIVE_TOL, 2 * ARRIVE_TOL),
       st.floats(-2 * HEADING_TOL, 2 * HEADING_TOL),
       st.sampled_from([0.0, 90.0, 359.5]),      # a slot always has a heading
       st.sampled_from(list(DriveKind)))
def test_aggregate_holds_at_its_slot_exactly_when_the_servo_stops(
        dx, dy, dh, target_heading, kind):
    # undocked, at its slot: holding any earlier would freeze the module
    # before it is latch-accurate, any later would leave it idle
    spec = SPEC_OF_KIND[kind]
    pose = Pose(1.0 + dx, 1.0 + dy, target_heading + dh)
    obs = obs_for(pose=pose, mc=spec.module_class,
                  sockets=[socket(0, 1.0, 1.0, approach=target_heading)])
    stopped = servo_drive(pose, kind, spec.max_speed,
                          1.0, 1.0, 10.0, target_heading) is None
    props = AggregateController(0, spec, Rng(1))(obs)
    assert props == ((ActionProposal(HOLD_PRIORITY, Idle()),) if stopped
                     else None)


def test_aggregate_ignores_a_dead_predecessor():
    ctl = AggregateController(1, SCOUT_SPEC, Rng(1))
    pred = SensedModule(0, ModuleClass.SCOUT, Pose(1.0, 0.25, 90.0),
                        Health.ENERGY_DEAD, 0.1)
    obs = obs_for(mid=1, pose=Pose(1.0, 0.35, 90.0),
                  sockets=[socket(0, 1.0, 0.25)], modules=[pred])
    assert [(p.priority, p.action) for p in ctl(obs)] == [(HOLD_PRIORITY, Idle())]


# -- disposal controller -------------------------------------------------


# the yard of obs_for, (3.0, 2.0) to (3.9, 2.9): its far edges belong to
# the next cells, as in world.in_yard, so a corpse on one is outside
@pytest.mark.parametrize("x, y, inside", [
    (3.0, 2.0, True), (3.5, 2.5, True),
    (3.9, 2.5, False), (3.5, 2.9, False), (3.9, 2.9, False),
], ids=["near-corner", "middle", "far-x-edge", "far-y-edge", "far-corner"])
def test_disposal_reads_the_yard_s_far_edges_as_outside(x, y, inside):
    wheel = ModuleClass.ACTIVE_WHEEL
    corpse = SensedModule(1, ModuleClass.SCOUT, Pose(x, y, 0.0),
                          Health.ENERGY_DEAD, 0.2)
    ctrl = DisposalController(0, WHEEL_SPEC, Rng(1))
    # undocked: a corpse outside the yard is the one to fetch
    free = obs_for(pose=Pose(3.45, 1.6, 0.0), modules=[corpse], mc=wheel)
    proposals = ctrl(free)
    if inside:
        assert proposals is None
    else:
        [proposal] = proposals
        assert proposal.priority == DISPOSAL_PRIORITY
    # hauling it in a three-body organism: undock once it is inside
    hauling = free._replace(interaction=free.interaction._replace(
        docked_faces=("west",), port_phases=("free", "free", "free", "docked"),
        port_peers=(None, None, None, (1, "east")), organism_size=3))
    [proposal] = ctrl(hauling)
    assert proposal.priority == DISPOSAL_PRIORITY
    assert isinstance(proposal.action, Undock if inside else Drive)


# -- explore controller ---------------------------------------------------


def test_explore_is_deterministic_per_stream():
    a = ExploreController(3, SCOUT_SPEC, Rng(9).substream("noise/explore/3"))
    b = ExploreController(3, SCOUT_SPEC, Rng(9).substream("noise/explore/3"))
    obs = obs_for(mid=3, pose=Pose(2.0, 1.5, 0.0))
    pa, pb = a(obs), b(obs)
    assert pa == pb
    assert pa[0].priority == EXPLORE_PRIORITY
    assert ExploreController(3, SCOUT_SPEC, Rng(9))(obs_for(carried=True)) is None


# -- answer memos ---------------------------------------------------------


def _unmemoised(ctl, obs):
    """ctl's answer to obs worked out afresh, by a copy of ctl that
    remembers no answer or slot."""
    fresh = copy.copy(ctl)
    fresh._key = fresh._answer = fresh._slot_memo = None
    return fresh(obs)


def _with(obs, channel, **fields):
    """obs with these fields of one channel replaced by new objects; every
    other field is the same object as in obs."""
    return obs._replace(**{channel: getattr(obs, channel)._replace(**fields)})


# module 0 a step short of its slot at (1.0, 0.25), facing away from its
# heading of 90: the servo swings it, at a rate that reads dt
SEEK_BASE = obs_for(pose=Pose(1.0, 0.22, 0.0), sockets=[socket(0, 1.0, 0.25)])
# module 1 at its slot, rank 1, over a backbone predecessor 7 degrees off
# its heading: inside a scout's docking tolerance, outside a backbone's
AGGREGATE_BASE = obs_for(
    mid=1, pose=Pose(1.0, 0.35, 90.0), sockets=[socket(0, 1.0, 0.25)],
    modules=[SensedModule(0, ModuleClass.BACKBONE, Pose(1.0, 0.25, 97.0),
                          Health.OK, 0.1)])


def corpse(x, y, distance):
    """Dead scout 1 as sensed."""
    return SensedModule(1, ModuleClass.SCOUT, Pose(x, y, 0.0),
                        Health.ENERGY_DEAD, distance)


# wheel 0 driving to the east flank of a corpse, slowly enough that the
# speed reads dt
DISPOSAL_BASE = obs_for(pose=Pose(2.0, 0.5, 0.0), mc=ModuleClass.ACTIVE_WHEEL,
                        modules=[corpse(2.0, 1.0, 0.5)])
# wheel 0 backing away east from a corpse it let go of, toward a spot the
# east wall clamps
RELEASE_BASE = obs_for(pose=Pose(3.8, 1.0, 0.0), mc=ModuleClass.ACTIVE_WHEEL,
                       phases=("free", "free", "free", "separating"),
                       modules=[corpse(3.7, 1.0, 0.1)])

MEMO_KEYS = {
    "seek_energy": [
        (SEEK_BASE, "local", dict(sockets=(socket(0, 2.0, 0.25),))),
        (SEEK_BASE, "me", dict(pose=Pose(1.0, 0.22, 45.0))),
        (SEEK_BASE, "me", dict(battery_fraction=0.1)),       # urgent
        (SEEK_BASE, "interaction", dict(docked_faces=("N",))),
        (SEEK_BASE, "me", dict(carried=True)),
        (SEEK_BASE, "internal", dict(dt=5.0)),
    ],
    "aggregate": [
        (AGGREGATE_BASE, "local", dict(sockets=(socket(0, 2.0, 0.25),))),
        (AGGREGATE_BASE, "local", dict(modules=SensedModules.of([
            SensedModule(0, ModuleClass.BACKBONE, Pose(1.0, 0.25, 97.0),
                         Health.ENERGY_DEAD, 0.1)]))),
        (AGGREGATE_BASE, "interaction",
         dict(port_phases=("free", "free", "approaching", "free"))),
        (AGGREGATE_BASE, "me", dict(pose=Pose(1.0, 0.35, 80.0))),
        (AGGREGATE_BASE, "me", dict(module_class=ModuleClass.BACKBONE)),
    ],
    "disposal": [
        (DISPOSAL_BASE, "local",
         dict(modules=SensedModules.of([corpse(2.5, 1.0, 0.5)]))),
        (DISPOSAL_BASE, "interaction", dict(docked_faces=("N",))),
        (DISPOSAL_BASE, "me", dict(pose=Pose(2.1, 0.5, 0.0))),
        (DISPOSAL_BASE, "internal", dict(dt=5.0)),
        (DISPOSAL_BASE, "local", dict(graveyard=(1.5, 0.5, 2.5, 1.5))),
        (RELEASE_BASE, "local", dict(arena_size=(5.0, 3.0))),
    ],
}


@pytest.mark.parametrize("name, base, channel, fields", [
    (name, base, channel, fields)
    for name, cases in MEMO_KEYS.items()
    for base, channel, fields in cases
], ids=[f"{name}-{channel}.{'/'.join(fields)}"
        for name, cases in MEMO_KEYS.items() for _, channel, fields in cases])
def test_a_memoised_controller_answers_anew_when_an_input_it_reads_changes(
        name, base, channel, fields):
    # every other input of `changed` is the same object as in `base`, so a
    # memo that left this input out of its key would answer it from `base`
    spec = WHEEL_SPEC if name == "disposal" else SCOUT_SPEC
    ctl = build_controllers([name], base.me.id, spec, None)[name]
    changed = _with(base, channel, **fields)
    first = ctl(base)
    assert first == _unmemoised(ctl, base)
    answer = ctl(changed)
    assert answer == _unmemoised(ctl, changed)
    assert answer != first


def _explore_answer(ctl, obs):
    """What explore answers to obs once it has chosen its waypoint: the
    proposal of servo_drive toward that waypoint, or None for a carried
    module or a parked servo."""
    if obs.me.carried:
        return None
    spec = ctl.spec
    drive = servo_drive(obs.me.pose, spec.drive_kind, spec.max_speed,
                        *ctl.waypoint, obs.internal.dt)
    return (None if drive is None
            else (ActionProposal(EXPLORE_PRIORITY, drive, "explore"),))


# scout 0 facing east in mid-room, far from the waypoint its stream draws:
# the tracked servo swings it first, at a rate that reads dt
EXPLORE_BASE = obs_for(pose=Pose(2.0, 1.5, 0.0))


@pytest.mark.parametrize("name, base", [
    ("seek_energy", SEEK_BASE), ("aggregate", AGGREGATE_BASE),
    ("disposal", DISPOSAL_BASE), ("disposal", RELEASE_BASE),
    ("explore", EXPLORE_BASE)])
def test_a_memoised_controller_hands_its_answer_out_again(name, base):
    # a new observation whose keyed inputs are the same objects, as the
    # harness builds on a tick where nothing the controller reads changed:
    # the battery drains, the tick counts on, and the sight hands out the
    # same local channel again
    spec = WHEEL_SPEC if name == "disposal" else SCOUT_SPEC
    ctl = build_controllers([name], base.me.id, spec, Rng(5))[name]
    first = ctl(base)
    assert type(first) is tuple and first
    assert all(p.source == name for p in first)
    again = base._replace(
        me=base.me._replace(battery_fraction=0.9),
        internal=base.internal._replace(tick=6))
    assert ctl(again) is first


@pytest.mark.parametrize("change", ["pose", "waypoint", "dt"])
def test_explore_answers_anew_when_an_input_it_reads_changes(change):
    # every other input is the same object as before, so a memo that left
    # this one out of its key would hand back the first answer
    ctl = build_controllers(["explore"], 0, SCOUT_SPEC, Rng(5))["explore"]
    first = ctl(EXPLORE_BASE)
    assert first is not None and first == _explore_answer(ctl, EXPLORE_BASE)
    obs = EXPLORE_BASE
    if change == "pose":
        obs = _with(obs, "me", pose=Pose(2.0, 1.5, 30.0))
    elif change == "waypoint":
        ctl.waypoint = (3.5, 0.5)
    else:
        obs = _with(obs, "internal", dt=5.0)
    waypoint = ctl.waypoint
    answer = ctl(obs)
    assert ctl.waypoint is waypoint       # no draw: only this input changed
    assert answer == _explore_answer(ctl, obs)
    assert answer != first


@pytest.mark.parametrize("run, changes", [
    (COLONY, None),
    # sockets toggle every few ticks, so still modules get new sockets
    (PinnedRun("desk_challenge", 11, 300, None),
     dict(dwell_min=2, dwell_max=5)),
    (DISPOSAL_OPEN, None),
    (PinnedRun("full_scale", 42, 200, None), None),
], ids=["colony", "desk_challenge-short-dwells", "disposal_open",
        "full_scale"])
def test_memoised_answers_equal_answers_worked_out_afresh(run, changes):
    # at every call over a run, the memoised answer of seek_energy,
    # aggregate and disposal equals one worked out afresh; explore's
    # equals the proposal of servo_drive toward its waypoint, under its name
    cfg = run.load()
    sim = Simulation(dataclasses.replace(cfg, **changes) if changes else cfg,
                     run.seed)
    answered = Counter()         # (name, answered from the memo) -> calls

    def checked(name, ctl):
        def call(obs):
            key = ctl._key
            answer = ctl(obs)
            where = (sim.tick, ctl.module_id, name)
            if name == "explore":
                assert answer == _explore_answer(ctl, obs), where
            else:
                assert answer == _unmemoised(ctl, obs), where
            # a memo that answers keeps its key object
            answered[name, key is not None and ctl._key is key] += 1
            return answer

        return call

    for ctls in sim.controllers.values():
        for name, ctl in ctls.items():
            ctls[name] = checked(name, ctl)
    metrics = sim.run(run.ticks)
    if run.pinned is not None:
        assert [metrics.digest, metrics.events] == run.pinned
    # each controller both answered from its memo and worked answers out
    for name in {name for ctls in sim.controllers.values() for name in ctls}:
        assert answered[name, True] > 0 and answered[name, False] > 0, name


# -- registry -------------------------------------------------------------


def test_build_controllers_order_and_unknown_name():
    rng = Rng(4).substream("noise")
    ctls = build_controllers(["explore", "seek_energy"], 2, SCOUT_SPEC, rng)
    assert list(ctls) == ["explore", "seek_energy"]
    assert isinstance(ctls["explore"], ExploreController)
    assert isinstance(ctls["seek_energy"], SeekEnergyController)
    with pytest.raises(ConfigError, match="unknown controller"):
        build_controllers(["warp"], 2, SCOUT_SPEC, rng)
    assert set(REGISTRY) == {"explore", "seek_energy", "aggregate", "disposal"}
