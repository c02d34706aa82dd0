"""Controller framework: proposal collection, selection, guard, radio."""

import math
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from orgsim import control, energy, sensing
from orgsim.control import (IDLE, IDLE_PROPOSAL, MAX_PROPOSALS_PER_CONTROLLER,
                            ActionProposal, Actuate, Dock, Drive,
                            GuardContext, Idle, InteractionChannel,
                            InternalChannel, LocalChannel, Mailbox, Message,
                            MessageBus, Observation, Recharge, Rejected,
                            SelfChannel, ToggleCoprocessor, Tow, Undock,
                            guard_action, select_action, step_controllers)
from orgsim.behaviors import HOLD_PRIORITY, StackSlot, build_controllers
from orgsim.docking import DockPhase, Face, TickInput
from orgsim.energy import RechargeResult, ShareTransfer, Tariff
from orgsim.errors import CommandError, FrameworkError
from orgsim.geometry import Pose
from orgsim.organism import OrganismRegistry, organism_move
from orgsim.robot_model import (Health, JointResult, ModuleClass, MoveResult,
                                locomotion_step, make_module_spec,
                                new_module_state)
from orgsim.sensing import SensedModule, SensedModules
from orgsim.world import SensedSocket, Socket, TerrainClass
from tests.path_reference import sampled
from tests.test_organism import docked_pair

SCOUT = make_module_spec(ModuleClass.SCOUT)
BACKBONE = make_module_spec(ModuleClass.BACKBONE)


@sampled
def open_floor(x, y):
    return TerrainClass.PLAIN


def make_obs(mid=0, sockets=(), docked=(), battery=1.0):
    me = SelfChannel(id=mid, module_class=ModuleClass.SCOUT, pose=Pose(0, 0, 0),
                     battery_fraction=battery, health=Health.OK,
                     joint_angles=(0.0, 0.0), coprocessor_on=False,
                     carried=False)
    local = LocalChannel(terrain=TerrainClass.PLAIN, sockets=tuple(sockets),
                         modules=SensedModules.of(()), arena_size=(4.0, 3.0),
                         graveyard=None)
    inter = InteractionChannel(docked_faces=tuple(docked),
                               port_phases=("free",) * 4,
                               port_peers=(None,) * 4, organism_id=None,
                               organism_size=1, organism_reach=0.1,
                               messages=())
    return Observation(me, local, inter,
                       InternalChannel(tick=0, dt=10.0, bus_load=0))


def no_sockets(socket_id):
    return None


def ctx_for(state, spec, states=None, specs=None, path_clear=open_floor,
            socket_by_id=no_sockets):
    """A run-wide guard context; by default `state` is the whole fleet."""
    return GuardContext(
        states=states if states is not None else {state.id: state},
        specs=specs if specs is not None else {state.id: spec},
        path_clear=path_clear, dt=10.0, socket_by_id=socket_by_id)


def scout_state(mid=0, pose=Pose(0, 0, 0)):
    return new_module_state(mid, SCOUT, pose)


# -- sensed modules -------------------------------------------------------


def sensed(mid, health=Health.OK, mc=ModuleClass.SCOUT, d=1.0):
    return SensedModule(mid, mc, Pose(0.1 * mid, 0.2, 0.0), health, d)


def test_sensed_modules_get_and_select_build_only_what_they_return(
        monkeypatch):
    records = (sensed(1), sensed(4, Health.ENERGY_DEAD, d=0.5),
               sensed(6, mc=ModuleClass.ACTIVE_WHEEL, d=2.0),
               sensed(7, Health.HARDWARE_DEAD, mc=ModuleClass.ACTIVE_WHEEL))
    view = SensedModules.of(reversed(records))    # any order in, id order out
    built = []

    def counting(*fields):
        built.append(fields[0])
        return SensedModule(*fields)

    monkeypatch.setattr(sensing, "SensedModule", counting)

    def builds(ids, answer, want):
        # `answer` was computed before this call, building the ids in `built`
        assert answer == want
        assert built == ids
        built.clear()

    builds([4], view.get(4), records[1])
    builds([7], view.get(7), records[3])
    for absent in (0, 2, 5, 8, 100, -1, -4):
        builds([], view.get(absent), None)
    builds([4, 7], view.select(healthy=False), [records[1], records[3]])
    builds([1, 6], view.select(healthy=True), [records[0], records[2]])
    builds([6, 7], view.select(ModuleClass.ACTIVE_WHEEL),
           [records[2], records[3]])
    builds([6], view.select(ModuleClass.ACTIVE_WHEEL, healthy=True),
           [records[2]])
    builds([], view.select(ModuleClass.BACKBONE), [])
    builds([1, 4, 6, 7], view.select(), list(records))
    builds([], len(view), 4)                      # len builds no record
    empty = SensedModules.of(())
    builds([], (len(empty), bool(empty), empty.get(0), empty.select()),
           (0, False, None, []))
    with pytest.raises(ValueError, match="repeated"):
        SensedModules.of([sensed(3), sensed(3)])
    with pytest.raises(ValueError, match="negative"):
        SensedModules.of([sensed(-2)])
    # a view marks an id out of sight with NaN, so a record whose distance
    # is NaN would silently vanish from get, select and len
    for bad in (math.nan, -0.5, -math.inf, "1.0", None, 1j):
        with pytest.raises(ValueError,
                           match=r"sensed module id 5 has distance"):
            SensedModules.of([sensed(2), sensed(5, d=bad)])


# -- proposal collection --------------------------------------------------


def test_step_controllers_collects_in_registration_order():
    obs = make_obs()
    controllers = {
        "quiet": lambda o: None,
        "single": lambda o: ActionProposal(60, Drive(0.1)),
        "batch": lambda o: [ActionProposal(50, Idle()),
                            ActionProposal(40, Recharge(0))],
    }
    props = step_controllers(controllers, obs)
    assert [(p.source, p.priority) for p in props] == [
        ("single", 60), ("batch", 50), ("batch", 40)]


def test_step_controllers_stamps_the_controller_name():
    drive = Drive(0.1)
    props = step_controllers(
        {"honest": lambda o: ActionProposal(60, drive, source="spoofed")},
        make_obs())
    assert props == [ActionProposal(60, drive, "honest")]
    assert props[0].action is drive


def test_step_controllers_passes_a_stamped_proposal_on_as_it_is():
    stamped = ActionProposal(60, Drive(0.1), "honest")
    [prop] = step_controllers({"honest": lambda o: (stamped,)}, make_obs())
    assert prop is stamped
    # a blank source, another controller's name or a subclass is restamped
    for other in (ActionProposal(60, Drive(0.1)),
                  ActionProposal(60, Drive(0.1), "spoofed"),
                  _Urgent(60, Drive(0.1), "honest")):
        [prop] = step_controllers({"honest": lambda o: other}, make_obs())
        assert prop is not other and type(prop) is ActionProposal
        assert prop == stamped


def test_step_controllers_checks_a_batch_handed_out_again():
    # a controller may answer with the same tuple object tick after tick;
    # the framework keeps no memo of it and checks it on every call
    bad = (ActionProposal(50, Idle(), "reused"),
           ActionProposal(300, Idle(), "reused"))
    calls = []

    def reused(o):
        calls.append(o)
        return bad

    for _ in range(2):
        with pytest.raises(FrameworkError,
                           match="'reused' used priority 300"):
            step_controllers({"reused": reused}, make_obs())
    assert len(calls) == 2
    good = (ActionProposal(50, Idle(), "reused"),)
    for _ in range(2):
        [prop] = step_controllers({"reused": lambda o: good}, make_obs())
        assert prop is good[0]


def test_step_controllers_flags_misbehavior():
    obs = make_obs()
    too_many = [ActionProposal(50, Idle())] * (MAX_PROPOSALS_PER_CONTROLLER + 1)
    with pytest.raises(FrameworkError, match="limit"):
        step_controllers({"greedy": lambda o: too_many}, obs)
    with pytest.raises(FrameworkError, match="expected ActionProposal"):
        step_controllers({"sloppy": lambda o: [Idle()]}, obs)
    with pytest.raises(FrameworkError, match="priority"):
        step_controllers({"loud": lambda o: ActionProposal(256, Idle())}, obs)
    with pytest.raises(FrameworkError, match="priority"):
        step_controllers({"loud": lambda o: ActionProposal(-1, Idle())}, obs)

    def boom(o):
        raise RuntimeError("exploded")

    with pytest.raises(FrameworkError, match="'crashy' raised"):
        step_controllers({"crashy": boom}, obs)


def test_step_controllers_flags_a_result_that_fails_while_listed():
    # a generator controller's body runs only as its result is listed
    def lazy_boom(o):
        yield ActionProposal(50, Idle())
        raise RuntimeError("exploded late")

    with pytest.raises(FrameworkError,
                       match="'lazy' raised RuntimeError.*generator result"):
        step_controllers({"lazy": lazy_boom}, make_obs())
    with pytest.raises(FrameworkError, match="'five' raised TypeError.*int"):
        step_controllers({"five": lambda o: 5}, make_obs())


@pytest.mark.parametrize("priority", ["high", None, 50.0, True, False],
                         ids=repr)
def test_step_controllers_refuses_a_priority_that_is_not_an_int(priority):
    # the type is tested before the range: "high" <= 255 would raise a
    # plain TypeError instead of the framework's own error. A bool passes
    # isinstance(_, int) and lies in [0, 255], yet is no priority
    with pytest.raises(FrameworkError,
                       match=f"'vague' used priority {priority!r}, must be"):
        step_controllers({"vague": lambda o: ActionProposal(priority, Idle())},
                         make_obs())


class _Urgent(ActionProposal):
    __slots__ = ()


@pytest.mark.parametrize("wrap", [
    lambda props: props,
    tuple,
    iter,
    lambda props: (p for p in props),
], ids=["list", "tuple", "iterator", "generator"])
def test_step_controllers_takes_any_iterable_and_proposal_subclasses(wrap):
    drive = Drive(0.1)
    props = [ActionProposal(1, drive), _Urgent(7, Idle(), "spoofed")]
    got = step_controllers({"any": lambda o: wrap(props)}, make_obs())
    assert got == [ActionProposal(1, drive, "any"),
                   ActionProposal(7, Idle(), "any")]
    assert all(type(p) is ActionProposal for p in got)
    assert step_controllers({"one": lambda o: _Urgent(9, drive)},
                            make_obs()) == [ActionProposal(9, drive, "one")]
    with pytest.raises(FrameworkError, match=r"returned \(9, Idle\(\), ''\)"):
        step_controllers({"raw": lambda o: wrap([(9, Idle(), "")])},
                         make_obs())


@pytest.mark.parametrize("bare", [Idle(), Drive(0.1)], ids=repr)
def test_step_controllers_rejects_a_bare_action(bare):
    # an action is a named tuple: read as a batch it would pass its fields
    # off as proposals, and Idle() as no proposal at all
    with pytest.raises(FrameworkError, match="expected ActionProposal"):
        step_controllers({"bare": lambda o: bare}, make_obs())


# -- records --------------------------------------------------------------


_SOCKET = SensedSocket(3, (0.125, 1.375), True, 20.0, 0.5, 0.3, 90.0)
_SOCKET_REPR = ("SensedSocket(id=3, position=(0.125, 1.375), active=True, "
                "rating=20.0, distance=0.5, height=0.3, approach_deg=90.0)")

# the per-tick records are named tuples with pinned reprs: a Rejected
# detail that embeds an action's repr is logged as it reads
RECORD_REPRS = [
    (Drive(0.1), "Drive(linear=0.1, lateral=0.0, angular=0.0)"),
    (Drive(linear=0.05, angular=-3.0),
     "Drive(linear=0.05, lateral=0.0, angular=-3.0)"),
    (Actuate(0, 90.0), "Actuate(dof_index=0, target_deg=90.0)"),
    (Dock(Face.SOUTH, 4, Face.NORTH),
     "Dock(face=<Face.SOUTH: 'S'>, target_id=4, "
     "target_face=<Face.NORTH: 'N'>)"),
    (Tow(Face.WEST, 7, Face.EAST),
     "Tow(face=<Face.WEST: 'W'>, target_id=7, target_face=<Face.EAST: 'E'>)"),
    (Undock(Face.EAST), "Undock(face=<Face.EAST: 'E'>)"),
    (Recharge(2), "Recharge(socket_id=2)"),
    (ToggleCoprocessor(True), "ToggleCoprocessor(on=True)"),
    (Idle(), "Idle()"),
    (ActionProposal(40, Recharge(2)),
     "ActionProposal(priority=40, action=Recharge(socket_id=2), source='')"),
    (Rejected("protocol", f"unrecognized action {Drive(0.1)!r}"),
     "Rejected(reason='protocol', detail='unrecognized action "
     "Drive(linear=0.1, lateral=0.0, angular=0.0)')"),
    (GuardContext({}, {}, None, 10.0, None),
     "GuardContext(states={}, specs={}, path_clear=None, dt=10.0, "
     "socket_by_id=None)"),
    (RechargeResult(False, "reach", 0.0, 0.0),
     "RechargeResult(granted=False, reason='reach', drawn_j=0.0, "
     "stored_j=0.0)"),
    (ShareTransfer(1, 2, 0.5),
     "ShareTransfer(donor=1, receiver=2, joules=0.5)"),
    (MoveResult(Pose(1.0, 2.0, 90.0), 5.0, False),
     "MoveResult(pose=Pose(x=1.0, y=2.0, heading=90.0), energy_j=5.0, "
     "blocked=False)"),
    (JointResult(37.2, 1.5), "JointResult(angle=37.2, energy_j=1.5)"),
    (TickInput(aligned=True),
     "TickInput(aligned=True, abort=False, separated=False)"),
    (_SOCKET, _SOCKET_REPR),
    (StackSlot(_SOCKET, 1, (0.225, 1.375), 90.0, 0),
     f"StackSlot(socket={_SOCKET_REPR}, rank=1, position=(0.225, 1.375), "
     f"heading=90.0, predecessor=0)"),
]


@pytest.mark.parametrize("record, text", RECORD_REPRS,
                         ids=[type(r).__name__ for r, _ in RECORD_REPRS])
def test_records_keep_their_repr_and_stay_immutable(record, text):
    assert repr(record) == text
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


_OBS = make_obs(mid=3, battery=0.5)
# each case keeps its own id, so dropping a case renames no other
BUILDER_CASES = [
    pytest.param(control._self_channel, SelfChannel, _OBS.me._asdict(),
                 id="SelfChannel-0"),
    pytest.param(control._internal_channel, InternalChannel,
                 dict(tick=4, dt=10.0, bus_load=2,
                      outbox=Mailbox(MessageBus(1.0), 3)),
                 id="InternalChannel-1"),
    pytest.param(control._internal_channel, InternalChannel,
                 dict(tick=4, dt=10.0, bus_load=0, outbox=None),
                 id="InternalChannel-2"),
    pytest.param(control._observation, Observation, _OBS._asdict(),
                 id="Observation-3"),
    pytest.param(control._rejected, Rejected,
                 dict(reason="collision", detail="path of module 1 is blocked"),
                 id="Rejected-8"),
    pytest.param(energy._recharge_result, RechargeResult,
                 dict(granted=True, reason=None, drawn_j=200.0,
                      stored_j=180.0),
                 id="RechargeResult-9"),
    pytest.param(energy._recharge_result, RechargeResult,
                 dict(granted=False, reason="reach", drawn_j=0.0,
                      stored_j=0.0),
                 id="RechargeResult-10"),
]


@pytest.mark.parametrize("builder, cls, fields", BUILDER_CASES)
def test_each_builder_makes_the_record_its_class_makes(builder, cls, fields):
    # a builder is tuple.__new__ with the class bound: it checks no arity,
    # so a hot site that drops a field would build a short record silently
    built, made = builder(tuple(fields.values())), cls(**fields)
    assert type(built) is cls
    assert len(built) == len(cls._fields)
    assert built == made
    assert repr(built) == repr(made)


def test_shared_idle_records_equal_fresh_ones():
    assert type(IDLE) is Idle and IDLE == Idle()
    assert IDLE_PROPOSAL == ActionProposal(255, Idle(), "framework")
    # an aggregate parked at its slot holds under its own name
    aggregate = build_controllers(["aggregate"], 0, SCOUT, None)["aggregate"]
    at_slot = SensedSocket(0, (0.0, 0.0), True, 20.0, 0.0, 0.3, 0.0)
    [hold] = aggregate(make_obs(sockets=[at_slot]))
    assert hold == ActionProposal(HOLD_PRIORITY, Idle(), "aggregate")
    assert repr(hold) == repr(ActionProposal(HOLD_PRIORITY, Idle(),
                                             "aggregate"))


def test_a_tow_is_a_dock_with_the_same_fields():
    tow = Tow(Face.WEST, 7, Face.EAST)
    assert isinstance(tow, Dock)
    assert not isinstance(Dock(Face.WEST, 7, Face.EAST), Tow)
    assert (tow.face, tow.target_id, tow.target_face) == (Face.WEST, 7,
                                                          Face.EAST)


# -- selection ------------------------------------------------------------


def test_selection_prefers_low_priority_then_earlier_proposal():
    props = [ActionProposal(60, Drive(0.1), source="b"),
             ActionProposal(40, Idle(), source="c"),
             ActionProposal(40, Recharge(0), source="a")]
    assert select_action(props).source == "c"
    assert select_action(props[::-1]).source == "a"
    assert select_action(iter(props)).source == "c"
    assert select_action([]) is IDLE_PROPOSAL


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                          st.lists(st.integers(0, 255), max_size=3)),
                unique_by=lambda item: item[0], max_size=4))
def test_selection_breaks_ties_by_registration_order(registered):
    # step_controllers lists proposals in registration order, so of the
    # controllers proposing the lowest priority the first registered wins,
    # with its first proposal at that priority
    controllers = {name: (lambda obs, ps=ps: [ActionProposal(p, Recharge(j))
                                              for j, p in enumerate(ps)])
                   for name, ps in registered}
    got = select_action(step_controllers(controllers, make_obs()))
    ranked = sorted((p, k, j) for k, (_, ps) in enumerate(registered)
                    for j, p in enumerate(ps))
    if not ranked:
        assert got is IDLE_PROPOSAL
    else:
        p, k, j = ranked[0]
        assert got == ActionProposal(p, Recharge(j), registered[k][0])


_by_priority = attrgetter("priority")


@given(st.lists(st.integers(0, 5), max_size=8),
       st.sampled_from(["list", "tuple", "iterator", "generator"]))
def test_selection_is_min_by_priority_to_the_same_object(priorities, form):
    # few distinct priorities, so most lists hold ties; the first proposal
    # of the lowest priority must come back itself, not an equal copy
    props = [ActionProposal(p, Recharge(0), f"c{k}")
             for k, p in enumerate(priorities)]
    wrap = {"list": list, "tuple": tuple, "iterator": iter,
            "generator": lambda ps: (p for p in ps)}[form]
    expect = min(props, key=_by_priority, default=IDLE_PROPOSAL)
    assert select_action(wrap(props)) is expect


# -- guard ----------------------------------------------------------------


def test_idle_passes_even_for_dead_modules():
    st_ = scout_state()
    st_.health = Health.ENERGY_DEAD
    ctx = ctx_for(st_, SCOUT)
    assert isinstance(guard_action(Idle(), 0, None, ctx), Idle)
    got = guard_action(Drive(0.1), 0, None, ctx)
    assert isinstance(got, Rejected) and got.reason == "protocol"


def test_guard_drive_solo():
    st_ = scout_state()
    ctx = ctx_for(st_, SCOUT)
    assert guard_action(Drive(0.1), 0, None, ctx) == Drive(0.1)
    got = guard_action(Drive(0.0, 0.1), 0, None, ctx)
    assert got == Rejected("protocol", "tracked drive cannot move sideways")
    st_.carried = True
    assert guard_action(Drive(0.1), 0, None, ctx).reason == "protocol"


def test_guard_drive_pinned_while_port_engaged():
    st_ = scout_state()
    st_.ports[0].phase = DockPhase.LOCKING
    got = guard_action(Drive(0.1), 0, None, ctx_for(st_, SCOUT))
    assert isinstance(got, Rejected) and "pins" in got.detail


def test_guard_drive_collision_uses_scaled_speed():
    @sampled
    def cliff(x, y):
        return TerrainClass.PLAIN if x < 0.8 else None

    solo = scout_state()
    got = guard_action(Drive(1.0), 0, None,
                       ctx_for(solo, SCOUT, path_clear=cliff))
    assert got == Rejected("collision", "path of module 0 is blocked")

    # grouped with a screw module the whole body is capped to 0.06 m/s,
    # so ten seconds of motion stays short of the cliff
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    org = reg.organisms[0]
    states = {0: scout_state(0), 1: new_module_state(1, BACKBONE, Pose(0.1, 0, 0))}
    specs = {0: SCOUT, 1: BACKBONE}
    got = guard_action(Drive(1.0), 0, org, ctx_for(states[0], SCOUT, states,
                                                   specs, path_clear=cliff))
    assert got == Drive(1.0)


def test_guard_drive_organism_holds_during_a_member_lock():
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    org = reg.organisms[0]
    states = {0: scout_state(0), 1: scout_state(1)}
    states[1].ports[1].phase = DockPhase.LOCKING
    specs = {0: SCOUT, 1: SCOUT}
    got = guard_action(Drive(0.1), 0, org,
                       ctx_for(states[0], SCOUT, states, specs))
    assert isinstance(got, Rejected) and "mid-lock" in got.detail


def test_guard_drive_rejects_carried_proposer_in_an_organism():
    # the carried check dominates: a rider never gets as far as the
    # ground-contact bookkeeping
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    org = reg.organisms[0]
    states = {0: scout_state(0), 1: scout_state(1)}
    states[0].carried = True
    states[1].carried = True
    got = guard_action(Drive(0.1), 0, org, ctx_for(states[0], SCOUT, states,
                                                   {0: SCOUT, 1: SCOUT}))
    assert got == Rejected("protocol", "carried modules do not drive")


def test_guard_drive_judges_a_carried_member_like_execution_does():
    # a hauled dead backbone rides clear of the floor: rough ground it could
    # never drive over does not block the haul, a wall still does, and the
    # guard and organism_move agree on both
    @sampled
    def rough_then_wall(x, y):
        return TerrainClass.ROUGH if x < 1.05 else TerrainClass.OBSTACLE

    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    org = reg.organisms[0]
    states = {0: scout_state(0), 1: new_module_state(1, BACKBONE, Pose(0.1, 0, 0))}
    states[1].health = Health.ENERGY_DEAD
    states[1].battery_pj = 0
    states[1].carried = True
    specs = {0: SCOUT, 1: BACKBONE}

    def verdicts(speed):
        guarded = guard_action(Drive(speed), 0, org, ctx_for(
            states[0], SCOUT, states, specs, path_clear=rough_then_wall))
        moved = organism_move(org, states, specs, Drive(speed), 0, 10.0,
                              rough_then_wall, Tariff())
        return guarded, moved.blocked

    assert verdicts(0.05) == (Drive(0.05), False)
    assert verdicts(0.1) == (Rejected("collision", "path of module 1 is blocked"),
                             True)


@pytest.mark.parametrize("drive", [
    Drive(math.nan), Drive(math.inf), Drive(0.0, -math.inf),
    Drive(0.0, 0.0, math.nan), Drive(0.0, 0.0, -math.inf),
], ids=["linear-nan", "linear-inf", "lateral-minus-inf", "angular-nan",
        "angular-minus-inf"])
def test_guard_rejects_a_drive_that_is_not_finite(drive):
    # no speed cap or swept path can be worked out of it, alone or in an
    # organism, so it is refused before either is asked
    solo = guard_action(drive, 0, None, ctx_for(scout_state(), SCOUT))
    assert solo == Rejected("protocol", f"{drive!r} is not finite")
    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    states = {0: scout_state(0), 1: scout_state(1, Pose(0.1, 0, 0))}
    grouped = guard_action(drive, 0, reg.organisms[0],
                           ctx_for(states[0], SCOUT, states,
                                   {0: SCOUT, 1: SCOUT}))
    assert grouped == solo


def pair_near_the_north_wall(height=0.28):
    """Two docked scouts side by side along +x at y = `height`, above a
    wall that fills y < 0.25."""
    @sampled
    def north_wall(x, y):
        return TerrainClass.OBSTACLE if y < 0.25 else TerrainClass.PLAIN

    reg = OrganismRegistry()
    reg.register_edge(*docked_pair(0, 1))
    states = {0: scout_state(0, Pose(1.0, height, 0)),
              1: scout_state(1, Pose(1.1, height, 0))}
    return reg.organisms[0], ctx_for(states[0], SCOUT, states,
                                     {0: SCOUT, 1: SCOUT},
                                     path_clear=north_wall)


def test_guard_drive_organism_checks_the_arc_of_a_turn():
    # turning 90 degrees about the middle swings module 0 down by 0.05 m,
    # into the wall 0.03 m below it; 0.1 m higher up the same turn is clear
    org, ctx = pair_near_the_north_wall()
    assert guard_action(Drive(angular=9.0), 1, org, ctx) == Rejected(
        "collision", "path of module 0 is blocked")
    res = organism_move(org, ctx.states, ctx.specs, Drive(angular=9.0), 1,
                        ctx.dt, ctx.path_clear, Tariff())
    assert res.blocked
    org, ctx = pair_near_the_north_wall(height=0.38)
    assert guard_action(Drive(angular=9.0), 1, org, ctx) == Drive(angular=9.0)


def test_guard_drive_organism_refuses_what_the_motion_rule_refuses():
    org, ctx = pair_near_the_north_wall()
    ctx.states[1].health = Health.HARDWARE_DEAD
    assert guard_action(Drive(0.05), 0, org, ctx) == Rejected(
        "protocol",
        "module 1 is hardware_dead and not carried; the organism cannot move")
    # a drive that asks for no motion is admitted before any member counts
    assert guard_action(Drive(), 0, org, ctx) == Drive()


_CELL = 0.25


@given(st.data())
def test_guard_admits_an_organism_drive_iff_organism_move_moves_it(data):
    # a chain of 2 to 4 members in a row along a shared heading, some of
    # them carried, a drive near the ground crew's speed cap, and wall or
    # rough cells scattered over a 2 m square
    size = data.draw(st.integers(2, 4))
    classes = data.draw(st.lists(st.sampled_from(list(ModuleClass)),
                                 min_size=size, max_size=size))
    specs = {i: make_module_spec(c) for i, c in enumerate(classes)}
    heading = data.draw(st.sampled_from([0.0, 90.0, 200.0]))
    driver = data.draw(st.integers(0, size - 1))
    riders = data.draw(st.sets(st.integers(0, size - 1), max_size=size - 1))
    walls = data.draw(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                              max_size=12))
    rough = data.draw(st.sets(st.tuples(st.integers(0, 7),
                                        st.integers(0, 7)), max_size=6))
    reg = OrganismRegistry()
    for a in range(size - 1):
        reg.register_edge(*docked_pair(a, a + 1))
    org = reg.organisms[0]
    dx = 0.1 * math.cos(math.radians(heading))
    dy = 0.1 * math.sin(math.radians(heading))
    states = {i: new_module_state(i, specs[i],
                                  Pose(0.9 + i * dx, 0.9 + i * dy, heading))
              for i in range(size)}
    for i in riders - {driver}:
        states[i].carried = True
    cap = min(specs[i].max_speed for i in range(size)
              if not states[i].carried)
    speed = cap * data.draw(st.floats(0.8, 1.2))
    if data.draw(st.booleans()):
        drive = Drive(angular=data.draw(st.sampled_from([-1, 1])) * speed
                      * 100.0)
    else:
        toward = math.radians(data.draw(st.sampled_from([0.0, 90.0, 33.0])))
        drive = Drive(speed * math.cos(toward), speed * math.sin(toward))

    @sampled
    def terrain(x, y):
        cell = (math.floor(x / _CELL), math.floor(y / _CELL))
        if not (0 <= cell[0] < 8 and 0 <= cell[1] < 8) or cell in walls:
            return TerrainClass.OBSTACLE
        return TerrainClass.ROUGH if cell in rough else TerrainClass.PLAIN

    ctx = ctx_for(states[driver], specs[driver], states, specs,
                  path_clear=terrain)
    admitted = guard_action(drive, driver, org, ctx) == drive
    try:
        res = organism_move(org, states, specs, drive, driver, ctx.dt,
                            terrain, Tariff())
    except CommandError:
        moved = False
    else:
        moved = not res.blocked
        assert moved == any(res.poses[i] != states[i].pose
                            for i in range(size))
    assert admitted == moved


@pytest.mark.xfail(strict=True, reason=(
    "_guard_drive caps speed as vx * cap / speed and locomotion_step as "
    "vx * (cap / speed); the last-bit difference moves the swept-path "
    "samples, so the two can disagree about a path that grazes a cell"))
def test_guard_drive_scales_speed_like_locomotion_step():
    # full_scale seed 81, tick 2, module 67: a backbone asked for just over
    # its 0.06 m/s cap. Scaled the guard's way the path is 0.6000000000000001
    # m and its 13 samples miss the corner of rough cell (5, 4); scaled the
    # locomotion way it is 0.6 m, and sample 7 of 12 lands on that cell.
    @sampled
    def rough_cell(x, y):
        cell = (int(x // 0.25), int(y // 0.25))
        return TerrainClass.ROUGH if cell == (5, 4) else TerrainClass.PLAIN

    st_ = new_module_state(67, BACKBONE,
                           Pose(1.6357643331513299, 0.9252420337519408, 270.0))
    drive = Drive(-0.0550242033751941, -0.023923566684867014, 0.0)
    guarded = guard_action(drive, 67, None,
                           ctx_for(st_, BACKBONE, path_clear=rough_cell))
    moved = locomotion_step(st_, BACKBONE, drive, rough_cell, 10.0, Tariff())
    assert isinstance(guarded, Rejected) == moved.blocked


def test_guard_actuate_clamps_and_checks_torque():
    ctx = ctx_for(scout_state(), SCOUT)
    assert guard_action(Actuate(0, 45.0), 0, None, ctx) == Actuate(0, 45.0)
    assert guard_action(Actuate(0, 120.0), 0, None, ctx) == Actuate(0, 90.0)
    assert guard_action(Actuate(1, -500.0), 0, None, ctx) == Actuate(1, -180.0)
    # an infinite target clamps too; a NaN one lies on no side of the range
    assert guard_action(Actuate(0, math.inf), 0, None, ctx) == Actuate(0, 90.0)
    assert guard_action(Actuate(0, math.nan), 0, None, ctx) == Rejected(
        "protocol", "joint target nan is not a number")
    got = guard_action(Actuate(3, 10.0), 0, None, ctx)
    assert isinstance(got, Rejected) and got.reason == "protocol"

    # a scout joint cannot swing a three-module tail
    reg = OrganismRegistry()
    for a, b in ((0, 1), (1, 2), (2, 3)):
        reg.register_edge(*docked_pair(a, b))
    org = reg.organisms[0]
    states = {i: scout_state(i, Pose(0.1 * i, 0, 0)) for i in range(4)}
    specs = {i: SCOUT for i in range(4)}
    got = guard_action(Actuate(0, 30.0), 0, org,
                       ctx_for(states[0], SCOUT, states, specs))
    assert isinstance(got, Rejected) and got.reason == "overload"
    specs[0] = BACKBONE
    states[0] = new_module_state(0, BACKBONE, Pose(0, 0, 0))
    ctx = ctx_for(states[0], BACKBONE, states, specs)
    assert guard_action(Actuate(0, 30.0), 0, org, ctx) == Actuate(0, 30.0)
    # a backbone has one joint, in an organism as alone
    got = guard_action(Actuate(1, 30.0), 0, org, ctx)
    assert got == Rejected("protocol", "backbone has no dof 1")


def test_guard_dock_cases():
    a, b = scout_state(0), scout_state(1, Pose(0.1, 0, 0))
    states = {0: a, 1: b}
    specs = {0: SCOUT, 1: SCOUT}
    ctx = ctx_for(a, SCOUT, states, specs)
    ok = Dock(Face.NORTH, 1, Face.SOUTH)
    assert guard_action(ok, 0, None, ctx) == ok
    assert guard_action(Dock(Face.NORTH, 0, Face.SOUTH), 0, None,
                        ctx).detail == "cannot dock to self"
    assert "unknown module" in guard_action(Dock(Face.NORTH, 9, Face.SOUTH),
                                            0, None, ctx).detail

    b.health = Health.HARDWARE_DEAD
    refused = guard_action(ok, 0, None, ctx)
    assert isinstance(refused, Rejected) and "towing" in refused.detail
    tow = Tow(Face.NORTH, 1, Face.SOUTH)
    assert guard_action(tow, 0, None, ctx) == tow

    b.health = Health.OK
    a.ports[0].phase = DockPhase.APPROACHING
    assert "own face" in guard_action(ok, 0, None, ctx).detail
    a.ports[0].phase = DockPhase.FREE
    b.ports[2].phase = DockPhase.DOCKED
    assert "target face" in guard_action(ok, 0, None, ctx).detail


def test_guard_undock_and_recharge_and_toggle():
    st_ = scout_state()
    ctx = ctx_for(st_, SCOUT)
    assert "only a docked face" in guard_action(Undock(Face.NORTH), 0, None,
                                               ctx).detail
    st_.ports[0].phase = DockPhase.DOCKED
    assert guard_action(Undock(Face.NORTH), 0, None, ctx) == Undock(Face.NORTH)

    sock = Socket(id=0, cell=(1, 1), height=0.3, rating=20.0)
    by_id = lambda sid: sock if sid == 0 else None
    fresh = scout_state(2)
    wired = ctx_for(fresh, SCOUT, socket_by_id=by_id)
    unwired = ctx_for(fresh, SCOUT)   # a lookup that knows no socket
    assert guard_action(Recharge(0), 2, None, wired) == Recharge(0)
    assert "unknown socket" in guard_action(Recharge(5), 2, None, wired).detail
    assert "unknown socket" in guard_action(Recharge(0), 2, None,
                                            unwired).detail
    assert guard_action(ToggleCoprocessor(True), 2, None,
                        unwired) == ToggleCoprocessor(True)
    for flag in ("maybe", 1, None):
        assert guard_action(ToggleCoprocessor(flag), 2, None,
                            unwired) == Rejected(
            "protocol", f"coprocessor flag {flag!r} is not a bool")
    assert "unrecognized" in guard_action("warp", 2, None, unwired).detail


@pytest.mark.parametrize("action, spec", [
    (Actuate(0.5, 10.0), BACKBONE), (Actuate(0.5, 10.0), SCOUT),
    (Actuate(0, "10"), SCOUT), (Drive("0.1", 0, 0), SCOUT),
    (Dock("north", 5, Face.SOUTH), SCOUT), (Undock("north"), SCOUT),
    (Recharge(0.0), SCOUT), (Dock(Face.NORTH, 5.0, Face.SOUTH), SCOUT),
], ids=["actuate-half-index-backbone", "actuate-half-index-scout",
        "actuate-str-target", "drive-str-linear", "dock-str-face",
        "undock-str-face", "recharge-float-id", "dock-float-id"])
def test_guard_rejects_an_action_with_a_field_of_the_wrong_type(action,
                                                                spec):
    # module 5 and socket 0 exist, and 0.0 and 5.0 look them up in a dict,
    # so only the field's type can refuse these
    me = new_module_state(0, spec, Pose(0, 0, 0))
    states = {0: me, 5: scout_state(5, Pose(0.1, 0, 0))}
    sock = Socket(id=0, cell=(1, 1), height=0.3, rating=20.0)
    ctx = ctx_for(me, spec, states, {0: spec, 5: SCOUT},
                  socket_by_id={0: sock}.get)
    got = guard_action(action, 0, None, ctx)
    assert isinstance(got, Rejected) and got.reason == "protocol", got


# -- radio ----------------------------------------------------------------


def test_bus_latency_and_clearing():
    bus = MessageBus(range_m=5.0)
    positions = {0: Pose(0, 0, 0), 1: Pose(1, 0, 0)}
    assert bus.post(Message(0, 1, "ping"))
    assert bus.load == 1
    got = bus.deliver(positions)
    assert got == {1: [Message(0, 1, "ping")]}
    assert bus.deliver(positions) == {}
    assert bus.load == 0


def test_bus_per_destination_backpressure():
    bus = MessageBus(range_m=5.0)
    for i in range(MessageBus.PER_DEST_LIMIT):
        assert bus.post(Message(0, 1, "n", (i,)))
    assert not bus.post(Message(0, 1, "overflow"))
    assert bus.dropped == 1
    assert bus.posted == MessageBus.PER_DEST_LIMIT
    assert bus.post(Message(0, 2, "other"))  # a different destination still has room


def test_bus_range_gate_and_missing_positions():
    bus = MessageBus(range_m=1.0)
    bus.post(Message(0, 1, "near"))
    bus.post(Message(2, 1, "far"))
    bus.post(Message(0, 9, "ghost-dest"))
    positions = {0: Pose(0, 0, 0), 1: Pose(0.5, 0, 0), 2: Pose(50, 0, 0)}
    got = bus.deliver(positions)
    assert got == {1: [Message(0, 1, "near")]}
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="must be >= 0"):
            MessageBus(range_m=bad)


def test_mailbox_stamps_its_sender():
    bus = MessageBus(range_m=5.0)
    box = Mailbox(bus, sender=7)
    assert box.post(3, "hello", (1, 2))
    got = bus.deliver({7: Pose(0, 0, 0), 3: Pose(0, 1, 0)})
    assert got == {3: [Message(7, 3, "hello", (1, 2))]}
