"""Acceptance gate: one test per shipping criterion, in order.

Each test ends by printing a single numbered verdict line, so running this
file with -v (or -s) doubles as the release checklist. The heavyweight
checks live here on purpose; the unit files stay fast.
"""

import itertools
import math
import random
import time

import pytest

from orgsim.config import load_scenario, load_scenario_file
from orgsim.control import (ActionProposal, Actuate, Dock, Drive, Idle,
                            Recharge, ToggleCoprocessor, Tow, Undock)
from orgsim.docking import (PEERED_PHASES, DockPhase, DockPort, Face,
                            TickInput, advance_dock, undock)
from orgsim.energy import EnergyLedger, Tariff, drain, recharge, share_energy
from orgsim.errors import ProtocolError
from orgsim.geometry import Pose
from orgsim.harness import Simulation, run_scenario, sweep
from orgsim.organism import (lift_feasible, lift_torque_nm, reach_height,
                             worst_case_chain)
from orgsim.robot_model import (DriveKind, ModuleClass, dof_range,
                                make_module_spec, new_module_state)
from orgsim.world import TerrainClass, in_yard

pytestmark = pytest.mark.slow

CONFIG_DIR = "configs"


def note(n, detail):
    print(f"criterion {n} PASS: {detail}")


# -- 1: capability envelope ----------------------------------------------


def test_criterion_1_capability_envelope():
    started = time.perf_counter()
    expect = {
        ModuleClass.SCOUT: (0.125, DriveKind.TRACKED, 2, 90.0, 180.0,
                            3.0, 37.2, True),
        ModuleClass.BACKBONE: (0.06, DriveKind.SCREW, 1, 90.0, None,
                               7.0, 180.0, False),
        ModuleClass.ACTIVE_WHEEL: (0.31, DriveKind.OMNIDIRECTIONAL, 2, 90.0,
                                   180.0, 5.0, 50.0, False),
    }
    for mc, row in expect.items():
        spec = make_module_spec(mc)
        got = (spec.max_speed, spec.drive_kind, spec.dof_count,
               spec.bend_range, spec.rot_range, spec.max_torque,
               spec.max_joint_speed, spec.rough_terrain_capable)
        assert got == row, mc
        assert dof_range(spec, 0) == spec.bend_range
        if spec.dof_count == 2:
            assert dof_range(spec, 1) == spec.rot_range
        assert (spec.mass, spec.edge_length, spec.battery_capacity) == \
               (1.0, 0.10, 20000.0)
    assert {s.max_speed for s in map(make_module_spec, expect)} == \
           {0.125, 0.06, 0.31}
    assert {s.max_torque for s in map(make_module_spec, expect)} == \
           {3.0, 7.0, 5.0}
    assert {s.max_joint_speed for s in map(make_module_spec, expect)} == \
           {37.2, 180.0, 50.0}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    note(1, f"all three capability envelopes exact in {elapsed:.3f}s")


# -- 2: docking protocol closure ------------------------------------------


def pair_in(phase):
    a = DockPort(owner=0, face=Face.NORTH)
    b = DockPort(owner=1, face=Face.SOUTH)
    a.phase = b.phase = phase
    if phase in PEERED_PHASES:
        a.peer, b.peer = b, a
    return a, b


def test_criterion_2_docking_protocol_closure():
    started = time.perf_counter()
    cases = raises = 0
    for phase, aligned, abort, separated, ha, hb, tow in itertools.product(
            DockPhase, (False, True), (False, True), (False, True),
            (False, True), (False, True), (False, True)):
        a, b = pair_in(phase)
        inp = TickInput(aligned=aligned, abort=abort, separated=separated)
        cases += 1
        try:
            advance_dock(a, b, inp, healthy_a=ha, healthy_b=hb, tow=tow)
        except ProtocolError:
            raises += 1
            continue
        # closure: the pair lands in another legal joint state
        assert a.phase is b.phase
        assert isinstance(a.phase, DockPhase)
        assert (a.owner, b.owner, a.face, b.face) == (0, 1, Face.NORTH,
                                                      Face.SOUTH)
        if a.phase in PEERED_PHASES:
            assert a.peer is b and b.peer is a
        else:
            assert a.peer is None and b.peer is None
    assert cases == 7 * 2 ** 6

    # one-sided release is symmetric: either owner letting go produces the
    # same pair state
    outcomes = []
    for side in (0, 1):
        a, b = pair_in(DockPhase.DOCKED)
        undock((a, b)[side])
        outcomes.append((a.phase, b.phase, a.peer is b, b.peer is a))
    assert outcomes[0] == outcomes[1] == \
           (DockPhase.UNLOCKING, DockPhase.UNLOCKING, True, True)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    note(2, f"{cases} joint transitions closed ({raises} rejected) "
            f"in {elapsed:.3f}s")


# -- 3: energy conservation -----------------------------------------------


def run_energy_script(k, ticks, tariff):
    r = random.Random(k)
    specs = [make_module_spec(r.choice(list(ModuleClass)),
                              {"battery_capacity": r.uniform(200.0, 1000.0)})
             for _ in range(4)]
    states = {i: new_module_state(i, specs[i], Pose(0.0, 0.0, 0.0),
                                  battery_fraction=r.random())
              for i in range(4)}
    led = EnergyLedger()
    for st in states.values():
        led.note_initial(st.battery_pj)
    edges = [((0, "N"), (1, "S")), ((1, "E"), (2, "W")), ((2, "N"), (3, "S"))]
    seconds = 0.0
    for _ in range(ticks):
        op = r.randrange(3)
        if op == 0:
            drain(states[r.randrange(4)], r.uniform(0.0, 3.0), led)
        elif op == 1:
            dt = r.uniform(1.0, 20.0)
            seconds += dt
            recharge(states[r.randrange(4)],
                     socket_active=r.random() < 0.9,
                     socket_rating_w=r.uniform(10.0, 100.0),
                     socket_height=0.3, reach_m=0.4,
                     distance_m=r.uniform(0.0, 0.15), dt=dt,
                     tariff=tariff, ledger=led, contact_range_m=0.1)
        else:
            dt = r.uniform(1.0, 20.0)
            seconds += dt
            before = sum(st.battery_pj for st in states.values())
            share_energy(edges, states, dt, tariff, led)
            assert sum(st.battery_pj for st in states.values()) == before
    stored = sum(st.battery_pj for st in states.values())
    residual = led.residual_j(stored)
    assert residual == 0.0
    assert abs(residual) <= 1e-6 * (seconds / 3600.0 or 1.0)


def test_criterion_3_energy_ledger_conservation():
    tariff = Tariff()
    for k in range(1000):
        run_energy_script(k, 10_000, tariff)
    note(3, "1000 scripts x 10000 ticks: residual exactly 0 J, "
            "sharing conserved pair totals")


# -- 4: reach and lift oracle ---------------------------------------------


def test_criterion_4_reach_and_lift_oracle():
    g = 9.81
    scout = make_module_spec(ModuleClass.SCOUT)
    backbone = make_module_spec(ModuleClass.BACKBONE)
    specs = {0: backbone, 1: scout, 2: scout, 3: scout}

    oracle = 0.0
    for i in (1, 2, 3):
        oracle += specs[i].mass * g * i * specs[0].edge_length
    chain3 = (1, 2, 3)
    assert lift_torque_nm(0, chain3, specs) == oracle
    assert oracle == pytest.approx(5.886)

    assert oracle <= backbone.max_torque            # 5.886 <= 7: feasible
    assert lift_feasible(0, chain3, specs)
    assert oracle > scout.max_torque                # 5.886 > 3: infeasible
    assert not lift_feasible(0, chain3, {i: scout for i in range(4)})

    from tests.test_organism import chain_org
    four = chain_org([0, 1, 2, 3])
    socket_height = 0.35
    assert reach_height(four, specs, stack=(0, 1, 2, 3)) == \
           pytest.approx(0.40)
    assert reach_height(four, specs, stack=(0, 1, 2, 3)) >= socket_height
    # a lone module reaches its own height, as Simulation._reach_of has it
    assert specs[1].edge_length == pytest.approx(0.10)
    assert specs[1].edge_length < socket_height
    note(4, "independent torque sums and stack heights reproduced exactly")


# -- 5: determinism and sweep speed ---------------------------------------


@pytest.fixture(scope="module")
def desk_sweep():
    """desk_challenge over seeds 1-8, full length, as (results, seconds):
    one sweep that criteria 5 and 9 share."""
    cfg = load_scenario_file(f"{CONFIG_DIR}/desk_challenge.cfg")
    started = time.perf_counter()
    results = sweep(cfg, range(1, 9))
    return results, time.perf_counter() - started


def test_criterion_5_digest_determinism_and_sweep_speed(desk_sweep):
    cfg = load_scenario_file(f"{CONFIG_DIR}/desk_challenge.cfg")
    assert cfg.module_count == 10 and cfg.days == 3.0

    digests = {run_scenario(cfg).digest for _ in range(5)}
    assert len(digests) == 1

    results, elapsed = desk_sweep
    assert len(results) == 8
    assert elapsed < 300.0
    note(5, f"5 identical digests ({digests.pop()}); 8-seed sweep "
            f"in {elapsed:.0f}s")


# -- 6: survival dynamics -------------------------------------------------


def test_criterion_6_survival_dynamics():
    zero = run_scenario(load_scenario_file(f"{CONFIG_DIR}/survival_zero.cfg"))
    assert zero.survivors == 0
    assert zero.deaths_energy == 10 and zero.deaths_hardware == 0

    ample_cfg = load_scenario_file(f"{CONFIG_DIR}/survival_ample.cfg")
    ample = run_scenario(ample_cfg)
    assert ample.ticks == 86400
    assert ample.survivors == ample_cfg.module_count == 10
    assert ample.deaths_energy == 0 and ample.deaths_hardware == 0

    hazard_cfg = load_scenario_file(f"{CONFIG_DIR}/hazard_field.cfg")
    seeds, ticks = 20, 2000
    rate = hazard_cfg.hazard_rate
    runs = sweep(hazard_cfg, range(seeds), ticks=ticks)
    assert all(m.deaths_energy == 0 for m in runs)
    total = sum(m.deaths_hardware for m in runs)
    mu = seeds * hazard_cfg.module_count * (1.0 - (1.0 - rate) ** ticks)
    sigma = math.sqrt(mu)
    assert abs(total - mu) <= 3.0 * sigma, (total, mu, sigma)
    note(6, f"starvation 0/10, ample 10/10, hazard deaths {total} "
            f"vs {mu:.1f} +- {3 * sigma:.1f}")


# -- 7: guard soundness under fuzz ----------------------------------------


FUZZ_MAP = "\n".join(
    ["cellsize 0.25", "##############"]
    + ["#............#"] * 7
    + ["##############", "socket 0 1 1 0.3 40", "socket 1 12 4 0.3 40"]) + "\n"

FUZZ_SCENARIO = """\
[run]
days = 1
dt = 10
seed = 5

[roster]
scout = 2
backbone = 2
active_wheel = 2

[modules]
battery_capacity = 2000000

[sensing]
range_m = 6
radio_range_m = 6
"""


class FuzzBrain:
    """Proposes deliberately unreasonable actions; the guard is the filter."""

    def __init__(self, mid, counter):
        self.r = random.Random(7000 + mid)
        self.counter = counter

    def __call__(self, obs):
        self.counter[0] += 1
        r = self.r
        k = r.randrange(8)
        if k == 0:
            act = Drive(r.uniform(-12, 12), r.uniform(-12, 12),
                        r.uniform(-720, 720))
        elif k == 1:
            act = Drive(r.uniform(-0.3, 0.3), 0.0, r.uniform(-90, 90))
        elif k == 2:
            act = Actuate(r.randrange(3), r.uniform(-720, 720))
        elif k == 3:
            cls = Tow if r.random() < 0.3 else Dock
            act = cls(r.choice(list(Face)), r.randrange(8),
                      r.choice(list(Face)))
        elif k == 4:
            act = Undock(r.choice(list(Face)))
        elif k == 5:
            act = Recharge(r.choice([0, 1, 99]))
        elif k == 6:
            act = ToggleCoprocessor(r.random() < 0.5)
        else:
            act = Idle()
        return ActionProposal(60, act)


class AuditedSimulation(Simulation):
    """The real pipeline plus an independent post-state audit each tick."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.audit_failures = []

    def _apply_action(self, i, org, action, moved_orgs):
        if isinstance(action, Actuate):
            # the audit looks the organism up itself, not trusting `org`
            audited = self.registry.organism_of(i)
            if audited is not None:
                chain = worst_case_chain(audited, i, self.specs)
                if not lift_feasible(i, chain, self.specs):
                    self.audit_failures.append((self.tick, i, "over_torque"))
        super()._apply_action(i, org, action, moved_orgs)

    def _phase_metrics(self):
        super()._phase_metrics()   # built-in scan raises on its own findings
        for i, st in self.states.items():
            spec = self.specs[i]
            for d in range(spec.dof_count):
                if abs(st.joint_angles[d]) > dof_range(spec, d):
                    self.audit_failures.append((self.tick, i, "joint_range"))
            if self.arena.terrain_at(st.pose.x, st.pose.y) is \
                    TerrainClass.OBSTACLE:
                self.audit_failures.append((self.tick, i, "wall"))


def test_criterion_7_guard_soundness_fuzz():
    cfg = load_scenario(FUZZ_SCENARIO, map_text=FUZZ_MAP)
    sim = AuditedSimulation(cfg)
    counter = [0]
    for i in sim.states:
        sim.controllers[i] = {"fuzz": FuzzBrain(i, counter)}
    metrics = sim.run(16700)   # 6 proposers per tick
    assert counter[0] >= 100_000
    assert sim.audit_failures == []
    assert metrics.survivors == 6
    assert metrics.residual_j == 0.0
    note(7, f"{counter[0]} fuzzed proposals, "
            f"{sum(metrics.rejections.values())} guarded off, "
            "post-state audit clean")


# -- 8: disposal task -----------------------------------------------------


def reachable_from(arena, start):
    # every cell but the walls: the free cells and the yard
    walk = set(arena.free_cells()) | yard_cells(arena)
    assert len(walk) == arena.walkable_count
    seen, frontier = {start}, [start]
    while frontier:
        x, y = frontier.pop()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in walk and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def yard_cells(arena):
    x0, y0, x1, y1 = arena.graveyard
    return {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


def test_criterion_8_disposal_task():
    open_cfg = load_scenario_file(f"{CONFIG_DIR}/disposal_open.cfg")
    sim = Simulation(open_cfg)
    corpse = open_cfg.fixed_spawns[0]
    start = sim.arena.cell_of(corpse.x, corpse.y)
    assert reachable_from(sim.arena, start) & yard_cells(sim.arena)
    m = sim.run()
    assert m.disposed == 1 and m.tasks_open == 0
    body = sim.states[0]
    assert in_yard(sim.arena.yard, body.pose.x, body.pose.y)

    walled_cfg = load_scenario_file(f"{CONFIG_DIR}/disposal_walled.cfg")
    sim = Simulation(walled_cfg)
    corpse = walled_cfg.fixed_spawns[0]
    start = sim.arena.cell_of(corpse.x, corpse.y)
    assert not (reachable_from(sim.arena, start) & yard_cells(sim.arena))
    m = sim.run()
    assert m.disposed == 0 and m.tasks_open == 1
    note(8, "open fixture disposes the corpse, walled fixture stays open")


# -- 9: the Grand Challenge scoreboard ------------------------------------


def test_criterion_9_grand_challenge_scoreboard(desk_sweep):
    # the floor is today's score: a change to behaviour that raises it
    # raises the floor to its own measurement
    results, _ = desk_sweep
    survivors = [m.survivors for m in results]
    energy = sum(m.deaths_energy for m in results)
    hardware = sum(m.deaths_hardware for m in results)
    disposed = sum(m.disposed for m in results)
    collisions = sum(m.rejections.get("collision", 0) for m in results)
    modules = sum(m.survivors + m.deaths_energy + m.deaths_hardware
                  for m in results)
    assert sum(survivors) >= 33
    assert hardware == 0
    note(9, f"desk seeds 1-8: {sum(survivors)}/{modules} survive "
            f"({', '.join(map(str, survivors))}); deaths {energy} energy, "
            f"{hardware} hardware; {disposed} corpses disposed; "
            f"{collisions} collision rejects")
